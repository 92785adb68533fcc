import ast
import sys
from pathlib import Path

import lieposet

SOURCE = Path(lieposet.__file__).parent


def test_no_assert_statements_in_package():
    # internal invariants raise exceptions; an assert vanishes under -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) > 5
    assert found == []


def test_standard_library_only_and_no_floats():
    # exact arithmetic with no runtime dependency: every absolute import is
    # a standard-library module, and no float literal or float() call appears
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            found += [f"{where} imports {n}" for n in names if n.split(".")[0] not in sys.stdlib_module_names]
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{where} float literal {node.value!r}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{where} calls float()")
    assert found == []
