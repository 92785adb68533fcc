import ast
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
