"""The benchmark's tracer names the functions it wraps as strings; every
one of them must still exist, or `bench/run.py --trace 1` breaks.  The
list is read from `bench/spans.py` without importing or running it."""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for module, qualname, is_generator in targets:
        obj = importlib.import_module(f"lieposet.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{qualname}"
        assert inspect.isgeneratorfunction(obj) == is_generator, f"{module}.{qualname}"
