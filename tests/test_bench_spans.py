"""The benchmark's tracer (bench/tracer.py) wraps incalg callables named by
(module, attribute path) in its SPANS list: a method through the class's
own ``vars(cls)[attr]``, a function as a module attribute.  A refactor that
moves, renames or inherits one of them breaks the traced benchmark run, so
this reads SPANS without importing any benchmark code and resolves every
entry the same way."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _spans():
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPANS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"no SPANS list in {TRACER}")


SPANS = _spans()


@pytest.mark.parametrize("modname, path", [(m, p) for _, m, p in SPANS],
                         ids=[f"{m}:{p}" for _, m, p in SPANS])
def test_traced_callable_resolves(modname, path):
    module = importlib.import_module(modname)
    if "." in path:
        cls_name, attr = path.split(".")
        owned = vars(getattr(module, cls_name))
        assert attr in owned, f"{path} is not in {cls_name}'s own class dict"
        raw = owned[attr]
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
    else:
        assert callable(getattr(module, path))
