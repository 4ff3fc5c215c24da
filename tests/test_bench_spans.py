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

from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import DElem
from incalg.posets import Poset

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


# The tracer's fia.mul.terms adds sum(map(len, alg.conv)) per product.  That
# counts the terms actually multiplied only while the flat gathers of
# IncFn.__mul__ hold exactly conv's terms and _bounds cuts them into conv's
# entries in order; gathering over range(npairs) reads the index lists back.
@pytest.mark.parametrize("poset", [
    Poset.from_covers(["a"], []),
    Poset.from_covers(["a", "b", "c"], []),
    Poset.from_covers(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")]),
    Poset.from_covers(["0", "a", "b", "1"],
                      [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
], ids=["point", "antichain", "chain4", "diamond"])
def test_flat_kernel_holds_exactly_the_traced_terms(poset):
    alg = IncidenceAlgebra(poset, PrimeField(3))
    positions = tuple(range(alg.npairs))
    left, right = alg._left(positions), alg._right(positions)
    assert len(left) == len(right) == sum(map(len, alg.conv))
    start = 0
    for terms, cut in zip(alg.conv, alg._bounds, strict=True):
        assert (cut.start, cut.stop, cut.step) == (start, start + len(terms),
                                                   None)
        assert tuple(zip(left[cut], right[cut])) == terms
        start = cut.stop
    assert start == len(left)


# The zero shortcuts of DElem.__mul__ sit above the traced IncFn.__mul__, so
# every call the tracer sees multiplies all of conv's terms; a product with a
# structurally zero coordinate is never formed, hence never counted.
@pytest.mark.parametrize("field", [PrimeField(3), QQ], ids=["F3", "Q"])
def test_zero_coordinate_products_are_skipped_above_the_kernel(monkeypatch,
                                                                field):
    poset = Poset.from_covers(["0", "a", "b", "1"],
                              [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    alg = IncidenceAlgebra(poset, field)
    calls = []
    kernel = IncFn.__mul__

    def counted(self, other):
        calls.append(1)
        return kernel(self, other)

    monkeypatch.setattr(IncFn, "__mul__", counted)
    f, g, m = alg.zeta(), alg.delta() + alg.e("0", "a"), alg.e("a", "1")
    zero = alg.zero()
    for left, right, products in ((DElem(zero, m), DElem(g, zero), 1),
                                  (DElem(f, zero), DElem(g, zero), 1),
                                  (DElem(f, m), DElem(zero, g), 1),
                                  (DElem(f, m), DElem(g, m), 3)):
        calls.clear()
        left * right
        assert len(calls) == products
