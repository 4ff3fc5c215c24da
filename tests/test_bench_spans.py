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
# counts the terms actually multiplied only while IncFn.__mul__ makes one
# call of the compiled kernel and the kernel's entry k multiplies exactly
# conv[k]'s terms, in order.  Recording operands read both back: a_i * b_j
# logs (i, j) and returns a _Terms, which adds up (also under sum() and
# % p) into the list of the terms an entry was summed from.
class _Terms:
    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        return _Terms(self.terms + other.terms)

    def __radd__(self, start):  # sum() starts from 0
        assert start == 0
        return self

    def __mod__(self, p):
        return self


class _Operand:
    def __init__(self, k, log):
        self.k, self.log = k, log

    def __mul__(self, other):
        self.log.append((self.k, other.k))
        return _Terms([(self.k, other.k)])


@pytest.mark.parametrize("poset", [
    Poset.from_covers(["a"], []),
    Poset.from_covers(["a", "b", "c"], []),
    Poset.from_covers(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")]),
    Poset.from_covers(["0", "a", "b", "1"],
                      [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
], ids=["point", "antichain", "chain4", "diamond"])
def test_flat_kernel_holds_exactly_the_traced_terms(poset):
    for field in (PrimeField(3), QQ):
        alg = IncidenceAlgebra(poset, field)
        log = []
        a = tuple(_Operand(k, log) for k in range(alg.npairs))
        b = tuple(_Operand(k, log) for k in range(alg.npairs))
        entries = alg._product(a, b)
        assert [e.terms for e in entries] == [list(t) for t in alg.conv]
        assert log == [ij for terms in alg.conv for ij in terms]
        kernel, calls = alg._product, []
        alg._product = lambda a, b: calls.append(1) or kernel(a, b)
        alg.zeta() * alg.zeta()
        assert len(calls) == 1


# DElem.__mul__ multiplies in the idealization kernel, not through the traced
# IncFn.__mul__: one D-product is one kernel call, whose ring entry k
# multiplies exactly conv[k]'s terms on (f, g) and whose bimodule entry k
# multiplies them on (f, n) and then on (m, g).  The tracer's IncFn counts
# (calls, fia.mul.terms) therefore do not see the work inside D-products.
@pytest.mark.parametrize("field", [PrimeField(3), QQ], ids=["F3", "Q"])
def test_delem_product_is_one_kernel_call_on_conv(monkeypatch, field):
    poset = Poset.from_covers(["0", "a", "b", "1"],
                              [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    alg = IncidenceAlgebra(poset, field)
    log = []
    f, m, g, n = (tuple(_Operand((name, k), log) for k in range(alg.npairs))
                  for name in "fmgn")
    ring, bimodule = alg._dproduct(f, m, g, n)
    assert [e.terms for e in ring] == [
        [(("f", i), ("g", j)) for i, j in terms] for terms in alg.conv]
    assert [e.terms for e in bimodule] == [
        [(("f", i), ("n", j)) for i, j in terms]
        + [(("m", i), ("g", j)) for i, j in terms] for terms in alg.conv]
    assert log == [t for e in ring + bimodule for t in e.terms]

    mul_calls, kernel_calls = [], []
    product, kernel = IncFn.__mul__, alg._dproduct

    def counted(self, other):
        mul_calls.append(1)
        return product(self, other)

    monkeypatch.setattr(IncFn, "__mul__", counted)
    alg._dproduct = lambda *ops: kernel_calls.append(1) or kernel(*ops)
    zero = alg.zero()
    f, g, m = alg.zeta(), alg.delta() + alg.e("0", "a"), alg.e("a", "1")
    for left, right in ((DElem(zero, m), DElem(g, zero)),
                        (DElem(f, zero), DElem(g, zero)),
                        (DElem(f, m), DElem(zero, g)),
                        (DElem(f, m), DElem(g, m))):
        mul_calls.clear()
        kernel_calls.clear()
        left * right
        assert (len(mul_calls), len(kernel_calls)) == (0, 1)
