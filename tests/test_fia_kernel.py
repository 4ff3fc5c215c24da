"""The flat convolution kernel of ``IncFn.__mul__`` and the basis-product
lookup that replaces basis-times-basis products.

The reference below is the textbook triple loop over x, y and the points z
of the interval [x, y], kept verbatim; the kernel must agree with it on
random and zero operands over F2, F3, F5 and Q, on every fixture poset and
on the edge shapes (one point, an antichain, two components, no points).
Over Q the kernel runs on integer numerators, so it is also held to the
reference on operands whose denominators are large or differ entry by
entry.  The lookup
table must agree with the products it stands for.
"""

import random
from fractions import Fraction

import pytest

from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import DElem, d_basis, d_generators
from incalg.posets import Poset

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), QQ)
FIXTURES = ("chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond")
EDGE = {
    "point": Poset.from_covers(["a"], []),
    "antichain": Poset.from_covers(["a", "b", "c"], []),
    "two-components": Poset.from_covers(["a", "b", "c", "d", "e"],
                                        [("a", "b"), ("c", "d"), ("c", "e")]),
}


def _poset(request, name):
    return EDGE[name] if name in EDGE else request.getfixturevalue(name)


# -- reference: the textbook convolution, verbatim ---------------------------


def ref_convolution(f, g):
    alg = f.alg
    field = alg.field
    poset = alg.poset
    out = {}
    for x in poset.elements:
        for y in poset.elements:
            if not poset.leq(x, y):
                continue
            acc = field.zero
            for z in poset.elements:
                if poset.leq(x, z) and poset.leq(z, y):
                    acc = field.add(acc, field.mul(f[x, z], g[z, y]))
            out[(x, y)] = acc
    return alg.element(out)


def ref_generators(alg):
    covers = set(alg.poset.covers)
    return [alg.e(x, y) for x, y in alg.pairs
            if x == y or (x, y) in covers]


def ref_d_generators(alg):
    out = [DElem(g, alg.zero()) for g in ref_generators(alg)]
    for x, y in alg.pairs:
        if x == y:
            out.append(DElem(alg.zero(), alg.e(x, x)))
    return out


# -- the kernel --------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: getattr(f, "name", "Q"))
@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_kernel_matches_textbook_convolution(request, name, field):
    alg = IncidenceAlgebra(_poset(request, name), field)
    rng = random.Random(f"{name}:{field!r}")
    operands = [alg.random(rng) for _ in range(4)]
    operands += [alg.zero(), alg.delta(), alg.zeta()]
    for f in operands:
        for g in operands:
            got = f * g
            assert got == ref_convolution(f, g)
            if field is QQ:
                assert all(type(v) is Fraction for v in got.vals)


def test_kernel_on_empty_poset():
    for field in (PrimeField(3), QQ):  # over Q: the lcm of no denominators
        alg = IncidenceAlgebra(Poset([], []), field)
        assert (alg.zero() * alg.zero()).vals == ()


# -- the Q kernel: integer numerators over a common denominator --------------


def _huge(rng):
    """A signed rational with a denominator of 10**12 or more."""
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10**15),
                    rng.randrange(10**12, 10**14))


def _q_operands(alg, rng):
    n = alg.npairs
    huge = IncFn(alg, tuple(_huge(rng) for _ in range(n)))
    mixed = IncFn(alg, tuple(
        Fraction(rng.randrange(-30, 31), rng.choice((1, 2, 3, 7, 12, 10**12 + 39)))
        for _ in range(n)))
    sparse = IncFn(alg, tuple(
        _huge(rng) if rng.random() < 0.4 else Fraction(0) for _ in range(n)))
    return [huge, -huge, mixed, sparse, alg.zero(), alg.delta(), alg.zeta()]


@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_q_kernel_matches_fraction_arithmetic(request, name):
    """Large, mixed-sign and mixed-denominator operands, zero entries, and
    the zero, unity and zeta: every product equals the textbook Fraction
    convolution and holds only Fractions, and a unit times its inverse is
    the unity on both sides."""
    alg = IncidenceAlgebra(_poset(request, name), QQ)
    rng = random.Random(f"q:{name}")
    operands = _q_operands(alg, rng)
    for f in operands:
        for g in operands:
            got = f * g
            assert got == ref_convolution(f, g)
            assert all(type(v) is Fraction for v in got.vals)
    units = [f for f in operands if f.is_unit()]
    assert len(units) >= 4  # huge, -huge, the unity and zeta at least
    for f in units:
        inv = f.inverse()
        for product in (f * inv, inv * f):
            assert product == alg.delta()
            assert all(type(v) is Fraction for v in product.vals)


# -- the lookup tables -------------------------------------------------------


@pytest.mark.parametrize("field", (PrimeField(3), QQ),
                         ids=lambda f: getattr(f, "name", "Q"))
@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_basis_product_table(request, name, field):
    alg = IncidenceAlgebra(_poset(request, name), field)
    basis = [alg.e(x, y) for x, y in alg.pairs]
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            k = alg.basis_product.get((i, j))
            assert ei * ej == (alg.zero() if k is None else basis[k])
    assert ([basis[k] for k in alg.generator_indices()] == alg.generators()
            == ref_generators(alg))


@pytest.mark.parametrize("field", (PrimeField(3), QQ),
                         ids=lambda f: getattr(f, "name", "Q"))
@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_d_basis_product_table(request, name, field):
    """The product of two ``d_basis`` elements is a basis element or zero,
    which the generator lemma in ``d_generators`` relies on, and the
    generators are the ones it names."""
    alg = IncidenceAlgebra(_poset(request, name), field)
    basis = d_basis(alg)
    zero = DElem(alg.zero(), alg.zero())
    allowed = set(basis) | {zero}
    for bs in basis:
        for bt in basis:
            assert bs * bt in allowed
    assert d_generators(alg) == ref_d_generators(alg)
