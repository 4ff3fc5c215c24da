"""The compiled convolution kernel of ``IncFn.__mul__``, the compiled
idealization kernel of ``DElem.__mul__`` and the term lists ``conv`` both
are compiled from.

The reference below is the textbook triple loop over x, y and the points z
of the interval [x, y], kept verbatim; the kernel must agree with it on
random and zero operands over F2, F3, F5 and Q, on every fixture poset and
on the edge shapes (one point, an antichain, two components, no points).
Over Q the kernel runs on integer numerators, so it is also held to the
reference on operands whose denominators are large or differ entry by
entry.  The idealization kernel is held to [fg; fn + mg] formed from the
same reference, on the same shapes and fields and on every pattern of zero
coordinates.  Both kernels are compiled from generated source, so they are
also held to the reference on an interval of 3,002 terms (a chain of ``+``
that long overflows CPython's compiler; the bimodule entry has 6,004) and
on labels that would break or inject code if they reached the source.  The
basis products that ``conv`` implies (e_i e_j = e_k for each term (i, j) of
conv[k], zero otherwise) must agree with the products themselves.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import DElem, d_basis
from incalg.posets import Poset

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), QQ)
FIXTURES = ("chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond")
EDGE = {
    "point": Poset.from_covers(["a"], []),
    "antichain": Poset.from_covers(["a", "b", "c"], []),
    "two-components": Poset.from_covers(["a", "b", "c", "d", "e"],
                                        [("a", "b"), ("c", "d"), ("c", "e")]),
    "empty": Poset([], []),
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


def ref_dproduct(left, right):
    """[f; m][g; n] = [fg; fn + mg], each product by ``ref_convolution``."""
    f, m, g, n = left.f, left.i, right.f, right.i
    fn, mg = ref_convolution(f, n), ref_convolution(m, g)
    add = f.alg.field.add
    return DElem(ref_convolution(f, g),
                 IncFn(f.alg, tuple(map(add, fn.vals, mg.vals))))


def ref_generators(alg):
    """The point idempotents e_xx and the cover elements e_xy (x covered
    by y): every basis element is a product of covers along a maximal
    chain, so these generate the algebra."""
    covers = set(alg.poset.covers)
    return [alg.e(x, y) for x, y in alg.pairs
            if x == y or (x, y) in covers]


def ref_d_generators(alg):
    """Ring generators of the idealization: [g; 0] for each of
    ``ref_generators``, then [0; e_xx] for each point, since [0; e_xy] =
    [e_xy; 0][0; e_yy]."""
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


# -- the generated source: long intervals, hostile labels --------------------


@pytest.fixture(scope="module")
def suspended_antichain():
    """0 < a1, ..., a3000 < 1: 9,003 pairs, and entry (0, 1) has 3,002
    terms.  The order is given as its up-set bitsets: "0" is below
    everything, each a_k below itself and "1", and "1" below itself; the
    closure of the covers is tested elsewhere."""
    n = 3002
    elements = ["0"] + [f"a{k}" for k in range(1, n - 1)] + ["1"]
    top = 1 << n - 1
    return Poset(elements, [(1 << n) - 1]
                 + [1 << k | top for k in range(1, n - 1)] + [top])


@pytest.mark.parametrize("field", (PrimeField(3), QQ),
                         ids=lambda f: getattr(f, "name", "Q"))
def test_kernel_on_a_long_interval(suspended_antichain, field):
    alg = IncidenceAlgebra(suspended_antichain, field)
    assert alg.npairs == 9003
    assert len(alg.conv[alg.pair_index[("0", "1")]]) == 3002
    rng = random.Random(f"long:{field!r}")
    f, g = alg.random(rng), alg.random(rng)
    fg = ref_convolution(f, g)
    assert f * g == fg
    # [f; 2f][g; 2g] = [fg; 4fg]: one reference product checks the D kernel,
    # whose bimodule entry (0, 1) sums 6,004 terms
    two = field(2)
    assert DElem(f, f.scale(two)) * DElem(g, g.scale(two)) == DElem(
        fg, fg.scale(field(4)))


HOSTILE = ['"); import os #', "it's", 'say "hi"', "line\nbreak", "back\\slash",
           "a0*b0", "{0}", "ünïcødé λ ≤ ∑", ""]


def test_kernel_is_blind_to_labels():
    """Poset labels never reach the generated source: a poset labelled with
    quotes, newlines, code and non-ASCII text multiplies as the reference
    does, and compiles to the same code as the same order labelled p0, p1,
    ...."""
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6),
              (6, 7), (7, 8)]
    hostile = Poset.from_covers(
        HOSTILE, [(HOSTILE[i], HOSTILE[j]) for i, j in covers])
    plain = Poset.from_covers(
        [f"p{k}" for k in range(len(HOSTILE))],
        [(f"p{i}", f"p{j}") for i, j in covers])
    for field in FIELDS:
        alg = IncidenceAlgebra(hostile, field)
        rng = random.Random(f"labels:{field!r}")
        operands = [alg.random(rng) for _ in range(3)]
        operands += [alg.zero(), alg.delta(), alg.zeta()]
        for f in operands:
            for g in operands:
                assert f * g == ref_convolution(f, g)
        pairs = [DElem(f, g) for f in operands for g in operands[::2]]
        for left in pairs:
            for right in pairs[::3]:
                assert left * right == ref_dproduct(left, right)
        twin = IncidenceAlgebra(plain, field)
        for kernel in ("_product", "_dproduct"):
            code = getattr(alg, kernel).__code__
            other = getattr(twin, kernel).__code__
            assert (code.co_code, code.co_consts, code.co_varnames) == (
                other.co_code, other.co_consts, other.co_varnames)
            assert code.co_filename == "<incalg product kernel>"


def test_kernels_die_with_their_algebra(diamond):
    """No reference cycle keeps a compiled kernel alive: with the cycle
    collector off, both kernels are freed as soon as their algebra is."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for field in (PrimeField(3), QQ):
            alg = IncidenceAlgebra(diamond, field)
            refs = [weakref.ref(alg._product), weakref.ref(alg._dproduct)]
            del alg
            assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


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


# -- the idealization kernel -------------------------------------------------


def _zero_patterns(alg, f, m, g, n):
    """[f; m], [g; n] with each of the four coordinates kept or zeroed:
    all 16 patterns."""
    zero = alg.zero()
    for mask in range(16):
        pick = [zero if mask >> bit & 1 else v
                for bit, v in enumerate((f, m, g, n))]
        yield DElem(pick[0], pick[1]), DElem(pick[2], pick[3])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: getattr(f, "name", "Q"))
@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_d_kernel_matches_textbook_convolution(request, name, field):
    """Random pairs, the unity and zeta, every pattern of zero coordinates
    and, over Q, large, mixed-sign and mixed-denominator coordinates: the
    D kernel gives [fg; fn + mg] of the reference convolution, and over Q
    holds only Fractions."""
    alg = IncidenceAlgebra(_poset(request, name), field)
    rng = random.Random(f"d:{name}:{field!r}")
    coords = [alg.random(rng) for _ in range(4)]
    if field is QQ:
        coords += _q_operands(alg, rng)[:4]
    coords += [alg.delta(), alg.zeta()]
    pairs = [DElem(coords[k], coords[-1 - k]) for k in range(len(coords))]
    cases = [(left, right) for left in pairs for right in pairs]
    cases += list(_zero_patterns(alg, *coords[:4]))
    cases += list(_zero_patterns(alg, *coords[-4:]))
    for left, right in cases:
        got = left * right
        assert got == ref_dproduct(left, right)
        if field is QQ:
            assert all(type(v) is Fraction for v in got.f.vals + got.i.vals)


# -- basis products -------------------------------------------------------


@pytest.mark.parametrize("field", (PrimeField(3), QQ),
                         ids=lambda f: getattr(f, "name", "Q"))
@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_basis_product_table(request, name, field):
    alg = IncidenceAlgebra(_poset(request, name), field)
    basis = [alg.e(x, y) for x, y in alg.pairs]
    table = {ij: k for k, terms in enumerate(alg.conv) for ij in terms}
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            k = table.get((i, j))
            assert ei * ej == (alg.zero() if k is None else basis[k])


@pytest.mark.parametrize("field", (PrimeField(3), QQ),
                         ids=lambda f: getattr(f, "name", "Q"))
@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_d_basis_product_table(request, name, field):
    """The product of two ``d_basis`` elements is a basis element or zero,
    and the generators of ``ref_d_generators`` are basis elements."""
    alg = IncidenceAlgebra(_poset(request, name), field)
    basis = d_basis(alg)
    zero = DElem(alg.zero(), alg.zero())
    allowed = set(basis) | {zero}
    for bs in basis:
        for bt in basis:
            assert bs * bt in allowed
    assert set(ref_d_generators(alg)) <= set(basis)
