"""The stored form of incidence data: integer numerators over one positive
denominator in lowest terms (``IncFn.num``/``den``, ``ColumnMap.nums``/
``dens``), against the ``Fraction``-valued arithmetic it replaced.

The reference classes below keep that arithmetic verbatim: values are
tuples of field elements, a Q product lifts each operand to numerators over
the lcm of its denominators and wraps every entry in ``Fraction(s, d)``, and
the inverse runs field operations entry by entry.  (The only edits: the
classes are renamed, and the inverse's interval order, once an algebra
attribute, is computed by ``_by_interval``.)  Every operation of the stored
form must give the reference's values, on every fixture over Q, on the
large, mixed-sign and mixed-denominator operands of ``test_fia_kernel``, and
on Hypothesis-drawn ones; and after every operation the stored form must be
canonical, so that equal values compare and hash equal however they were
reached.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from incalg.errors import ContextMismatch, NotAUnit
from incalg.fia import IncFn, IncidenceAlgebra, _fn, _over_one
from incalg.fields import QQ, PrimeField
from incalg.idealization import (
    DElem, DLinearMap, _split, central_pair, d_one, random_d_unit,
)
from incalg.involutions import InvolutionSpec
from incalg.morphisms import FiaMorphism, FiLinearMap, find_non_inner_cocycle

from conftest import chain
from test_fia_kernel import EDGE, FIXTURES, _poset, _q_operands


# -- reference: the Fraction-valued arithmetic, verbatim ---------------------


def _numerators(vals):
    """A common denominator d of rational vals (the lcm of theirs, 1 for no
    vals) and the integer numerators v * d."""
    d = lcm(*[v.denominator for v in vals])
    return d, [v.numerator * (d // v.denominator) for v in vals]


def _check_context(a, b):
    if a.alg is not b.alg and a.alg != b.alg:
        raise ContextMismatch("operands over different posets or fields")


def _by_interval(alg):
    # pair indices ordered by interval size, for back-substitution
    return sorted(range(alg.npairs), key=lambda k: len(alg.conv[k]))


def ref_rank_one(alg, u, k, v):
    """The values of u e_k v, for value tuples u and v and the basis
    element e_k = e_ab at pair index k: entry (x, y) is u(x, a) v(b, y)
    for x <= a and b <= y, and zero elsewhere."""
    mul = alg.field.mul
    vals = [alg.field.zero] * alg.npairs
    for t, i, j in alg.rank_one_terms[k]:
        vals[t] = mul(u[i], v[j])
    return vals


class RefIncFn:
    """An incidence function: dense values over the comparable-pair basis."""

    __slots__ = ("alg", "vals")

    def __init__(self, alg, vals):
        self.alg = alg
        self.vals = vals

    def __add__(self, other):
        _check_context(self, other)
        add = self.alg.field.add
        return RefIncFn(self.alg, tuple(map(add, self.vals, other.vals)))

    def __sub__(self, other):
        _check_context(self, other)
        f = self.alg.field
        return RefIncFn(self.alg, tuple(
            f.sub(a, b) for a, b in zip(self.vals, other.vals)))

    def __neg__(self):
        neg = self.alg.field.neg
        return RefIncFn(self.alg, tuple(map(neg, self.vals)))

    def scale(self, k):
        mul = self.alg.field.mul
        return RefIncFn(self.alg, tuple(mul(k, v) for v in self.vals))

    def __mul__(self, other):
        _check_context(self, other)
        alg = self.alg
        if alg.field.modulus is not None:
            return RefIncFn(alg, alg._product(self.vals, other.vals))
        (da, a), (db, b) = _numerators(self.vals), _numerators(other.vals)
        d = da * db
        return RefIncFn(alg, tuple([Fraction(s, d)
                                    for s in alg._product(a, b)]))

    def is_unit(self):
        zero = self.alg.field.zero
        return all(self.vals[k] != zero for k in self.alg._diag)

    def inverse(self):
        """Two-sided inverse by back-substitution along interval containment."""
        alg, f = self.alg, self.alg.field
        vals = self.vals
        for k in alg._diag:
            if vals[k] == f.zero:
                x = alg.pairs[k][0]
                raise NotAUnit(f"zero diagonal at {x!r}", x)
        inv = [None] * alg.npairs
        for k in _by_interval(alg):
            x, y = alg.pairs[k]
            dx = f.inv(vals[alg.pair_index[(x, x)]])
            if x == y:
                inv[k] = dx
                continue
            acc = f.zero
            for i, j in alg.conv[k]:
                if alg.pairs[i] == (x, x):
                    continue
                acc = f.add(acc, f.mul(vals[i], inv[j]))
            inv[k] = f.neg(f.mul(dx, acc))
        return RefIncFn(alg, tuple(inv))


class RefDElem:
    """An element [f; i] of the idealization ring."""

    __slots__ = ("f", "i")

    def __init__(self, f, i):
        self.f = f
        self.i = i

    @property
    def alg(self):
        return self.f.alg

    def __mul__(self, other):
        _check_context(self, other)
        alg = self.f.alg
        if alg.field.modulus is not None:
            ring, bimodule = alg._dproduct(self.f.vals, self.i.vals,
                                           other.f.vals, other.i.vals)
            return RefDElem(RefIncFn(alg, ring), RefIncFn(alg, bimodule))
        n = alg.npairs
        da, left = _numerators(self.f.vals + self.i.vals)
        db, right = _numerators(other.f.vals + other.i.vals)
        d = da * db
        ring, bimodule = alg._dproduct(left[:n], left[n:], right[:n], right[n:])
        return RefDElem(RefIncFn(alg, tuple([Fraction(s, d) for s in ring])),
                        RefIncFn(alg, tuple([Fraction(s, d) for s in bimodule])))


class RefColumnMap:
    """A K-linear endomorphism stored column-wise: ``cols[j]`` is the
    coordinate vector of the image of basis vector j."""

    __slots__ = ("alg", "cols")

    def __init__(self, alg, cols):
        self.alg = alg
        self.cols = tuple(tuple(c) for c in cols)

    def image(self, vec):
        """The coordinate vector of the image of ``vec``."""
        field = self.alg.field
        zero = field.zero
        acc = [zero] * len(self.cols)
        for c, col in zip(vec, self.cols):
            if c == zero:
                continue
            for r, v in enumerate(col):
                acc[r] += c * v
        p = field.modulus
        if p is not None:
            return tuple(v % p for v in acc)
        return tuple(acc)

    def compose(self, other):
        """self after other."""
        if other.alg != self.alg:
            raise ContextMismatch("maps over different contexts")
        return type(self)(self.alg, [self.image(col) for col in other.cols])

    def __eq__(self, other):
        return (type(other) is type(self) and self.alg == other.alg
                and self.cols == other.cols)


# -- the canonical form ------------------------------------------------------


def assert_canonical(x):
    """den > 0 and gcd(den, *num) == 1 over Q; den == 1 and residues in
    [0, p) over F_p; ``vals`` are Fractions over Q."""
    if isinstance(x, DElem):
        assert_canonical(x.f)
        assert_canonical(x.i)
        return
    p = x.alg.field.modulus
    vecs = (zip(x.nums, x.dens) if isinstance(x, (FiLinearMap, DLinearMap))
            else [(x.num, x.den)])
    for num, den in vecs:
        assert type(num) is tuple and all(type(v) is int for v in num)
        if p is None:
            assert den > 0 and gcd(den, *num) == 1
        else:
            assert den == 1 and all(0 <= v < p for v in num)
    if p is None:
        vals = x.vals if isinstance(x, IncFn) else sum(x.cols, ())
        assert all(type(v) is Fraction for v in vals)


def ref(f):
    return RefIncFn(f.alg, f.vals)


def dref(d):
    return RefDElem(ref(d.f), ref(d.i))


def check_d_rank_one(alg, k, left, right):
    """The doubled form of ``rank_one`` against ``ref_rank_one``, with the
    middle factor scaled by s: [u; m][s e_k; 0][v; n] = s [u e_k v;
    m e_k v + u e_k n]."""
    field = alg.field
    a, c, da = _over_one(left.f, left.i)
    b, d, db = _over_one(right.f, right.i)
    u, m, v, w = left.f.vals, left.i.vals, right.f.vals, right.i.vals
    ring = ref_rank_one(alg, u, k, v)
    bimodule = list(map(field.add, ref_rank_one(alg, m, k, v),
                        ref_rank_one(alg, u, k, w)))
    for s in (1, -3):
        num = alg.rank_one(k, a, b, c, d, s=s)
        got = _split(alg, *alg._normal(num, da * db))
        scale = field(s)
        assert got.f.vals == tuple(field.mul(scale, x) for x in ring)
        assert got.i.vals == tuple(field.mul(scale, x) for x in bimodule)


def check_operations(alg, operands, rng):
    """Every stored-form operation against the reference on all pairs of
    operands, each result canonical."""
    field = alg.field
    scalars = [field.one, field.neg(field.one), Fraction(-7, 12),
               Fraction(10**13 + 1, 3), field.zero]
    for f in operands:
        assert_canonical(f)
        assert IncFn(alg, f.vals) == f and hash(IncFn(alg, f.vals)) == hash(f)
        for got, want in ((-f, -ref(f)),) + tuple(
                (f.scale(k), ref(f).scale(k)) for k in scalars):
            assert_canonical(got)
            assert got.vals == want.vals
        if f.is_unit():
            got, want = f.inverse(), ref(f).inverse()
            assert_canonical(got)
            assert got.vals == want.vals
        else:
            assert not ref(f).is_unit()
            with pytest.raises(NotAUnit):
                f.inverse()
        for g in operands:
            for got, want in ((f * g, ref(f) * ref(g)),
                              (f + g, ref(f) + ref(g)),
                              (f - g, ref(f) - ref(g))):
                assert_canonical(got)
                assert got.vals == want.vals
            k = rng.randrange(alg.npairs) if alg.npairs else None
            if k is not None:
                got = alg._make(alg.rank_one(k, f.num, g.num), f.den * g.den)
                assert_canonical(got)
                assert got.vals == tuple(ref_rank_one(alg, f.vals, k, g.vals))
                check_d_rank_one(alg, k, DElem(f, g), DElem(g, f))
    pairs = [DElem(f, g) for f in operands for g in operands[::3]]
    for left in pairs[::2]:
        for right in pairs[::3]:
            got, want = left * right, dref(left) * dref(right)
            assert_canonical(got)
            assert (got.f.vals, got.i.vals) == (want.f.vals, want.i.vals)


@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_operations_match_fraction_reference(request, name):
    """Products, D-products, inverses, sums, differences, negation, scaling
    and rank-one products, on the large, mixed-sign and mixed-denominator
    operands and the zero, unity and zeta."""
    alg = IncidenceAlgebra(_poset(request, name), QQ)
    rng = random.Random(f"stored:{name}")
    operands = _q_operands(alg, rng) + [alg.random(rng) for _ in range(2)]
    check_operations(alg, operands, rng)


def _map_columns(field, rng, n, density):
    return [tuple(field.random(rng) if rng.random() < density else field.zero
                  for _ in range(n)) for _ in range(n)]


@pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=["F5", "Q"])
@pytest.mark.parametrize("name", FIXTURES + tuple(EDGE))
def test_column_maps_match_fraction_reference(request, name, field):
    """ColumnMap images, composition and equality, for FI and D maps."""
    alg = IncidenceAlgebra(_poset(request, name), field)
    rng = random.Random(f"maps:{name}:{field!r}")
    for cls, n in ((FiLinearMap, alg.npairs), (DLinearMap, 2 * alg.npairs)):
        maps = []
        for density in (0.0, 0.4, 1.0):
            cols = _map_columns(field, rng, n, density)
            if field is QQ and n:
                cols[0] = tuple(Fraction(1, 10**12 + 39) * v for v in cols[0])
            maps.append((cls(alg, cols), RefColumnMap(alg, cols)))
        maps.append((cls.identity(alg), RefColumnMap(alg, cls.identity(alg).cols)))
        for a, ra in maps:
            assert_canonical(a)
            assert a.cols == ra.cols
            for density in (0.0, 0.3, 1.0):
                vec = _map_columns(field, rng, n, density)[0] if n else ()
                assert a.image(vec) == ra.image(vec)
            for b, rb in maps:
                ab = a.compose(b)
                assert_canonical(ab)
                assert ab.cols == ra.compose(rb).cols
                assert (a == b) == (ra == rb)


def test_equal_values_hash_equal():
    """Values reached by different routes are stored alike: Fraction(2, 4)
    and 1/2, integer-valued entries from products with denominators, a unit
    times its inverse and the unity, and maps built from equal columns."""
    alg = IncidenceAlgebra(chain(3), QQ)
    n = alg.npairs
    half = IncFn(alg, (Fraction(1, 2),) * n)
    routes = [IncFn(alg, (Fraction(2, 4),) * n),
              alg.zeta().scale(Fraction(1, 2)),
              alg.zeta().scale(Fraction(3, 2)) - alg.zeta(),
              IncFn(alg, (Fraction(1, 3),) * n) + IncFn(alg, (Fraction(1, 6),) * n),
              IncFn(alg, (Fraction(-1, -2),) * n)]
    for f in routes:
        assert f == half and hash(f) == hash(half)
        assert (f.num, f.den) == ((1,) * n, 2)
    whole = IncFn(alg, (Fraction(3, 1),) * n)
    for f in (half.scale(6), half + half.scale(5), IncFn(alg, (3,) * n)):
        assert f == whole and hash(f) == hash(whole) and f.den == 1
    rng = random.Random(4)
    delta = alg.delta()
    for f in _q_operands(alg, rng):
        if f.is_unit():
            for one in (f * f.inverse(), f.inverse() * f):
                assert one == delta and hash(one) == hash(delta)
                assert (one.num, one.den) == (delta.num, 1)
    d = DElem(half, whole)
    assert hash(DElem(routes[1], IncFn(alg, (3,) * n))) == hash(d)
    cols = [half.vals] * n
    m = FiLinearMap(alg, cols)
    twin = FiLinearMap(alg, [routes[0].vals] * n)
    assert m == twin and hash(m) == hash(twin)


def test_prime_field_form_is_the_residues():
    """Over F_p the stored numerators are the values and den is 1."""
    for p in (2, 3, 5):
        alg = IncidenceAlgebra(chain(3), PrimeField(p))
        rng = random.Random(p)
        f, g = alg.random_unit(rng), alg.random(rng)
        outer = tuple(alg.rank_one(1, f.num, g.num))
        assert outer == tuple(ref_rank_one(alg, f.vals, 1, g.vals))
        for h in (f, g, f * g, f + g, f - g, -g, g.scale(p - 1), f.inverse(),
                  _fn(alg, outer), alg.delta(), alg.zeta()):
            assert_canonical(h)
            assert h.vals is h.num and h.den == 1


def rationals(max_den=10**6):
    return st.fractions(min_value=-10**6, max_value=10**6,
                        max_denominator=max_den)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_drawn_operands_match_fraction_reference(data):
    """Hypothesis-drawn operands on two chains and a disconnected poset."""
    poset = data.draw(st.sampled_from([chain(2), chain(3), EDGE["two-components"]]))
    alg = IncidenceAlgebra(poset, QQ)
    n = alg.npairs
    vectors = st.lists(rationals(), min_size=n, max_size=n).map(tuple)
    operands = [IncFn(alg, data.draw(vectors)) for _ in range(3)]
    check_operations(alg, operands + [alg.delta()], random.Random(n))


# -- reference: the element-level column writers -----------------------------


def ref_element_rank_one(alg, u, k, v):
    """u e_k v, for elements u and v and the basis element e_k = e_ab
    at pair index k: entry (x, y) is u(x, a) v(b, y) for x <= a and
    b <= y, and zero elsewhere.  (The element-level ``rank_one`` the two
    column writers below were built on.)"""
    a, b, p = u.num, v.num, alg.field.modulus
    num = [0] * alg.npairs
    if p is None:
        for t, i, j in alg.rank_one_terms[k]:
            num[t] = a[i] * b[j]
        return alg._reduced(tuple(num), u.den * v.den)
    for t, i, j in alg.rank_one_terms[k]:
        num[t] = a[i] * b[j] % p
    return _fn(alg, tuple(num))


def ref_involution_to_linear(spec):
    """``InvolutionSpec.to_linear`` on elements: each column a ``DElem`` of
    rank-one products, its stored form read by ``_vector``."""
    alg = spec.alg
    f, m = spec.theta.f, spec.theta.i
    f_inv, m_inv = spec._theta_inv.f, spec._theta_inv.i
    zero = alg.zero()
    ring, bimodule = [], []
    for t in spec._perm:
        outer = ref_element_rank_one(alg, f, t, f_inv)
        ring.append(DElem(outer, ref_element_rank_one(alg, m, t, f_inv)
                          + ref_element_rank_one(alg, f, t, m_inv))._vector())
        bimodule.append(DElem(zero, -outer if spec._negates
                              else outer)._vector())
    return DLinearMap._of(alg, ring + bimodule)


def ref_morphism_to_linear(m):
    """``FiaMorphism.to_linear`` on elements: each column a scaled
    rank-one product."""
    alg = m.alg
    sigma, pairs, one = m.sigma, alg.pairs, alg.field.one
    cols = []
    for t in m.posetmap.inverse().pair_permutation():
        col, s = ref_element_rank_one(alg, m.u, t, m.u_inv), sigma.get(pairs[t], one)
        cols.append((col if s == one else col.scale(s))._vector())
    return FiLinearMap._of(alg, cols)


WRITER_FIELDS = (PrimeField(3), PrimeField(5), QQ)


@pytest.mark.parametrize("field", WRITER_FIELDS, ids=["F3", "F5", "Q"])
@pytest.mark.parametrize("name", FIXTURES)
def test_involution_columns_match_element_reference(request, name, field):
    """``InvolutionSpec.to_linear`` writes the reference's numerators and
    denominators exactly, for every poset involution, both signs and a
    run of random conjugators, central scalings among them."""
    poset = _poset(request, name)
    alg = IncidenceAlgebra(poset, field)
    rng = random.Random(f"involution-columns:{name}:{field!r}")
    checked = 0
    for lam in poset.involutions():
        for k in (1, -1):
            spec = InvolutionSpec(alg, d_one(alg), lam, k)
            for step in range(4):
                u = random_d_unit(alg, rng)
                theta = u * spec.theta * spec.base_apply(u)
                if step == 2:
                    theta = central_pair(alg, field.random_nonzero(rng),
                                         field.random(rng)) * theta
                spec = InvolutionSpec(alg, theta, lam, k)
                got, want = spec.to_linear(), ref_involution_to_linear(spec)
                assert (got.nums, got.dens) == (want.nums, want.dens)
                assert_canonical(got)
                checked += 1
    assert checked or name in ("vee", "wedge")


@pytest.mark.parametrize("field", WRITER_FIELDS, ids=["F3", "F5", "Q"])
@pytest.mark.parametrize("name", FIXTURES)
def test_morphism_columns_match_element_reference(request, name, field):
    """``FiaMorphism.to_linear`` writes the reference's numerators and
    denominators exactly, for every automorphism and anti-automorphism,
    a random unit, and the trivial cocycle, coboundaries and (where the
    poset has one) a non-inner cocycle times a coboundary."""
    poset = _poset(request, name)
    alg = IncidenceAlgebra(poset, field)
    rng = random.Random(f"morphism-columns:{name}:{field!r}")
    non_inner = find_non_inner_cocycle(alg) or {}
    maps = poset.automorphisms() + poset.anti_automorphisms()
    for mu in maps:
        for step in range(3):
            eta = {x: field.random_nonzero(rng) for x in poset.elements}
            sigma = None if step == 0 else {
                (x, y): field.mul(field.div(eta[x], eta[y]),
                                  field(non_inner.get((x, y), 1)) if step == 2
                                  else field.one)
                for x, y in poset.strict_pairs}
            m = FiaMorphism(alg, u=alg.random_unit(rng), sigma=sigma,
                            posetmap=mu)
            got, want = m.to_linear(), ref_morphism_to_linear(m)
            assert (got.nums, got.dens) == (want.nums, want.dens)
            assert_canonical(got)
    assert {mu.anti for mu in maps} == (
        {False} if name in ("vee", "wedge") else {False, True})


# -- reference: FiaMorphism.apply on elements ---------------------------------


def ref_morphism_apply(m, f):
    """``FiaMorphism.apply`` on elements: the relabel, the entrywise
    scaling and the two products, each an IncFn."""
    if f.alg != m.alg:
        raise ContextMismatch("morphism and argument over different contexts")
    moved = m._scale.entrywise(f.permuted(m._perm))
    return m.u * moved * m.u_inv


@pytest.mark.parametrize("field", WRITER_FIELDS, ids=["F3", "F5", "Q"])
@pytest.mark.parametrize("name", FIXTURES)
def test_morphism_apply_matches_element_reference(request, name, field):
    """``FiaMorphism.apply`` runs on the stored form and gives the
    reference's numerators and denominators exactly: inner maps, the plain
    relabel by every automorphism and anti-automorphism, and each of those
    with a random unit and a cocycle sigma that is not identically one,
    applied to random elements (over Q also large and mixed-denominator
    ones)."""
    poset = _poset(request, name)
    alg = IncidenceAlgebra(poset, field)
    rng = random.Random(f"morphism-apply:{name}:{field!r}")
    maps = [FiaMorphism.inner(alg, alg.random_unit(rng)) for _ in range(2)]
    for mu in poset.automorphisms() + poset.anti_automorphisms():
        maps.append(FiaMorphism.induced(alg, mu))
        sigma = {}
        while poset.strict_pairs and all(v == 1 for v in sigma.values()):
            eta = {x: field.random_nonzero(rng) for x in poset.elements}
            sigma = {(x, y): field.div(eta[x], eta[y])
                     for x, y in poset.strict_pairs}
        maps.append(FiaMorphism(alg, u=alg.random_unit(rng), sigma=sigma,
                                posetmap=mu))
    assert any(m.anti for m in maps) == (name not in ("vee", "wedge"))
    operands = [alg.random(rng) for _ in range(3)] + [alg.zero(), alg.delta()]
    if field.modulus is None:
        operands += _q_operands(alg, rng)
    for m in maps:
        for f in operands:
            got, want = m.apply(f), ref_morphism_apply(m, f)
            assert (got.num, got.den) == (want.num, want.den)
            assert_canonical(got)
    other = IncidenceAlgebra(poset, PrimeField(7)).zero()
    for m in maps[:1] + maps[-1:]:
        with pytest.raises(ContextMismatch):
            m.apply(other)
