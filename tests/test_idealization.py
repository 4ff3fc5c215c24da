import itertools
import random
import re

import pytest

from incalg.derivations import DerivationSpec
from incalg.errors import (
    ContextMismatch, IncalgError, NotAMorphism, NotAUnit, ParseError,
)
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import (
    CrossAntiMap, DElem, DLinearMap, central_pair, d_anti_isomorphic,
    d_center_basis, d_from_json, d_one, factor_inner, inner_auto, lift_anti,
    lift_derivation, lift_morphism, random_d_unit, random_delem,
)
from incalg.involutions import (
    InvolutionSpec, equivalent_inner, symmetric_decompose,
)
from incalg.linalg import rref
from incalg.morphisms import FiaMorphism, FiLinearMap

from conftest import blocks, coords
from test_morphisms import random_morphism


class NotCentral(IncalgError):
    """A central element was required."""


def lift_central(alg, g):
    """[f; i] |-> [f; g i] for a central unit g."""
    if not (g.is_unit() and alg.is_central(g)):
        raise NotCentral("lift requires a central unit")
    return DLinearMap.from_function(alg, lambda d: DElem(d.f, g * d.i))


def lift_auto(m):
    """The block lift of an automorphism; an anti-automorphism is refused."""
    if m.anti:
        raise NotAMorphism("expected an automorphism")
    return lift_morphism(m)


def lift_scalar(alg, k):
    """The sign-style lift [f; i] |-> [f; k i]."""
    return lift_central(alg, alg.delta().scale(alg.field(k)))

F3 = PrimeField(3)
F5 = PrimeField(5)


def inverse_linear(m):
    """The inverse of an invertible column map, by row reduction of the
    matrix augmented with the identity."""
    field = m.alg.field
    n = len(m.cols)
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(zip(*m.cols))]
    red, pivots = rref(field, aug)
    assert pivots[:n] == list(range(n))
    return FiLinearMap(m.alg, [[row[n + j] for row in red[:n]]
                               for j in range(n)])


def test_unity_and_inverse_formulas(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    one = d_one(alg)
    rng = random.Random(0)
    for _ in range(10):
        d = random_delem(alg, rng)
        assert d * one == d and one * d == d
    i = alg.random(rng)
    assert DElem(alg.delta(), i).inverse() == DElem(alg.delta(), -i)


def test_worked_product_chain2_f3(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    e_a, e_b, e_ab = alg.e("a", "a"), alg.e("b", "b"), alg.e("a", "b")
    lhs = DElem(alg.delta() + e_ab, e_a) * DElem(alg.delta(), e_b)
    assert lhs == DElem(alg.delta() + e_ab, e_a + e_b + e_ab)


def test_ring_axioms_randomized(diamond):
    rng = random.Random(1)
    for field in (F3, QQ):
        alg = IncidenceAlgebra(diamond, field)
        for _ in range(30):
            a, b, c = (random_delem(alg, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


@pytest.mark.parametrize("field", (F3, QQ), ids=("F3", "Q"))
def test_product_matches_plain_formula_on_every_zero_pattern(diamond, field):
    """The product skips the coordinate products that vanish by structure;
    on each of the 16 zero/nonzero patterns of [f; m] and [g; n] it must
    still equal the plain [fg; fn + mg], with nonzero coordinates drawn both
    at random and as basis elements whose products vanish (e_a1 e_0a = 0)."""
    alg = IncidenceAlgebra(diamond, field)
    rng = random.Random(f"patterns:{field!r}")
    zero = alg.zero()

    def nonzero():
        while True:
            h = alg.random(rng)
            if any(h.vals):
                return h

    draws = [lambda: (nonzero(), nonzero(), nonzero(), nonzero()),
             lambda: (alg.e("a", "1"), alg.e("a", "1"),
                      alg.e("0", "a"), alg.e("0", "a"))]
    for pattern in itertools.product((False, True), repeat=4):
        for draw in draws:
            f, m, g, n = (c if on else zero for c, on in zip(draw(), pattern))
            got = DElem(f, m) * DElem(g, n)
            assert got == DElem(f * g, f * n + m * g), pattern
            assert {type(v) for v in coords(got)} <= {type(field.zero)}


def test_bimodule_coordinate_squares_to_zero(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    rng = random.Random(2)
    for _ in range(10):
        i = alg.random(rng)
        j = alg.random(rng)
        assert DElem(alg.zero(), i) * DElem(alg.zero(), j) == \
            DElem(alg.zero(), alg.zero())


def test_inverse_round_trip_and_not_a_unit(diamond):
    alg = IncidenceAlgebra(diamond, QQ)
    rng = random.Random(3)
    for _ in range(20):
        d = random_d_unit(alg, rng)
        assert d * d.inverse() == d_one(alg)
        assert d.inverse() * d == d_one(alg)
    bad = DElem(alg.e("0", "0"), alg.random(rng))
    assert not bad.is_unit()
    with pytest.raises(NotAUnit):
        bad.inverse()


def test_center_basis_sizes(diamond, two_chains, chain2):
    assert len(d_center_basis(IncidenceAlgebra(diamond, F3))) == 2
    assert len(d_center_basis(IncidenceAlgebra(two_chains, F3))) == 4
    alg = IncidenceAlgebra(chain2, F3)
    # quick commutant check against the basis span
    basis = d_center_basis(alg)
    rng = random.Random(4)
    for b in basis:
        for _ in range(10):
            d = random_delem(alg, rng)
            assert b * d == d * b
    spans = {central_pair(alg, k1, k2) for k1 in range(3) for k2 in range(3)}
    for c in spans:
        assert c.is_central()


def test_lift_identity_and_scalar(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    assert lift_auto(FiaMorphism(alg)) == DLinearMap.identity(alg)
    rng = random.Random(5)
    flip = lift_scalar(alg, 2)
    for _ in range(5):
        d = random_delem(alg, rng)
        assert flip.apply(d) == DElem(d.f, d.i.scale(2))
    with pytest.raises(NotCentral):
        lift_central(alg, alg.e("a", "a"))


def test_lift_inner_derivation_is_inner_in_big_ring(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    i = alg.e("a", "b")
    lifted = lift_derivation(alg, DerivationSpec(alg, inner=i))
    conj = inner_auto(DElem(alg.delta(), -i))
    assert lifted == conj


def test_scalar_lift_commutes_with_anti_lift(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    swap = chain2.involutions()[0]
    rho = lift_anti(FiaMorphism.induced(alg, swap))
    k = lift_scalar(alg, 2)
    assert rho.compose(k) == k.compose(rho)


def test_lift_composition_identities(diamond):
    rng = random.Random(6)
    alg = IncidenceAlgebra(diamond, F5)
    eta = random_morphism(alg, rng, anti=False)
    eta_mat = eta.to_linear()
    eta_inv = inverse_linear(eta_mat)
    from test_derivations import random_cocycle
    d = DerivationSpec(alg, inner=alg.random(rng), tau=random_cocycle(alg, rng))
    d_mat = d.to_linear()
    g = alg.delta().scale(3)

    lift_eta = lift_morphism(eta)
    lift_d = lift_derivation(alg, d_mat)
    lift_g = lift_central(alg, g)

    # conjugated derivation: eta-bar o D o eta^-1
    d_eta = eta_mat.compose(d_mat).compose(eta_inv)
    assert lift_eta.compose(lift_d) == lift_derivation(alg, d_eta).compose(lift_eta)
    # central scaling: g-tilde o D-tilde = (gD)-tilde o g-tilde
    gd = FiLinearMap.from_function(alg, lambda f: g * d_mat.apply(f))
    assert lift_g.compose(lift_d) == lift_derivation(alg, gd).compose(lift_g)
    # eta-tilde o g-tilde = eta(g)-tilde o eta-tilde
    assert lift_eta.compose(lift_g) == \
        lift_central(alg, eta.apply(g)).compose(lift_eta)


def test_anti_lift_twists_inner_derivations(diamond):
    rng = random.Random(7)
    alg = IncidenceAlgebra(diamond, F5)
    swap = next(m for m in diamond.involutions()
                if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})
    rho = FiaMorphism.induced(alg, swap)
    lift_rho = lift_anti(rho)
    i = alg.random(rng)
    lift_di = lift_derivation(alg, DerivationSpec(alg, inner=i))
    twisted = lift_derivation(
        alg, DerivationSpec(alg, inner=-rho.apply(i)))
    assert lift_rho.compose(lift_di) == twisted.compose(lift_rho)


def test_inner_auto_factoring(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    rng = random.Random(8)
    for _ in range(10):
        theta = random_d_unit(alg, rng)
        ring_part, der = factor_inner(theta)
        assert inner_auto(theta) == \
            lift_morphism(ring_part).compose(lift_derivation(alg, der))


def test_inner_auto_does_not_see_bimodule_shifts(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    rng = random.Random(9)
    for _ in range(10):
        f = alg.random_unit(rng)
        base = inner_auto(DElem(f, alg.zero()))
        assert inner_auto(DElem(f, f)) == base
        assert inner_auto(DElem(f, -f)) == base
        assert inner_auto(DElem(-f, f)) == base
    assert inner_auto(d_one(alg)) == DLinearMap.identity(alg)


def test_anti_lift_of_involution_squares_to_identity(diamond, chain2):
    for poset in (diamond, chain2):
        alg = IncidenceAlgebra(poset, F5)
        for lam in poset.involutions():
            m = lift_anti(FiaMorphism.induced(alg, lam))
            assert m.is_involution()


def test_lift_respects_composition(chain3):
    from incalg.morphisms import compose as fia_compose
    alg = IncidenceAlgebra(chain3, F5)
    rng = random.Random(10)
    m1 = random_morphism(alg, rng, anti=True)
    m2 = random_morphism(alg, rng, anti=True)
    lhs = lift_morphism(fia_compose(m1, m2))
    assert lhs == lift_morphism(m1).compose(lift_morphism(m2))


def test_semilinearity_contract(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    rng = random.Random(11)
    swap = diamond.involutions()[0]
    rho = FiaMorphism.induced(alg, swap)
    for _ in range(20):
        f, i, g = alg.random(rng), alg.random(rng), alg.random(rng)
        assert rho.apply(f * i * g) == rho.apply(g) * rho.apply(i) * rho.apply(f)


def test_anti_transfer_between_posets(chain2, chain3, vee, wedge):
    res = d_anti_isomorphic(chain2, chain2, F3)
    assert res is not None
    lam, upsilon = res
    assert lam.mapping == {"a": "b", "b": "a"}
    assert d_anti_isomorphic(vee, wedge, F3) is not None
    assert d_anti_isomorphic(vee, vee, F3) is None
    assert d_anti_isomorphic(chain2, chain3, F3) is None


def test_anti_transfer_map_is_anti_multiplicative(vee, wedge):
    rng = random.Random(12)
    lam, upsilon = d_anti_isomorphic(vee, wedge, F5)
    src = upsilon.src
    for _ in range(50):
        a, b = random_delem(src, rng), random_delem(src, rng)
        assert upsilon.apply(a * b) == upsilon.apply(b) * upsilon.apply(a)
    # bijective with the inverse transfer
    back = upsilon.inverse()
    for _ in range(10):
        a = random_delem(src, rng)
        assert back.apply(upsilon.apply(a)) == a


def test_self_dual_transfer_is_involution(chain2):
    lam, upsilon = d_anti_isomorphic(chain2, chain2, F3)
    rng = random.Random(13)
    for _ in range(10):
        a = random_delem(upsilon.src, rng)
        assert upsilon.apply(upsilon.apply(a)) == a


def test_delem_json_round_trip(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    rng = random.Random(14)
    d = random_delem(alg, rng)
    assert d_from_json(alg, d.to_json()) == d


def test_block_structure(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    swap = chain2.involutions()[0]
    m = lift_anti(FiaMorphism.induced(alg, swap))
    b11, b12, b21, b22 = blocks(m)
    assert all(all(v == 0 for v in col) for col in b12)
    assert all(all(v == 0 for v in col) for col in b21)
    n = alg.npairs
    assert len(b11) == n and len(b22) == n


def test_dlinearmap_json_round_trip(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    swap = chain2.involutions()[0]
    m = lift_anti(FiaMorphism.induced(alg, swap))
    assert DLinearMap.from_json(alg, m.to_json()) == m


def test_dlinearmap_from_json_refuses_malformed_blocks(chain2):
    """Anything but an object whose blocks are 2 npairs lists of 2 npairs
    value strings is a ParseError: {} used to raise KeyError, [] TypeError,
    one column reached ``recognize`` as an IndexError, and short columns
    read as a map that does not fix the unity."""
    alg = IncidenceAlgebra(chain2, F3)
    good = lift_anti(FiaMorphism.induced(alg, chain2.involutions()[0]))
    cols = good.to_json()["blocks"]
    for obj in ({}, [], {"blocks": None}, {"blocks": cols[:1]},
                {"blocks": cols + cols[:1]}, {"blocks": [c[:-1] for c in cols]},
                {"blocks": [",".join(cols[0])] + cols[1:]}):
        with pytest.raises(ParseError):
            DLinearMap.from_json(alg, obj)


def test_dlinearmap_from_json_refuses_lists_and_repeated_bad_strings(chain2):
    """Each distinct scalar string is parsed once, but a list entry is
    still a ParseError (not the TypeError of hashing it), and a bad string
    that repeats is refused wherever it is met."""
    alg = IncidenceAlgebra(chain2, F3)
    cols = lift_anti(FiaMorphism.induced(
        alg, chain2.involutions()[0])).to_json()["blocks"]
    for bad in (["1"], "x"):
        with pytest.raises(ParseError, match="is not a string|^bad residue"):
            DLinearMap.from_json(alg, {"blocks": [[bad] + c[1:] for c in cols]})


def test_char2_lifts_are_constructible(chain2):
    # classification refuses characteristic 2, but the ring and its lifted
    # symmetries still work there
    from incalg.fields import PrimeField
    alg = IncidenceAlgebra(chain2, PrimeField(2))
    swap = chain2.involutions()[0]
    rho = lift_anti(FiaMorphism.induced(alg, swap))
    assert rho.is_involution()
    rng = random.Random(15)
    for _ in range(10):
        a, b = random_delem(alg, rng), random_delem(alg, rng)
        assert rho.apply(a * b) == rho.apply(b) * rho.apply(a)
    assert d_anti_isomorphic(chain2, chain2, PrimeField(2)) is not None


def test_delem_difference_is_taken_coordinatewise(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    e, one = alg.e("a", "b"), alg.delta()
    assert DElem(e, one) - DElem(one, e) == DElem(e - one, one - e)


def _spec(alg):
    """The involution spec with unit theta on the poset's first involution."""
    return InvolutionSpec(alg, d_one(alg), alg.poset.involutions()[0], 1)


# (module, message, a call whose two operands are over contexts a and b)
CONTEXT_GUARDS = [
    ("derivations", "inner part over a different context",
     lambda a, b: DerivationSpec(a, inner=b.zero())),
    ("derivations", "derivation and argument over different contexts",
     lambda a, b: DerivationSpec(a).apply(b.delta())),
    ("fia", "maps over different contexts",
     lambda a, b: DLinearMap.identity(a).compose(DLinearMap.identity(b))),
    ("idealization", "coordinates over different contexts",
     lambda a, b: DElem(a.delta(), b.zero())),
    ("idealization", "map and argument over different contexts",
     lambda a, b: DLinearMap.identity(a).apply(d_one(b))),
    ("idealization", "argument over the wrong source ring",
     lambda a, b: CrossAntiMap(a, a, a.poset.involutions()[0]).apply(d_one(b))),
    ("involutions", "unit over a different context",
     lambda a, b: InvolutionSpec(a, d_one(b), a.poset.involutions()[0], 1)),
    ("involutions", "involution and argument over different contexts",
     lambda a, b: _spec(a).apply(d_one(b))),
    ("involutions", "unit over a different context",
     lambda a, b: symmetric_decompose(d_one(b), _spec(a))),
    ("involutions", "involutions over different contexts",
     lambda a, b: equivalent_inner(_spec(a), _spec(b))),
    ("morphisms", "map and argument over different contexts",
     lambda a, b: FiLinearMap.identity(a).apply(b.delta())),
    ("morphisms", "morphism and argument over different contexts",
     lambda a, b: FiaMorphism(a).apply(b.delta())),
]


@pytest.mark.parametrize("module, message, call", CONTEXT_GUARDS,
                         ids=[f"{m}-{k}" for k, (m, _, _) in
                              enumerate(CONTEXT_GUARDS)])
def test_operands_over_different_contexts_are_refused(chain2, chain3, module,
                                                      message, call):
    with pytest.raises(ContextMismatch, match=f"^{re.escape(message)}$"):
        call(IncidenceAlgebra(chain2, F5), IncidenceAlgebra(chain3, F5))


def square_is_identity(m):
    """The check ``DLinearMap.is_involution`` replaced: the whole square,
    compared with the identity map that ``from_function`` builds."""
    return m.compose(m) == DLinearMap.identity(m.alg)


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), QQ],
                         ids=lambda f: f.name)
def test_is_involution_agrees_with_the_square_against_the_identity(
        request, field):
    """The column-by-column check gives the verdict of the full square on
    lifted relabels, their inner conjugates and products, inner
    automorphisms, the scalars -1 and 2 (2 squares to 1 over F3 only), the
    zero map, random maps, and involutions with one column changed, first
    or last, so the early exit and the full pass both run."""
    rng = random.Random(f"square:{field.name}")
    maps = []
    for name in ("chain2", "chain3", "diamond", "crown"):
        poset = request.getfixturevalue(name)
        alg = IncidenceAlgebra(poset, field)
        n = 2 * alg.npairs

        def scalar(c, n=n, alg=alg):
            return DLinearMap(alg, [[c if r == b else field.zero
                                     for r in range(n)] for b in range(n)])
        maps += [scalar(field.one), scalar(field(-1)), scalar(field(2)),
                 scalar(field.zero)]
        maps += [DLinearMap(alg, [[field.random(rng) for _ in range(n)]
                                  for _ in range(n)]) for _ in range(2)]
        for lam in poset.involutions():
            rho = lift_anti(FiaMorphism.induced(alg, lam))
            u = random_d_unit(alg, rng)
            inner, back = inner_auto(u), inner_auto(u.inverse())
            maps += [rho, inner.compose(rho).compose(back),
                     rho.compose(inner), inner]
            for k in (0, n - 1):
                cols = [list(c) for c in rho.cols]
                cols[k][k] = field.add(cols[k][k], field.one)
                maps.append(DLinearMap(alg, cols))
    verdicts = [m.is_involution() for m in maps]
    assert verdicts == [square_is_identity(m) for m in maps]
    assert verdicts.count(True) >= 12 and verdicts.count(False) >= 12
