import gc
import itertools
import random
import weakref

import pytest

from incalg.errors import (
    BadSign, Char2Unsupported, FixedPointsPresent, HypothesisFailed,
    NotAnInvolution, NotASquare, NotConnected, NotInvolutive, NotSymmetric,
    ParseError, UpperRightNonzero, WitnessFailed, ZeroEpsilon,
)
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg import involutions
from incalg.idealization import (
    DElem, DLinearMap, central_pair, d_basis, d_one, inner_auto,
    lift_morphism, random_d_unit,
)
from incalg.involutions import (
    InvolutionSpec, _relabel_by_pairs, base_involution, build,
    check_hypotheses, classify, equivalent, equivalent_inner,
    involution_from_json, recognize, require_classifiable, rho_eps,
    sigma_lambda, symmetric_decompose, verify_witness,
)
from incalg.morphisms import FiaMorphism
from incalg.posets import Poset, identity_map, lambda_decomposition

from conftest import is_identity
from test_symmetry_reference import ref_moved_key

F3 = PrimeField(3)
F5 = PrimeField(5)


def pair_orbits(alg, lam):
    seen, orbits = set(), []
    for x, y in alg.pairs:
        if (x, y) in seen:
            continue
        mirror = (lam(y), lam(x))
        seen.add((x, y))
        seen.add(mirror)
        orbits.append(((x, y), mirror))
    return orbits


def random_symmetric_theta(alg, lam, k, rng, fixed_diag=None):
    """Random unit symmetric for the base involution with relabel lam and
    sign k; optional override of the ring diagonal at fixed points."""
    field = alg.field
    fixed_diag = fixed_diag or {}
    f_vals, i_vals = {}, {}
    for p, mirror in pair_orbits(alg, lam):
        x, y = p
        if x == y and x == lam(x) and x in fixed_diag:
            v = field(fixed_diag[x])
        elif x == y:
            v = field.random_nonzero(rng)
        else:
            v = field.random(rng)
        f_vals[p] = v
        f_vals[mirror] = v
        if p == mirror:
            if k == field.one:
                i_vals[p] = field.random(rng)
            else:
                i_vals[p] = field.zero
        else:
            w = field.random(rng)
            i_vals[mirror] = w
            i_vals[p] = field.mul(field(k), w)
    return DElem(alg.element(f_vals), alg.element(i_vals))


def swap_involution(poset):
    return poset.involutions()[0]


def diamond_flip(diamond):
    return next(m for m in diamond.involutions()
                if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})


def test_base_involution_round_trip(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    rho = base_involution(alg, lam, 1)
    assert rho.k == 1
    assert rho.lam == lam
    m = rho.to_linear()
    assert m.is_involution()
    assert rho.apply(d_one(alg)) == d_one(alg)


def test_sigma_lambda_flips_its_unit(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    sig = sigma_lambda(alg, lam, 1)
    omega = sig.theta
    assert sig.apply(omega) == -omega
    assert sig.to_linear().is_involution()
    assert omega * omega == d_one(alg)


def test_sigma_needs_fixed_point_free(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    with pytest.raises(FixedPointsPresent):
        sigma_lambda(alg, swap_involution(chain3), 1)


def test_build_accepts_symmetric_conjugator(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    lam = swap_involution(chain2)
    theta = DElem(alg.delta() + alg.e("a", "b"), alg.zero())
    spec = build(alg, theta, lam, 1)
    assert spec.to_linear().is_involution()


def test_build_rejects_non_involutive_unit(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    theta = DElem(alg.delta(), alg.e("a", "b"))
    with pytest.raises(NotInvolutive):
        build(alg, theta, lam, -1)


def test_build_accepts_diagonal_bimodule_twist(chain2):
    # [delta; e_a] against the negative sign: the base image is [delta; -e_b]
    # and the ratio [delta; e_a + e_b] is central
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    spec = build(alg, DElem(alg.delta(), alg.e("a", "a")), lam, -1)
    assert spec.to_linear().is_involution()
    assert spec.k == alg.field.neg(1)


def test_build_entry_guards(chain2, two_chains):
    alg2 = IncidenceAlgebra(chain2, PrimeField(2))
    lam2 = swap_involution(chain2)
    with pytest.raises(Char2Unsupported):
        build(alg2, d_one(alg2), lam2, 1)
    alg5 = IncidenceAlgebra(chain2, F5)
    with pytest.raises(BadSign):
        build(alg5, d_one(alg5), swap_involution(chain2), 2)
    algd = IncidenceAlgebra(two_chains, F5)
    lam_d = two_chains.involutions()[0]
    with pytest.raises(NotConnected):
        build(algd, d_one(algd), lam_d, 1)


def test_sign_and_central_action(chain3, diamond):
    rng = random.Random(0)
    for poset in (chain3, diamond):
        for field in (F5, QQ):
            alg = IncidenceAlgebra(poset, field)
            lam = poset.involutions()[0]
            for k in (1, -1):
                spec = base_involution(alg, lam, k)
                assert spec.k == field(k)
                for _ in range(10):
                    k1, k2 = field.random(rng), field.random(rng)
                    got = spec.apply(central_pair(alg, k1, k2))
                    assert got == central_pair(alg, k1, field.mul(field(k), k2))


def test_rho_eps_trivial_cases(chain2, diamond):
    alg = IncidenceAlgebra(chain2, F5)
    lam = swap_involution(chain2)
    spec = rho_eps(alg, lam, {}, 1)
    assert spec.theta == d_one(alg)  # no fixed points: scaling collapses
    algd = IncidenceAlgebra(diamond, F5)
    flip = diamond_flip(diamond)
    ones = rho_eps(algd, flip, {"a": 1, "b": 1}, 1)
    assert ones.theta == d_one(algd)
    with pytest.raises(ZeroEpsilon):
        rho_eps(algd, flip, {"a": 0, "b": 1}, 1)


def test_rho_eps_names_a_missing_fixed_point(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    with pytest.raises(ParseError, match="has no 'b'"):
        rho_eps(alg, diamond_flip(diamond), {"a": 2}, 1)


def test_positive_sign_plain_ratio_check_is_reachable_over_f2(chain2):
    """Why ``central_ratio`` keeps "positive sign forces a plain ratio":
    (1 + k) k0 k1 = 0 leaves k1 free when 1 + k = 0, as over F2 with k = 1.
    On chain2 with its flip, theta = [delta; e_aa] has the central ratio
    [delta; delta], so the map is an involution with k1 = 1."""
    alg = IncidenceAlgebra(chain2, PrimeField(2))
    spec = InvolutionSpec(alg, DElem(alg.delta(), alg.e("a", "a")),
                          swap_involution(chain2), 1)
    assert spec.to_linear().is_involution()
    with pytest.raises(NotAnInvolution,
                       match="positive sign forces a plain ratio"):
        spec.central_ratio()


@pytest.mark.parametrize("field", [PrimeField(2), F3, F5, QQ],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("name", ["chain2", "chain3", "diamond"])
def test_every_central_ratio_has_k0_squared_one(request, name, field):
    """r base(r) = 1 for the ratio r = base(theta) theta^-1, so a central
    r = [k0 delta; k1 delta] has k0^2 = 1 and (1 + k) k0 k1 = 0: the reason
    ``central_ratio`` never checks k0, and checks k1 only for F2.  Drawn
    units: random ones, c u base(u) for a central unit c (k1 != 0 for the
    negative sign), and u w base(u) for the sign-split diagonal w (k0 =
    -1)."""
    poset = request.getfixturevalue(name)
    alg = IncidenceAlgebra(poset, field)
    rng = random.Random(f"{name}:{field.name}")
    one, x0 = field.one, poset.elements[0]
    kinds = set()
    for lam in poset.involutions():
        split = lambda_decomposition(poset, lam)
        w = None if split.fixed else DElem(alg.diagonal(
            {x: field(-split.side(x)) for x in poset.elements}), alg.zero())
        for k in dict.fromkeys((field(1), field(-1))):  # one sign over F2
            base = InvolutionSpec(alg, d_one(alg), lam, k).base_apply
            for _ in range(8):
                u = random_d_unit(alg, rng)
                c = central_pair(alg, field.random_nonzero(rng),
                                 field.random(rng))
                thetas = [u, c * u * base(u)] + ([u * w * base(u)] if w else [])
                for theta in thetas:
                    r = InvolutionSpec(alg, theta, lam, k, _validated=True)._ratio
                    if not r.is_central():
                        continue
                    k0, k1 = r.f[x0, x0], r.i[x0, x0]
                    assert field.mul(k0, k0) == one
                    assert field.mul(field.add(one, k), field.mul(k0, k1)) == 0
                    kinds.add((k0 == one, k1 == 0))
    assert (True, True) in kinds
    if field.char != 2:
        assert (True, False) in kinds
    if field.char != 2 and name == "chain2":
        assert (False, True) in kinds


def test_involution_spec_json_round_trip(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    flip = diamond_flip(diamond)
    spec = rho_eps(alg, flip, {"a": 2, "b": 3}, -1)
    again = involution_from_json(alg, spec.to_json())
    assert again.to_linear() == spec.to_linear()


def _drop(*path):
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
    return edit


def _replace(key, value):
    def edit(obj):
        obj[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("lambda"), "involution has no 'lambda'"),
    (_drop("theta"), "involution has no 'theta'"),
    (_drop("k"), "involution has no 'k'"),
    (_drop("theta", "f"), "idealization element has no 'f'"),
    (_drop("theta", "i"), "idealization element has no 'i'"),
    (_replace("theta", [1]), "idealization element [1] is not an object"),
], ids=["lambda", "theta", "k", "theta-f", "theta-i", "theta-list"])
def test_involution_from_json_names_what_is_missing(diamond, edit, message):
    alg = IncidenceAlgebra(diamond, F5)
    obj = rho_eps(alg, diamond_flip(diamond), {"a": 2, "b": 3}, -1).to_json()
    edit(obj)
    with pytest.raises(ParseError) as info:
        involution_from_json(alg, obj)
    assert str(info.value) == message


def test_involution_from_json_refuses_a_non_object(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    for value in ([["0", "1"]], "theta", 3, None):
        with pytest.raises(ParseError) as info:
            involution_from_json(alg, value)
        assert str(info.value) == f"involution {value!r} is not an object"


def test_symmetric_decompose_identity_target(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    flip = diamond_flip(diamond)
    base = rho_eps(alg, flip, {"a": 1, "b": 1}, 1)
    gamma = symmetric_decompose(d_one(alg), base)
    assert gamma * base.apply(gamma) == d_one(alg)


def test_symmetric_decompose_random(diamond):
    rng = random.Random(1)
    alg = IncidenceAlgebra(diamond, F5)
    flip = diamond_flip(diamond)
    squares = [1, 4]
    for k in (1, -1):
        base = base_involution(alg, flip, k)
        for _ in range(25):
            theta = random_symmetric_theta(
                alg, flip, alg.field(k), rng,
                fixed_diag={"a": rng.choice(squares), "b": rng.choice(squares)})
            if not theta.is_unit():
                continue
            assert base.apply(theta) == theta
            gamma = symmetric_decompose(theta, base)
            assert gamma * base.apply(gamma) == theta


def test_symmetric_decompose_non_square_rejected(diamond):
    rng = random.Random(2)
    alg = IncidenceAlgebra(diamond, F5)
    flip = diamond_flip(diamond)
    base = base_involution(alg, flip, 1)
    hits = 0
    for _ in range(25):
        theta = random_symmetric_theta(alg, flip, alg.field.one, rng,
                                       fixed_diag={"a": 2, "b": 1})
        if not theta.is_unit():
            continue
        with pytest.raises(NotASquare) as err:
            symmetric_decompose(theta, base)
        assert "a" in err.value.args[1]
        hits += 1
    assert hits > 10


def test_symmetric_decompose_requires_symmetry(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    base = base_involution(alg, lam, 1)
    skew = DElem(alg.delta() + alg.e("a", "b"), alg.zero())
    # adjust: delta + e_ab is symmetric, so twist the bimodule part instead
    skew = DElem(alg.delta(), alg.e("a", "a") - alg.e("b", "b"))
    with pytest.raises(NotSymmetric):
        symmetric_decompose(skew, base)


def test_recognize_base(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    raw = base_involution(alg, lam, 1).to_linear()
    spec = recognize(raw)
    assert spec.lam == lam
    assert spec.k == alg.field.one
    assert spec.theta.is_central()
    assert spec.to_linear() == raw


def test_recognize_twisted(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    built = build(alg, DElem(alg.delta(), alg.e("a", "a")), lam, -1)
    spec = recognize(built.to_linear())
    assert spec.k == alg.field.neg(1)
    assert spec.lam == lam
    assert spec.to_linear() == built.to_linear()


def test_recognize_random_round_trip(diamond, chain3):
    rng = random.Random(3)
    for poset in (diamond, chain3):
        alg = IncidenceAlgebra(poset, F5)
        for lam in poset.involutions():
            for k in (1, -1):
                for _ in range(5):
                    theta = random_symmetric_theta(alg, lam, alg.field(k), rng)
                    if not theta.is_unit():
                        continue
                    spec = build(alg, theta, lam, k)
                    got = recognize(spec.to_linear())
                    assert got.to_linear() == spec.to_linear()
                    assert got.lam == lam and got.k == alg.field(k)


def test_recognize_builds_one_morphism(diamond, monkeypatch):
    """recognize factors the ring block once (``decompose``), and relabels
    the inner derivation's unit by the pair permutation, with no induced
    morphism of its own."""
    built = []
    real = FiaMorphism.__init__
    monkeypatch.setattr(FiaMorphism, "__init__",
                        lambda self, *args, **kwargs: built.append(1)
                        or real(self, *args, **kwargs))
    rng = random.Random(8)
    alg = IncidenceAlgebra(diamond, F5)
    for lam in diamond.involutions():
        for k in (1, -1):
            theta = random_symmetric_theta(alg, lam, alg.field(k), rng)
            raw = build(alg, theta, lam, k).to_linear()
            built.clear()
            assert recognize(raw).to_linear() == raw
            assert len(built) == 1


def test_equivalent_inner_builds_one_symmetric_form_per_spec(diamond,
                                                             monkeypatch):
    """The invariants read chi off theta itself; only the reduction to the
    base involution builds a symmetric form, once per spec."""
    formed = []
    real = InvolutionSpec.symmetric_form
    monkeypatch.setattr(InvolutionSpec, "symmetric_form",
                        lambda self: formed.append(self) or real(self))
    rng = random.Random(9)
    alg = IncidenceAlgebra(diamond, F5)
    for lam in diamond.involutions():
        for rep in classify(diamond, lam, F5).representatives:
            u = random_d_unit(alg, rng)
            while not u.is_unit():
                u = random_d_unit(alg, rng)
            other = build(alg, u * rep.theta * rep.base_apply(u), lam, rep.k)
            formed.clear()
            assert equivalent_inner(rep, other).equivalent
            assert sorted(map(id, formed)) == sorted([id(rep), id(other)])


def test_recognize_rejects_upper_right_block(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    good = base_involution(alg, lam, 1).to_linear()
    cols = [list(c) for c in good.cols]
    cols[alg.npairs][0] = 1  # bimodule basis vector leaks into the ring block
    with pytest.raises(UpperRightNonzero):
        recognize(DLinearMap(alg, cols))


def test_recognize_rejects_non_involution(chain2):
    from incalg.errors import NotAnInvolution
    alg = IncidenceAlgebra(chain2, F3)
    with pytest.raises(NotAnInvolution):
        recognize(DLinearMap.identity(alg))  # multiplicative, not anti


def test_hypothesis_gate(crown):
    alg = IncidenceAlgebra(crown, F5)
    lam = crown.involutions()[0]
    with pytest.raises(HypothesisFailed):
        classify(crown, lam, F5)
    report = check_hypotheses(crown, F5)
    assert report == {"mult_subset_inn": False, "der_equals_ider": False}
    assert check_hypotheses(crown, PrimeField(2)) == {
        "mult_subset_inn": True, "der_equals_ider": False}


def test_invariants_well_defined_under_central_shift(diamond):
    rng = random.Random(4)
    alg = IncidenceAlgebra(diamond, F5)
    flip = diamond_flip(diamond)
    for k in (1, -1):
        theta = random_symmetric_theta(alg, flip, alg.field(k), rng,
                                       fixed_diag={"a": 4, "b": 2})
        if not theta.is_unit():
            continue
        spec = build(alg, theta, flip, k)
        for k1, k2 in ((2, 0), (1, 3), (4, 4)):
            shifted = build(alg, central_pair(alg, k1, k2) * theta, flip, k)
            a, b = spec.invariant(), shifted.invariant()
            assert a.same_inner_class(b)
            assert a.sign == b.sign and a.lam == b.lam


def test_plus_minus_theta_property(chain2):
    # for an involution written as a twist of a base one, the base image of
    # the twisting unit is the unit times a central pair with ring part +-1
    rng = random.Random(5)
    alg = IncidenceAlgebra(chain2, F5)
    lam = swap_involution(chain2)
    for k in (1, -1):
        base = base_involution(alg, lam, k)
        for _ in range(20):
            gamma = random_d_unit(alg, rng)
            theta = gamma * base.apply(gamma)
            c = central_pair(alg, rng.choice([1, 2, 3, 4]), rng.randrange(5))
            spec = build(alg, c * theta, lam, k)
            k0, k1 = spec.central_ratio()
            assert alg.field.mul(k0, k0) == alg.field.one
            if k == 1:
                assert k1 == alg.field.zero
            sym, k0b = spec.symmetric_form()
            assert spec.base_apply(sym) == DElem(sym.f.scale(k0b), sym.i.scale(k0b))


def test_equivalent_inner_sign_distinguishes(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    lam = swap_involution(chain3)
    v = equivalent_inner(base_involution(alg, lam, 1),
                         base_involution(alg, lam, -1))
    assert not v.equivalent and v.distinguisher == "sign"


def test_equivalent_inner_lambda_distinguishes(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    lams = diamond.involutions()
    v = equivalent_inner(base_involution(alg, lams[0], 1),
                         base_involution(alg, lams[1], 1))
    assert not v.equivalent and v.distinguisher == "lambda"


def test_equivalent_inner_chi_shift(diamond):
    alg = IncidenceAlgebra(diamond, F3)
    flip = diamond_flip(diamond)
    s1 = rho_eps(alg, flip, {"a": 1, "b": 1}, 1)
    s2 = rho_eps(alg, flip, {"a": 2, "b": 2}, 1)
    v = equivalent_inner(s1, s2)
    assert v.equivalent
    assert v.conjugator is not None
    psi = inner_auto(v.conjugator)
    assert psi.compose(s1.to_linear()) == s2.to_linear().compose(psi)


def test_equivalent_inner_chi_difference(diamond):
    alg = IncidenceAlgebra(diamond, F3)
    flip = diamond_flip(diamond)
    s1 = rho_eps(alg, flip, {"a": 1, "b": 1}, 1)
    s2 = rho_eps(alg, flip, {"a": 1, "b": 2}, 1)
    v = equivalent_inner(s1, s2)
    assert not v.equivalent and v.distinguisher == "chi"


@pytest.mark.parametrize("decide", [equivalent_inner, equivalent])
@pytest.mark.parametrize("p", [10007, 1000003])
def test_equivalence_shifts_by_roots_modulo_large_primes(diamond, decide, p):
    """rho_eps at eps = (1, 3) and (4, 12) on the diamond's flip differ by
    the global square 4.  Both reduce to the one representative rho_eps at
    (1, r), r the listed representative of the class of 3, so
    ``symmetric_decompose`` takes the square root of 3 / r at the second
    fixed point, here modulo primes above 10^4."""
    alg = IncidenceAlgebra(diamond, PrimeField(p))
    flip = diamond_flip(diamond)
    s1 = rho_eps(alg, flip, {"a": 1, "b": 3}, 1)
    s2 = rho_eps(alg, flip, {"a": 4, "b": 12}, 1)
    v = decide(s1, s2)
    assert v.equivalent
    verify_witness(s1, s2, v)


def test_equivalent_inner_rho_vs_sigma(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    v = equivalent_inner(base_involution(alg, lam, 1), sigma_lambda(alg, lam, 1))
    assert not v.equivalent and v.distinguisher == "chi"


def test_equivalent_inner_witness_random(diamond, chain2, chain3):
    rng = random.Random(6)
    for poset in (chain2, chain3, diamond):
        alg = IncidenceAlgebra(poset, F5)
        for lam in poset.involutions():
            for k in (1, -1):
                base = base_involution(alg, lam, k)
                for _ in range(6):
                    gamma = random_d_unit(alg, rng)
                    theta = gamma * base.apply(gamma)
                    spec = build(alg, theta, lam, k)
                    v = equivalent_inner(spec, base)
                    assert v.equivalent
                    psi = inner_auto(v.conjugator)
                    assert psi.compose(spec.to_linear()) == \
                        base.to_linear().compose(psi)


def test_equivalent_inner_sigma_branch(chain2):
    rng = random.Random(7)
    alg = IncidenceAlgebra(chain2, F5)
    lam = swap_involution(chain2)
    for k in (1, -1):
        sig = sigma_lambda(alg, lam, k)
        for _ in range(10):
            gamma = random_d_unit(alg, rng)
            spec = build(alg, gamma * sig.apply(gamma) * sig.theta, lam, k)
            v = equivalent_inner(spec, sig)
            assert v.equivalent
            psi = inner_auto(v.conjugator)
            assert psi.compose(spec.to_linear()) == \
                sig.to_linear().compose(psi)


def test_general_equivalence_by_relabeling(diamond):
    # over GF(3) the swapped scalings already differ by the constant
    # non-square shift, so they are even inner equivalent
    alg = IncidenceAlgebra(diamond, F3)
    flip = diamond_flip(diamond)
    s1 = rho_eps(alg, flip, {"a": 1, "b": 2}, 1)
    s2 = rho_eps(alg, flip, {"a": 2, "b": 1}, 1)
    assert equivalent_inner(s1, s2).equivalent
    v = equivalent(s1, s2)
    assert v.equivalent and v.to_json()["witness"]["k"] == "1"


def test_general_equivalence_needs_relabeling_on_three_middles(wide_diamond):
    alg = IncidenceAlgebra(wide_diamond, F3)
    flip = next(m for m in wide_diamond.involutions()
                if all(m.mapping[x] == x for x in "abc"))
    s1 = rho_eps(alg, flip, {"a": 1, "b": 1, "c": 2}, 1)
    s2 = rho_eps(alg, flip, {"a": 2, "b": 1, "c": 1}, 1)
    assert not equivalent_inner(s1, s2).equivalent
    v = equivalent(s1, s2)
    assert v.equivalent
    assert v.alpha is not None and not is_identity(v.alpha)
    assert v.to_json()["witness"]["k"] == "1"
    psi = inner_auto(v.conjugator)
    from incalg.morphisms import FiaMorphism
    from incalg.idealization import lift_morphism
    lifted = lift_morphism(FiaMorphism.induced(alg, v.alpha))
    lifted_inv = lift_morphism(FiaMorphism.induced(alg, v.alpha.inverse()))
    target = lifted.compose(s2.to_linear()).compose(lifted_inv)
    assert psi.compose(s1.to_linear()) == target.compose(psi)


def test_general_equivalence_sign_still_distinguishes(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    lam = swap_involution(chain2)
    v = equivalent(base_involution(alg, lam, 1), sigma_lambda(alg, lam, -1))
    assert not v.equivalent and v.distinguisher == "sign"
    v2 = equivalent(base_involution(alg, lam, 1), sigma_lambda(alg, lam, 1))
    assert not v2.equivalent and v2.distinguisher == "chi"


def test_general_equivalence_conjugate_specs(diamond):
    rng = random.Random(8)
    alg = IncidenceAlgebra(diamond, F5)
    flip = diamond_flip(diamond)
    spec = rho_eps(alg, flip, {"a": 2, "b": 3}, -1)
    for alpha in diamond.automorphisms():
        from incalg.morphisms import FiaMorphism
        relabel = FiaMorphism.induced(alg, alpha)
        moved = DElem(relabel.apply(spec.theta.f), relabel.apply(spec.theta.i))
        conj = build(alg, moved, flip, -1)
        assert equivalent(spec, conj).equivalent


def test_classify_chain2_four_classes(chain2):
    lam = swap_involution(chain2)
    res = classify(chain2, lam, F3)
    assert res.count == 4
    kinds = {(inv.kind, str(inv.sign)) for inv in res.invariants()}
    assert kinds == {("plain", "1"), ("plain", "2"),
                     ("skew", "1"), ("skew", "2")}
    for i, a in enumerate(res.representatives):
        for b in res.representatives[i + 1:]:
            assert not equivalent_inner(a, b).equivalent
            assert not equivalent(a, b).equivalent


def test_classify_chain3(chain3):
    lam = swap_involution(chain3)
    for field in (F5, F3):
        res = classify(chain3, lam, field)
        assert res.count == 2
        a, b = res.representatives
        assert not equivalent_inner(a, b).equivalent


def test_classify_diamond(diamond):
    flip = diamond_flip(diamond)
    for field in (F3, F5):
        res = classify(diamond, flip, field)
        assert res.count == 4
        reps = res.representatives
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not equivalent_inner(a, b).equivalent


def test_classify_diamond_fixed_point_free_involution(diamond):
    lam = next(m for m in diamond.involutions()
               if m.mapping == {"0": "1", "1": "0", "a": "b", "b": "a"})
    res = classify(diamond, lam, F3)
    assert res.count == 4  # plain/skew times sign


def test_classify_general_folds_wide_diamond(wide_diamond):
    flip = next(m for m in wide_diamond.involutions()
                if all(m.mapping[x] == x for x in "abc"))
    inner = classify(wide_diamond, flip, F3)
    assert inner.count == 2 * 2 ** (3 - 1)  # 8 inner classes
    folded = classify(wide_diamond, flip, F3, general=True)
    assert folded.count == 4  # middles are interchangeable
    reps = folded.representatives
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not equivalent(a, b).equivalent


def test_rational_family_lists_no_invariants(diamond):
    assert classify(diamond, diamond_flip(diamond), QQ).invariants() is None


def test_classify_rational_schema(diamond):
    flip = diamond_flip(diamond)
    res = classify(diamond, flip, QQ)
    assert res.infinite and res.representatives is None
    assert res.family is not None
    assert res.to_json()["count"] == "infinite"
    # one fixed point stays finite over the rationals
    from conftest import chain
    c3 = chain(3)
    res3 = classify(c3, swap_involution(c3), QQ)
    assert res3.count == 2


def test_classification_counts_match_formula(diamond, chain3):
    # two fixed points: 2 * |S_K|; one fixed point: 2
    assert classify(diamond, diamond_flip(diamond), F5).count == 4
    assert classify(chain3, swap_involution(chain3), F5).count == 2
    f13 = PrimeField(13)
    assert classify(diamond, diamond_flip(diamond), f13).count == 4


def test_classify_representatives_are_involutions(diamond):
    flip = diamond_flip(diamond)
    for spec in classify(diamond, flip, F3).representatives:
        assert spec.to_linear().is_involution()


def test_equivalent_inner_over_rationals_with_shift(diamond):
    # scalings 2,3 and 10,15 differ by the global class of 5; the witness
    # needs exact rational square roots (5*10/2 = 5*15/3 = 25)
    alg = IncidenceAlgebra(diamond, QQ)
    flip = diamond_flip(diamond)
    s1 = rho_eps(alg, flip, {"a": QQ(2), "b": QQ(3)}, -1)
    s2 = rho_eps(alg, flip, {"a": QQ(10), "b": QQ(15)}, -1)
    v = equivalent_inner(s1, s2)
    assert v.equivalent
    psi = inner_auto(v.conjugator)
    assert psi.compose(s1.to_linear()) == s2.to_linear().compose(psi)
    s3 = rho_eps(alg, flip, {"a": QQ(2), "b": QQ(5)}, -1)
    v = equivalent_inner(s1, s3)
    assert not v.equivalent and v.distinguisher == "chi"


def test_classify_rational_no_fixed_points(chain2):
    lam = swap_involution(chain2)
    res = classify(chain2, lam, QQ)
    assert res.count == 4
    for i, a in enumerate(res.representatives):
        for b in res.representatives[i + 1:]:
            assert not equivalent_inner(a, b).equivalent


def test_sigma_branch_over_rationals(chain2):
    rng = random.Random(40)
    alg = IncidenceAlgebra(chain2, QQ)
    lam = swap_involution(chain2)
    sig = sigma_lambda(alg, lam, -1)
    for _ in range(5):
        gamma = random_d_unit(alg, rng)
        spec = build(alg, gamma * sig.apply(gamma) * sig.theta, lam, -1)
        v = equivalent_inner(spec, sig)
        assert v.equivalent
        psi = inner_auto(v.conjugator)
        assert psi.compose(spec.to_linear()) == sig.to_linear().compose(psi)


# -- the relabel check of `equivalent`, in normal form -----------------------


def ref_relabelled(spec, alpha):
    """The whole-matrix form the relabel check used to compare, verbatim."""
    alg = spec.alg
    lifted = lift_morphism(FiaMorphism.induced(alg, alpha))
    lifted_inv = lift_morphism(FiaMorphism.induced(alg, alpha.inverse()))
    return lifted.compose(spec.to_linear()).compose(lifted_inv)


class RefRelabelled:
    """spec conjugated by the ring lift L of the relabeling induced by the
    poset automorphism alpha: ``apply`` is L o spec o L^-1, evaluated
    pointwise without building a matrix (the relabel check compared it with
    the relabelled spec on ring generators before the normal-form guard)."""

    def __init__(self, spec, alpha):
        self.spec = spec
        self._move = FiaMorphism.induced(spec.alg, alpha)
        self._back = FiaMorphism.induced(spec.alg, alpha.inverse())

    def apply(self, d):
        back = self._back.apply
        img = self.spec.apply(DElem(back(d.f), back(d.i)))
        return DElem(self._move.apply(img.f), self._move.apply(img.i))


def _relabel_pairs(request):
    diamond = request.getfixturevalue("diamond")
    wide = request.getfixturevalue("wide_diamond")
    flip = diamond_flip(diamond)
    wide_flip = next(m for m in wide.involutions()
                     if all(m.mapping[x] == x for x in "abc"))
    d3, d5 = IncidenceAlgebra(diamond, F3), IncidenceAlgebra(diamond, F5)
    w3 = IncidenceAlgebra(wide, F3)
    spec = rho_eps(d5, flip, {"a": 2, "b": 3}, -1)
    return [
        (rho_eps(d3, flip, {"a": 1, "b": 2}, 1),
         rho_eps(d3, flip, {"a": 2, "b": 1}, 1)),
        (rho_eps(w3, wide_flip, {"a": 1, "b": 1, "c": 2}, 1),
         rho_eps(w3, wide_flip, {"a": 2, "b": 1, "c": 1}, 1)),
        (rho_eps(d5, flip, {"a": 1, "b": 1}, 1),
         rho_eps(d5, flip, {"a": 2, "b": 2}, 1)),
        (spec, spec),
    ]


def test_relabel_check_matches_whole_matrix_comparison(request):
    for s1, s2 in _relabel_pairs(request):
        alg = s1.alg
        basis = d_basis(alg)
        for alpha in alg.poset.automorphisms():
            carrier = alpha.compose(s2.lam).compose(alpha.inverse()) == s1.lam
            relabel = FiaMorphism.induced(alg, alpha)
            moved = DElem(relabel.apply(s2.theta.f),
                          relabel.apply(s2.theta.i))
            pointwise = RefRelabelled(s2, alpha)
            # as `equivalent` builds it, on s1's involution
            conjugated = InvolutionSpec(alg, moved, s1.lam, s2.k,
                                        _validated=True)
            new = _relabel_by_pairs(s2, alpha) == conjugated._perm
            old = ref_relabelled(s2, alpha) == conjugated.to_linear()
            on_basis = all(pointwise.apply(d) == conjugated.apply(d)
                           for d in basis)
            assert new == old == on_basis == carrier


@pytest.mark.parametrize("field", (F5, QQ), ids=("F5", "Q"))
def test_relabelled_theta_is_the_induced_morphism_image(request, field):
    """``_relabelled_spec`` moves theta by the pair permutation alone; that
    is the image under ``FiaMorphism.induced``, whose conjugator is the
    unity and whose cocycle scaling is all ones.  Checked on the relabel
    pairs and on random units, for every automorphism."""
    specs = [s for pair in _relabel_pairs(request) for s in pair]
    rng = random.Random(f"relabel:{field!r}")
    for name in ("diamond", "wide_diamond"):
        poset = request.getfixturevalue(name)
        alg = IncidenceAlgebra(poset, field)
        for lam in poset.involutions():
            specs += [InvolutionSpec(alg, random_d_unit(alg, rng), lam, k,
                                     _validated=True) for k in (1, -1)]
    for spec in specs:
        alg = spec.alg
        for alpha in alg.poset.automorphisms():
            relabel = FiaMorphism.induced(alg, alpha)
            got = involutions._relabelled_spec(spec, alpha)
            assert got.theta == DElem(relabel.apply(spec.theta.f),
                                      relabel.apply(spec.theta.i))
            assert got.lam == alpha.compose(spec.lam).compose(alpha.inverse())
            assert got.k == spec.k


def test_relabel_mismatch_raises_witness_failed(wide_diamond, monkeypatch):
    alg = IncidenceAlgebra(wide_diamond, F3)
    flip = next(m for m in wide_diamond.involutions()
                if all(m.mapping[x] == x for x in "abc"))
    s1 = rho_eps(alg, flip, {"a": 1, "b": 1, "c": 2}, 1)
    s2 = rho_eps(alg, flip, {"a": 2, "b": 1, "c": 1}, 1)
    # a pair-permutation route that returns a wrong permutation (here the
    # identity, which the flip is not) must fail the guard
    monkeypatch.setattr(involutions, "_relabel_by_pairs",
                        lambda spec, alpha: tuple(range(len(spec._perm))))
    with pytest.raises(WitnessFailed):
        equivalent(s1, s2)


def test_carrier_moves_the_key_as_relabelling_moves_the_spec(wide_diamond):
    """Relabelling an involution by a poset automorphism alpha moves its
    χ key by alpha: the moved key the χ rule of ``_carriers`` matches is
    the key of the normal form ``equivalent`` builds."""
    specs = [spec for lam in wide_diamond.involutions()
             for spec in classify(wide_diamond, lam, F5).representatives]
    moves = 0
    for alpha in wide_diamond.automorphisms():
        for spec in specs:
            moved = involutions._relabelled_spec(spec, alpha).invariant()
            key = ref_moved_key(spec.invariant().chi, alpha)
            assert moved.key() == key
            moves += key != spec.invariant().key()
    assert moves > 0


def _counting_hypotheses(monkeypatch):
    calls = []
    check = involutions.check_hypotheses

    def counted(poset, field):
        calls.append(poset)
        return check(poset, field)

    monkeypatch.setattr(involutions, "check_hypotheses", counted)
    return calls


def test_equivalent_runs_the_classification_gate_once(wide_diamond,
                                                      monkeypatch):
    alg = IncidenceAlgebra(wide_diamond, F5)
    flip = next(m for m in wide_diamond.involutions()
                if all(m.mapping[x] == x for x in "abc"))
    s1 = rho_eps(alg, flip, {"a": 1, "b": 1, "c": 2}, 1)
    positive = rho_eps(alg, flip, {"a": 2, "b": 1, "c": 1}, 1)
    negative = rho_eps(alg, flip, {"a": 1, "b": 1, "c": 1}, 1)
    carriers = [a for a in wide_diamond.automorphisms()
                if a.compose(flip).compose(a.inverse()) == flip]
    assert len(carriers) > 1
    calls = _counting_hypotheses(monkeypatch)
    assert equivalent(s1, positive).equivalent
    assert len(calls) == 1
    calls.clear()
    verdict = equivalent(s1, negative)
    assert not verdict.equivalent and verdict.distinguisher == "chi"
    assert len(calls) == 1
    calls.clear()
    assert equivalent_inner(s1, s1).equivalent
    assert len(calls) == 1


def test_large_prime_scalings_differ_in_chi(diamond):
    """Fixed-point scalings by two primes above the trial-division range
    are told apart by their square classes, whose ratio is never
    factorized."""
    alg = IncidenceAlgebra(diamond, QQ)
    flip = diamond_flip(diamond)
    s1 = rho_eps(alg, flip, {"a": 1, "b": 999999999989}, 1)
    s2 = rho_eps(alg, flip, {"a": 1, "b": 999999999959}, 1)
    verdict = equivalent_inner(s1, s2)
    assert not verdict.equivalent and verdict.distinguisher == "chi"


# -- the reduction each spec holds ------------------------------------------

FIXTURES = ("chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond")


def conjugate_of(spec, rng):
    """A random inner conjugate of ``spec``, built as a new spec."""
    alg = spec.alg
    u = random_d_unit(alg, rng)
    return build(alg, u * spec.theta * spec.base_apply(u), spec.lam, spec.k)


def representatives(alg, lam, values=(1, 2)):
    """The class representatives of ``lam``; over Q, where two or more fixed
    points give infinitely many classes, those of rho_eps with eps in
    ``values`` (signed squarefree integers) and the first point's value 1."""
    field = alg.field
    reps = classify(alg.poset, lam, field).representatives
    if reps is None:
        fixed = lam.fixed_points()
        reps = [rho_eps(alg, lam, dict(zip(fixed, (1,) + rest)), k)
                for rest in itertools.product(values, repeat=len(fixed) - 1)
                for k in (1, -1)]
    return reps


@pytest.mark.parametrize("field", (F3, F5, PrimeField(7), QQ),
                         ids=("F3", "F5", "F7", "Q"))
@pytest.mark.parametrize("name", ("chain2", "chain3", "diamond",
                                  "wide_diamond"))
def test_conjugates_reduce_to_their_classify_representative(request, name,
                                                            field):
    """A random inner conjugate of a representative, its theta scaled by a
    random central unit as well, reduces to that representative's theta
    and sign: every spec of a class reduces to the one representative
    ``classify`` lists for it, whatever its fixed-point diagonal."""
    poset = request.getfixturevalue(name)
    rng = random.Random(name + field.name)
    alg = IncidenceAlgebra(poset, field)
    for lam in poset.involutions():
        for rep in representatives(alg, lam, values=(1, -1, 2, -6)):
            for _ in range(3):
                x = conjugate_of(rep, rng)
                bimodule = field.zero if x.k == field.one else field.random(rng)
                x = build(alg, central_pair(alg, field.random_nonzero(rng),
                                            bimodule) * x.theta, x.lam, x.k)
                base = x._reduction[0]
                assert (base.theta, base.lam, base.k) == \
                    (rep.theta, rep.lam, rep.k)


def test_repeated_queries_reduce_a_representative_once(diamond, monkeypatch):
    """Over repeated ``equivalent_inner(x, rep)`` calls the representative
    is reduced to its canonical form once: one ``symmetric_decompose`` for
    it, one for each new x, and none for an x asked again."""
    calls = []
    real = involutions.symmetric_decompose
    monkeypatch.setattr(involutions, "symmetric_decompose",
                        lambda theta, base: calls.append(base)
                        or real(theta, base))
    rng = random.Random(10)
    alg = IncidenceAlgebra(diamond, F5)
    for lam in diamond.involutions():
        for rep in representatives(alg, lam):
            xs = [conjugate_of(rep, rng) for _ in range(4)]
            calls.clear()
            for x in xs + xs:
                assert equivalent_inner(x, rep).equivalent
            assert len(calls) == len(xs) + 1


@pytest.mark.parametrize("field", (F3, F5, QQ), ids=("F3", "F5", "Q"))
@pytest.mark.parametrize("name", FIXTURES)
def test_reused_representative_answers_as_a_fresh_copy(request, name, field):
    """Verdict and witness JSON against a representative whose reduction
    is already stored equal those against a copy built afresh from its
    JSON, with the representative on either side.  The crown (its H_1 is
    not zero) and the two chains (not connected) fail the gate, and the
    vee and the wedge have no involution."""
    poset = request.getfixturevalue(name)
    try:
        require_classifiable(poset, field)
    except (HypothesisFailed, NotConnected):
        assert name in ("crown", "two_chains")
        return
    assert bool(poset.involutions()) == (name not in ("vee", "wedge"))
    rng = random.Random(name)
    alg = IncidenceAlgebra(poset, field)
    for lam in poset.involutions():
        reps = representatives(alg, lam)
        for rep in reps:
            for x in reps + [conjugate_of(rep, rng)]:
                fresh = involution_from_json(alg, rep.to_json())
                assert (equivalent_inner(x, rep).to_json()
                        == equivalent_inner(x, fresh).to_json())
                assert (equivalent_inner(rep, x).to_json()
                        == equivalent_inner(fresh, x).to_json())
            assert "_reduction" in vars(rep)


def test_cached_reduction_dies_with_its_spec(diamond):
    """No reference cycle keeps a spec or its stored reduction alive: with
    the cycle collector off, the spec and its base involution are
    freed as soon as the last reference to the spec goes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(11)
        alg = IncidenceAlgebra(diamond, F5)
        for lam in diamond.involutions():
            for rep in representatives(alg, lam):
                spec = conjugate_of(rep, rng)
                assert equivalent_inner(spec, rep).equivalent
                refs = [weakref.ref(spec), weakref.ref(spec._reduction[0])]
                del spec
                assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_central_ratio_and_invariant_are_computed_once_per_spec(
        diamond, monkeypatch):
    """However often ``central_ratio``, ``symmetric_form`` and
    ``invariant`` ask, a spec tests its ratio's centrality once after the
    constructor's test, and builds its invariant once."""
    calls = []
    real = DElem.is_central
    monkeypatch.setattr(DElem, "is_central",
                        lambda self: calls.append(self) or real(self))
    rng = random.Random(12)
    alg = IncidenceAlgebra(diamond, F5)
    for lam in diamond.involutions():
        for rep in representatives(alg, lam):
            spec = conjugate_of(rep, rng)
            calls.clear()
            first = spec.invariant()
            for _ in range(3):
                assert spec.invariant() is first
                spec.symmetric_form()
                assert spec.central_ratio() == spec._central_ratio
            assert len(calls) == 1


def test_a_spec_that_fails_its_ratio_check_raises_on_every_call(chain2):
    # over F2 with k = 1 the ratio [delta; delta] is central but not plain
    alg = IncidenceAlgebra(chain2, PrimeField(2))
    plain = InvolutionSpec(alg, DElem(alg.delta(), alg.e("a", "a")),
                           swap_involution(chain2), 1)
    # a unit whose ratio is not central, let through unchecked
    alg5 = IncidenceAlgebra(chain2, F5)
    rng = random.Random(13)
    lam = swap_involution(chain2)
    skewed = next(s for s in (InvolutionSpec(alg5, random_d_unit(alg5, rng),
                                             lam, 1, _validated=True)
                              for _ in range(50))
                  if not s._ratio.is_central())
    for spec, match in ((plain, "positive sign forces a plain ratio"),
                        (skewed, "not symmetric up to the center")):
        for ask in (spec.central_ratio, spec.symmetric_form, spec.invariant) * 2:
            with pytest.raises(NotAnInvolution, match=match):
                ask()
        assert "_central_ratio" not in vars(spec)
        assert "_invariant" not in vars(spec)


def test_spec_refuses_a_poset_map_that_is_not_an_anti_involution(chain2):
    """The identity is an involution but preserves order; the reversal of
    a chain on other labels is an anti-involution of another poset."""
    alg = IncidenceAlgebra(chain2, F5)
    other = Poset.from_covers(["x", "y"], [("x", "y")])
    for lam in (identity_map(chain2), other.involutions()[0]):
        with pytest.raises(ParseError, match="order-reversing involution of "
                                             "the algebra's poset"):
            InvolutionSpec(alg, d_one(alg), lam, 1)


def test_central_ratio_off_a_disconnected_poset_is_not_a_scalar_pair():
    """``build`` refuses a disconnected poset, whose center is not the
    scalars; a spec built directly on the antichain {a, b} with the swap
    and theta = diag(1, 2) has the central ratio diag(2, 3) over F5."""
    poset = Poset.from_covers(["a", "b"], [])
    alg = IncidenceAlgebra(poset, F5)
    swap = next(m for m in poset.involutions() if m("a") == "b")
    theta = DElem(alg.diagonal({"a": 1, "b": 2}), alg.zero())
    spec = InvolutionSpec(alg, theta, swap, 1)
    with pytest.raises(NotAnInvolution, match="not a scalar pair"):
        spec.central_ratio()
