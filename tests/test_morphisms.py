import random

import pytest

from incalg.derivations import DerivationSpec, additive_is_inner
from incalg.errors import ContextMismatch, InvalidCocycle, NotAMorphism, NotUnital
from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField, _primitive_root
from incalg.morphisms import (
    FiaMorphism, FiLinearMap, compose, decompose,
    find_non_inner_cocycle, mult_subset_inn, multiplicative_is_inner,
)
from incalg.posets import PosetMap

from conftest import is_identity

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def multiplicative_part_trivial(m):
    """Whether the factored morphism's cocycle scaling is identically 1."""
    return all(v == m.alg.field.one for v in m.sigma.values())


def random_morphism(alg, rng, anti=False):
    """Random factored morphism; cocycle sampled as a coboundary."""
    u = alg.random_unit(rng)
    eta = {x: alg.field.random_nonzero(rng) for x in alg.poset.elements}
    sigma = {(x, y): alg.field.div(eta[x], eta[y])
             for x, y in alg.poset.strict_pairs}
    maps = alg.poset.anti_automorphisms() if anti else alg.poset.automorphisms()
    posetmap = rng.choice(maps)
    return FiaMorphism(alg, u=u, sigma=sigma, posetmap=posetmap)


def test_unit_or_poset_map_of_another_algebra_is_refused(vee, wedge):
    """A poset map between two other posets of the same size, and a unit
    on the same poset over another field, are refused when the morphism is
    built, not later in ``apply``."""
    alg = IncidenceAlgebra(vee, F5)
    swap = next(m for m in wedge.automorphisms() if m.mapping["a"] == "b")
    with pytest.raises(ContextMismatch, match="^poset map over a different poset$"):
        FiaMorphism(alg, posetmap=swap)
    with pytest.raises(ContextMismatch, match="^unit over a different context$"):
        FiaMorphism(alg, u=IncidenceAlgebra(vee, F3).delta().scale(2))


def test_identity_and_basic_actions(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    rng = random.Random(0)
    ident = FiaMorphism(alg)
    for _ in range(10):
        f = alg.random(rng)
        assert ident.apply(f) == f
    swap = chain2.involutions()[0]
    rho = FiaMorphism.induced(alg, swap)
    assert rho.apply(alg.e("a", "b")) == alg.e("a", "b")
    assert rho.apply(alg.e("a", "a")) == alg.e("b", "b")
    m = FiaMorphism(alg, sigma={("a", "b"): 2})
    assert m.apply(alg.e("a", "b")) == alg.e("a", "b").scale(2)
    assert m.apply(alg.delta()) == alg.delta()


@pytest.mark.parametrize("field", (F5, QQ), ids=("F5", "Q"))
def test_default_conjugator_matches_explicit_conjugation(diamond, field):
    """With the default conjugator u = delta, ``apply`` skips u x u^-1; it
    must give what explicit conjugation by ``alg.delta()`` of the relabeled,
    scaled function gives, for every (anti-)automorphism of the poset, with
    and without a cocycle scaling.  A conjugator other than the unity still
    conjugates."""
    alg = IncidenceAlgebra(diamond, field)
    rng = random.Random(f"delta:{field!r}")
    delta = alg.delta()
    eta = {x: field.random_nonzero(rng) for x in diamond.elements}
    coboundary = {(x, y): field.div(eta[x], eta[y])
                  for x, y in diamond.strict_pairs}
    for lam in diamond.automorphisms() + diamond.anti_automorphisms():
        back = lam.inverse()
        for sigma in ({}, coboundary):
            m = FiaMorphism(alg, sigma=sigma, posetmap=lam)
            for f in (alg.random(rng), alg.delta(), alg.zero()):
                # g(x, y) = sigma(x, y) f(lam^-1 x, lam^-1 y), the source
                # pair reversed when lam reverses the order
                moved = {}
                for x, y in alg.pairs:
                    src = ((back(y), back(x)) if lam.anti
                           else (back(x), back(y)))
                    moved[(x, y)] = field.mul(sigma.get((x, y), field.one),
                                              f[src])
                g = alg.element(moved)
                assert m.apply(f) == delta * g * delta.inverse()
    u = alg.random_unit(rng)
    f = alg.random(rng)
    assert FiaMorphism.inner(alg, u).apply(f) == u * f * u.inverse()


def test_induced_map_images(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    flip = next(m for m in diamond.involutions()
                if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})
    rho = FiaMorphism.induced(alg, flip)
    # order-reversing relabel sends the pair (x, y) to (map(y), map(x))
    assert rho.apply(alg.e("0", "a")) == alg.e("a", "1")
    assert rho.apply(alg.e("0", "1")) == alg.e("0", "1")
    swap = next(m for m in diamond.automorphisms() if not is_identity(m))
    alpha = FiaMorphism.induced(alg, swap)
    assert alpha.apply(alg.e("0", "a")) == alg.e("0", "b")


def test_anti_morphism_reverses_products(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    rng = random.Random(1)
    rho = random_morphism(alg, rng, anti=True)
    for _ in range(20):
        f, g = alg.random(rng), alg.random(rng)
        assert rho.apply(f * g) == rho.apply(g) * rho.apply(f)


def test_auto_morphism_preserves_products(diamond):
    alg = IncidenceAlgebra(diamond, QQ)
    rng = random.Random(2)
    phi = random_morphism(alg, rng)
    for _ in range(20):
        f, g = alg.random(rng), alg.random(rng)
        assert phi.apply(f * g) == phi.apply(f) * phi.apply(g)


def test_inner_equality_iff_central_ratio(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    rng = random.Random(3)
    for _ in range(30):
        a = alg.random_unit(rng)
        b = alg.random_unit(rng)
        same = FiaMorphism.inner(alg, a).to_linear() == \
            FiaMorphism.inner(alg, b).to_linear()
        assert same == alg.is_central(a * b.inverse())
    a = alg.random_unit(rng)
    c = alg.delta().scale(3)
    assert FiaMorphism.inner(alg, a).to_linear() == \
        FiaMorphism.inner(alg, a * c).to_linear()


def test_decompose_round_trip_random(diamond, chain3, fence):
    rng = random.Random(4)
    for poset in (diamond, chain3, fence):
        for field in (F5, QQ):
            alg = IncidenceAlgebra(poset, field)
            for anti in (False, True):
                if anti and not poset.anti_automorphisms():
                    continue
                for _ in range(8):
                    m = random_morphism(alg, rng, anti)
                    got = decompose(m.to_linear(), anti=anti)
                    assert got.to_linear() == m.to_linear()
                    assert got.posetmap == m.posetmap


def test_decompose_reads_factors_without_products(diamond, fence,
                                                  monkeypatch):
    """The conjugator and the cocycle are read off single entries of the
    input's columns, and the recomposition is written in closed form, so
    decompose makes no ``IncFn`` product, accepting or rejecting."""
    products = []
    real = IncFn.__mul__
    monkeypatch.setattr(IncFn, "__mul__",
                        lambda f, g: products.append(1) or real(f, g))
    rng = random.Random(6)
    for poset in (diamond, fence):
        for field in (F5, QQ):
            alg = IncidenceAlgebra(poset, field)
            for anti in (False, True):
                if anti and not poset.anti_automorphisms():
                    continue
                raw = random_morphism(alg, rng, anti).to_linear()
                products.clear()
                decompose(raw, anti=anti)
                # the image of e_xy gets a diagonal entry: not nilpotent
                x, y = poset.strict_pairs[0]
                k, d = alg.pair_index[(x, y)], alg.pair_index[(x, x)]
                cols = [list(c) for c in raw.cols]
                cols[k][d] = field.add(cols[k][d], field.one)
                with pytest.raises(NotAMorphism):
                    decompose(FiLinearMap(alg, cols), anti=anti)
                assert products == []


def test_decompose_specific_conjugation(chain2):
    alg = IncidenceAlgebra(chain2, QQ)
    u = alg.delta() + alg.e("a", "b")
    raw = FiaMorphism.inner(alg, u).to_linear()
    got = decompose(raw)
    assert is_identity(got.posetmap)
    assert multiplicative_part_trivial(got)
    assert alg.is_central(got.u * u.inverse())


def test_decompose_already_factored_anti(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    swap = chain2.involutions()[0]
    raw = FiaMorphism.induced(alg, swap).to_linear()
    got = decompose(raw, anti=True)
    assert got.posetmap == swap
    assert alg.is_central(got.u)
    assert multiplicative_part_trivial(got)


def test_decompose_multiplicative_on_chain_is_inner(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    raw = FiaMorphism(alg, sigma={("a", "b"): 2}).to_linear()
    got = decompose(raw)
    eta = multiplicative_is_inner(alg, {("a", "b"): 2})
    assert eta is not None
    diag = alg.diagonal(eta)
    assert FiaMorphism.inner(alg, diag).to_linear() == raw
    assert got.to_linear() == raw


def test_decompose_rejects_bad_maps(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    with pytest.raises(NotUnital):
        decompose(FiLinearMap.from_function(alg, lambda f: f.scale(2)))
    # transpose-like flip is anti-multiplicative, not multiplicative
    swap = chain2.involutions()[0]
    raw = FiaMorphism.induced(alg, swap).to_linear()
    with pytest.raises(NotAMorphism):
        decompose(raw, anti=False)
    zero_map = FiLinearMap.from_function(alg, lambda f: alg.zero())
    with pytest.raises(NotUnital):
        decompose(zero_map)


def test_compose_anti_anti_is_auto(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    rng = random.Random(5)
    m1 = random_morphism(alg, rng, anti=True)
    m2 = random_morphism(alg, rng, anti=True)
    got = compose(m1, m2)
    assert not got.anti
    for _ in range(10):
        f = alg.random(rng)
        assert got.apply(f) == m1.apply(m2.apply(f))


def test_multiplicative_is_inner_on_chain(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    rng = random.Random(6)
    for _ in range(20):
        vals = {p: alg.field.random_nonzero(rng) for p in (("a", "b"), ("b", "c"))}
        vals[("a", "c")] = alg.field.mul(vals[("a", "b")], vals[("b", "c")])
        eta = multiplicative_is_inner(alg, vals)
        assert eta is not None
        for (x, y), v in vals.items():
            assert alg.field.div(eta[x], eta[y]) == v


def test_inner_witness_reproduces_scaling_as_matrices(diamond, fence):
    rng = random.Random(8)
    for poset in (diamond, fence):
        alg = IncidenceAlgebra(poset, F5)
        for _ in range(10):
            eta0 = {x: alg.field.random_nonzero(rng) for x in poset.elements}
            sigma = {(x, y): alg.field.div(eta0[x], eta0[y])
                     for x, y in poset.strict_pairs}
            eta = multiplicative_is_inner(alg, sigma)
            assert eta is not None
            assert FiaMorphism(alg, sigma=sigma).to_linear() == \
                FiaMorphism.inner(alg, alg.diagonal(eta)).to_linear()


def test_multiplicative_is_inner_crown_counterexample(crown):
    alg = IncidenceAlgebra(crown, F5)
    sigma = {("a", "c"): 1, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 2}
    assert multiplicative_is_inner(alg, sigma) is None
    alg2 = IncidenceAlgebra(crown, F2)
    sigma2 = {p: 1 for p in crown.strict_pairs}
    assert multiplicative_is_inner(alg2, sigma2) is not None


def test_invalid_cocycle_rejected(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    with pytest.raises(InvalidCocycle):
        multiplicative_is_inner(
            alg, {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2})
    with pytest.raises(InvalidCocycle):
        multiplicative_is_inner(
            alg, {("a", "b"): 0, ("b", "c"): 1, ("a", "c"): 0})


def test_mult_subset_inn_table(fence, crown, chain3, diamond):
    assert mult_subset_inn(fence, F5)
    assert not mult_subset_inn(crown, F5)
    assert mult_subset_inn(crown, F2)
    assert not mult_subset_inn(crown, QQ)
    # posets with an all-comparable element satisfy the property over any field
    for field in (F2, F3, F5, PrimeField(7), QQ):
        assert mult_subset_inn(chain3, field)
        assert mult_subset_inn(diamond, field)
    assert mult_subset_inn(fence, QQ)


def test_mult_subset_inn_matches_witness_search(fence, crown, chain3, diamond):
    for poset in (fence, crown, chain3, diamond):
        for field in (F3, F5, QQ):
            alg = IncidenceAlgebra(poset, field)
            sigma = find_non_inner_cocycle(alg)
            if mult_subset_inn(poset, field):
                assert sigma is None
            else:
                assert sigma is not None
                assert multiplicative_is_inner(alg, sigma) is None


def orbit_primitive_root(p):
    """The least t whose powers fill F_p*, by listing every power."""
    if p == 2:
        return 1
    for t in range(2, p):
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = v * t % p
            seen.add(v)
        if len(seen) == p - 1:
            return t
    raise LookupError(p)


def test_primitive_root_matches_listing_every_power():
    for p in range(2, 2000):
        if all(p % d for d in range(2, p)):
            assert _primitive_root(p) == orbit_primitive_root(p), p


def test_every_cocycle_inner_on_crown_f2_by_exhaustion(crown):
    # over GF(2) the only cocycle is all-ones and it is a coboundary
    alg = IncidenceAlgebra(crown, F2)
    import itertools
    count = 0
    for vals in itertools.product([1], repeat=4):
        sigma = dict(zip(crown.strict_pairs, vals))
        assert multiplicative_is_inner(alg, sigma) is not None
        count += 1
    assert count == 1


def test_mult_subset_inn_cross_checked_by_exhaustion_f3(crown, fence):
    # brute force over all cocycles with values in GF(3)
    import itertools
    for poset, expect in ((crown, False), (fence, True)):
        alg = IncidenceAlgebra(poset, F3)
        all_inner = True
        for vals in itertools.product([1, 2], repeat=len(poset.strict_pairs)):
            sigma = dict(zip(poset.strict_pairs, vals))
            try:
                if multiplicative_is_inner(alg, sigma) is None:
                    all_inner = False
            except InvalidCocycle:
                continue
        assert all_inner == expect
        assert mult_subset_inn(poset, F3) == expect


def fia_morphism_from_json(alg, obj):
    """The factored morphism ``FiaMorphism.to_json`` wrote."""
    mapping = {str(k): str(v) for k, v in obj["map"].items()}
    anti = bool(obj.get("anti", False))
    posetmap = PosetMap(alg.poset, alg.poset, mapping, anti)
    sigma = {}
    for key, sval in obj.get("sigma", {}).items():
        x, _, y = key.partition(",")
        sigma[(x.strip(), y.strip())] = alg.field.parse(sval)
    return FiaMorphism(alg, u=alg.from_json(obj["u"]), sigma=sigma,
                       posetmap=posetmap)


def test_fia_morphism_json_round_trip(diamond):
    rng = random.Random(7)
    alg = IncidenceAlgebra(diamond, F5)
    for anti in (False, True):
        m = random_morphism(alg, rng, anti)
        again = fia_morphism_from_json(alg, m.to_json())
        assert again.to_linear() == m.to_linear()


@pytest.mark.parametrize("entry", [
    lambda alg, values: FiaMorphism(alg, sigma=values),
    multiplicative_is_inner,
    lambda alg, values: DerivationSpec(alg, tau=values),
    additive_is_inner,
], ids=["FiaMorphism", "multiplicative_is_inner", "DerivationSpec",
        "additive_is_inner"])
@pytest.mark.parametrize("values, first", [
    ({("a", "b"): 2, ("b", "a"): 3, ("a", "z"): 1}, ("b", "a")),
    ({("a", "a"): 2, ("a", "b"): 2}, ("a", "a")),
    ({("a", "b"): 2, ("a", "z"): 1}, ("a", "z")),
], ids=["reversed", "diagonal", "unknown-label"])
def test_cocycle_keys_must_be_strict_pairs(chain2, entry, values, first):
    """A cocycle key that is not a strict pair is refused, and the first
    one is named, where a morphism or a derivation completes its cocycle
    and where an inner witness is searched for."""
    alg = IncidenceAlgebra(chain2, F5)
    with pytest.raises(InvalidCocycle, match="not a strict pair") as exc:
        entry(alg, values)
    assert repr(first) in str(exc.value)


def test_fia_morphism_guards_raise_not_a_morphism(chain2):
    alg = IncidenceAlgebra(chain2, PrimeField(5))
    with pytest.raises(NotAMorphism, match="conjugator must be a unit"):
        FiaMorphism(alg, u=alg.zero())


def test_morphism_kind_is_read_off_its_poset_map(chain2, diamond, fence):
    """A factored morphism has no kind of its own: every ``induced`` and
    every ``decompose`` result, of both kinds, reports the kind of its
    poset map."""
    rng = random.Random(11)
    for poset in (chain2, diamond, fence):
        for field in (F5, QQ):
            alg = IncidenceAlgebra(poset, field)
            for anti in (False, True):
                maps = (poset.anti_automorphisms() if anti
                        else poset.automorphisms())
                for lam in maps:
                    induced = FiaMorphism.induced(alg, lam)
                    assert induced.anti == lam.anti == anti
                if maps:
                    got = decompose(random_morphism(alg, rng, anti).to_linear(),
                                    anti=anti)
                    assert got.anti == got.posetmap.anti == anti
