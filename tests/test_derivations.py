import random

import pytest

from incalg.derivations import (
    DerivationSpec, additive_is_inner, der_equals_ider, find_non_inner_additive,
    leibniz_check, split_raw_derivation, validate_additive_cocycle,
)
from incalg.errors import InvalidCocycle, NotADerivation
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.morphisms import FiLinearMap
from incalg.posets import Poset

F2 = PrimeField(2)
F5 = PrimeField(5)


def random_derivation(alg, rng):
    tau = random_cocycle(alg, rng)
    return DerivationSpec(alg, inner=alg.random(rng), tau=tau)


def random_cocycle(alg, rng):
    """Random additive cocycle from a random diagonal potential (always
    valid; on posets where not every cocycle is a coboundary the
    find_non_inner_additive helper produces the rest)."""
    c = {x: alg.field.random(rng) for x in alg.poset.elements}
    return {(x, y): alg.field.sub(c[y], c[x]) for x, y in alg.poset.strict_pairs}


def test_zero_derivation(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    d = DerivationSpec(alg)
    rng = random.Random(0)
    for _ in range(5):
        assert d.apply(alg.random(rng)) == alg.zero()


def test_inner_derivation_on_basis(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    d = DerivationSpec(alg, inner=alg.e("a", "b"))
    assert d.apply(alg.e("a", "a")) == alg.e("a", "b")
    assert d.apply(alg.e("b", "b")) == -alg.e("a", "b")
    assert d.apply(alg.e("a", "b")) == alg.zero()


def test_additive_derivation_scales_entries(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    tau = {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 3}
    d = DerivationSpec(alg, tau=tau)
    assert d.apply(alg.e("a", "c")) == alg.e("a", "c").scale(3)
    assert d.apply(alg.e("a", "b")) == alg.e("a", "b")
    assert d.apply(alg.e("a", "a")) == alg.zero()


def test_leibniz_holds_by_construction(diamond):
    rng = random.Random(1)
    for field in (F5, QQ):
        alg = IncidenceAlgebra(diamond, field)
        for _ in range(5):
            assert leibniz_check(alg, random_derivation(alg, rng))


def test_leibniz_rejects_identity_map(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    ident = FiLinearMap.identity(alg)
    assert not leibniz_check(alg, ident)


def test_leibniz_rejects_broken_cocycle_scaling(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    # scaling by tau with tau(a,b) + tau(b,c) != tau(a,c) fails on e_ab e_bc
    bad = {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3}
    scale = alg.element({p: v for p, v in bad.items()})

    class EntryScale:
        def apply(self, f):
            vals = tuple(alg.field.mul(scale.vals[k], f.vals[k])
                         for k in range(alg.npairs))
            return type(f)(alg, vals)

    assert not leibniz_check(alg, EntryScale())
    with pytest.raises(InvalidCocycle):
        validate_additive_cocycle(alg, bad)


def test_additive_is_inner_explicit_witness(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    tau = {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 3}
    f = additive_is_inner(alg, tau)
    assert f is not None
    # anchored at the first all-comparable point a: 0, tau(a,b), tau(a,c)
    assert f.diagonal_values() == {"a": 0, "b": 1, "c": 3}
    assert DerivationSpec(alg, inner=f).to_linear() == \
        DerivationSpec(alg, tau=tau).to_linear()
    # listed middle point first, the anchor is b: -tau(a,b), 0, tau(b,c)
    middle_first = Poset.from_covers(["b", "a", "c"], [("a", "b"), ("b", "c")])
    alg = IncidenceAlgebra(middle_first, F5)
    f = additive_is_inner(alg, tau)
    assert f.diagonal_values() == {"a": alg.field.neg(1), "b": 0, "c": 2}
    assert DerivationSpec(alg, inner=f).to_linear() == \
        DerivationSpec(alg, tau=tau).to_linear()


def test_additive_is_inner_crown_counterexample(crown):
    alg = IncidenceAlgebra(crown, QQ)
    tau = {("a", "c"): QQ(0), ("a", "d"): QQ(0),
           ("b", "c"): QQ(0), ("b", "d"): QQ(1)}
    assert additive_is_inner(alg, tau) is None


def test_additive_is_inner_fence_always_witnessed(fence):
    alg = IncidenceAlgebra(fence, QQ)
    rng = random.Random(2)
    # fence has no anchor, so this exercises the spanning-tree branch
    assert fence.all_comparable_elements() == set()
    for _ in range(20):
        tau = random_cocycle(alg, rng)
        f = additive_is_inner(alg, tau)
        assert f is not None
        assert DerivationSpec(alg, inner=f).to_linear() == \
            DerivationSpec(alg, tau=tau).to_linear()
    # and on the fence every cocycle is of that kind
    assert find_non_inner_additive(alg) is None


def test_der_equals_ider_table(chain3, crown, fence):
    assert der_equals_ider(chain3, F5)
    assert not der_equals_ider(crown, QQ)
    assert der_equals_ider(fence, QQ)
    assert not der_equals_ider(crown, F5)
    assert not der_equals_ider(crown, F2)


def test_der_verdict_matches_witness_search(chain3, crown, fence, diamond):
    for poset in (chain3, crown, fence, diamond):
        for field in (F5, QQ):
            alg = IncidenceAlgebra(poset, field)
            tau = find_non_inner_additive(alg)
            if der_equals_ider(poset, field):
                assert tau is None
            else:
                assert tau is not None
                assert additive_is_inner(alg, tau) is None


def test_der_equals_ider_brute_force_f2(crown, fence, chain3):
    # enumerate every additive cocycle over GF(2) and test innerness
    import itertools
    for poset, expect in ((crown, False), (fence, True), (chain3, True)):
        alg = IncidenceAlgebra(poset, F2)
        pairs = poset.strict_pairs
        all_inner = True
        for vals in itertools.product(range(2), repeat=len(pairs)):
            tau = dict(zip(pairs, vals))
            try:
                validate_additive_cocycle(alg, tau)
            except InvalidCocycle:
                continue
            if additive_is_inner(alg, tau) is None:
                all_inner = False
        assert all_inner == expect
        assert der_equals_ider(poset, F2) == expect


def test_split_inner_only(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    raw = DerivationSpec(alg, inner=alg.e("a", "b")).to_linear()
    spec = split_raw_derivation(raw)
    assert spec.to_linear() == raw
    assert all(v == alg.field.zero for v in spec.tau.values())


def test_split_additive_only(chain3):
    alg = IncidenceAlgebra(chain3, QQ)
    tau = {("a", "b"): QQ(1), ("b", "c"): QQ(2), ("a", "c"): QQ(3)}
    raw = DerivationSpec(alg, tau=tau).to_linear()
    spec = split_raw_derivation(raw)
    assert spec.to_linear() == raw
    assert spec.tau == tau


def test_split_mixed_random(diamond):
    rng = random.Random(3)
    for field in (F5, QQ):
        alg = IncidenceAlgebra(diamond, field)
        for _ in range(10):
            d = random_derivation(alg, rng)
            raw = d.to_linear()
            spec = split_raw_derivation(raw)
            assert spec.to_linear() == raw
            # normalization: diagonal of the inner part vanishes at the head
            assert spec.inner["0", "0"] == field.zero


def test_split_rejects_non_derivation(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    with pytest.raises(NotADerivation):
        split_raw_derivation(FiLinearMap.identity(alg))
