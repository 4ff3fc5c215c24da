"""End-to-end agreement between the decision procedures and the oracle.

On chain2 over GF(3) everything is small enough to be exhaustive: every
ring involution of the idealization is recognized into normal form, every
pair is judged by the library, and the verdicts are compared with the
ground-truth conjugacy orbits.  chain3 over GF(3) is sampled.
"""

import random

from incalg.fia import IncidenceAlgebra
from incalg.fields import PrimeField
from incalg.idealization import inner_auto, lift_morphism
from incalg.involutions import equivalent, equivalent_inner, recognize
from incalg.morphisms import FiaMorphism
from incalg.oracle import (
    enumerate_involutions_D, enumerate_units, orbit_partition,
    unit_group_generators,
)

from test_idealization import lift_scalar

F3 = PrimeField(3)


def block_lookup(partition):
    return {i: bi for bi, block in enumerate(partition) for i in block}


def test_chain2_f3_full_agreement(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    assert len(invs) == 28
    units = list(enumerate_units(alg, "D"))
    partition = orbit_partition(invs, units)
    block_of = block_lookup(partition)

    specs = []
    for m in invs:
        spec = recognize(m)
        assert spec.to_linear() == m
        specs.append(spec)

    lam = chain2.involutions()[0]
    for spec in specs:
        assert spec.lam == lam

    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            verdict = equivalent_inner(specs[i], specs[j])
            assert verdict.equivalent == (block_of[i] == block_of[j]), \
                f"library and oracle disagree on pair ({i}, {j})"
            if verdict.equivalent:
                psi = inner_auto(verdict.conjugator)
                assert psi.compose(invs[i]) == invs[j].compose(psi)


def test_chain2_f3_general_agreement(chain2):
    # the only poset automorphism is the identity, so general equivalence
    # adds just the scalar-lift conjugations; the partition must not change
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    units = list(enumerate_units(alg, "D"))
    extra = []
    for alpha in chain2.automorphisms():
        m = lift_morphism(FiaMorphism.induced(alg, alpha))
        m_inv = lift_morphism(FiaMorphism.induced(alg, alpha.inverse()))
        extra.append((m, m_inv))
    for k in (1, 2):
        m = lift_scalar(alg, k)
        m_inv = lift_scalar(alg, alg.field.inv(k))
        extra.append((m, m_inv))
    inner_partition = orbit_partition(invs, units)
    general_partition = orbit_partition(invs, units, extra_maps=extra)
    assert [sorted(b) for b in inner_partition] == \
        [sorted(b) for b in general_partition]

    specs = [recognize(m) for m in invs]
    block_of = block_lookup(general_partition)
    rng = random.Random(0)
    pairs = [(rng.randrange(len(invs)), rng.randrange(len(invs)))
             for _ in range(60)]
    for i, j in pairs:
        assert equivalent(specs[i], specs[j]).equivalent == \
            (block_of[i] == block_of[j])


def test_chain3_f3_sampled_agreement(chain3):
    alg = IncidenceAlgebra(chain3, F3)
    invs = enumerate_involutions_D(alg)
    assert len(invs) == 648
    partition = orbit_partition(invs, unit_group_generators(alg))
    assert sorted(len(b) for b in partition) == [162, 486]
    block_of = block_lookup(partition)
    rng = random.Random(1)
    sample = rng.sample(range(len(invs)), 24)
    specs = {i: recognize(invs[i]) for i in sample}
    for i in sample:
        assert specs[i].to_linear() == invs[i]
    for idx, i in enumerate(sample):
        for j in sample[idx + 1:]:
            verdict = equivalent_inner(specs[i], specs[j])
            assert verdict.equivalent == (block_of[i] == block_of[j])
            if verdict.equivalent:
                psi = inner_auto(verdict.conjugator)
                assert psi.compose(invs[i]) == invs[j].compose(psi)


def test_oracle_sign_and_skew_structure(chain2):
    # orbits split by sign and by the plain/skew tag exactly as recognized
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    partition = orbit_partition(invs, unit_group_generators(alg))
    specs = [recognize(m) for m in invs]
    for block in partition:
        signs = {specs[i].k for i in block}
        kinds = {specs[i].invariant().kind for i in block}
        assert len(signs) == 1 and len(kinds) == 1


def test_wide_diamond_fold_matches_pairwise_decisions(wide_diamond):
    # the general classification folds 8 inner classes into 4; grouping the
    # 8 inner representatives by pairwise general equivalence must agree
    from incalg.involutions import classify
    flip = next(m for m in wide_diamond.involutions()
                if all(m.mapping[x] == x for x in "abc"))
    inner = classify(wide_diamond, flip, F3)
    reps = inner.representatives
    assert len(reps) == 8
    parent = list(range(len(reps)))

    def find(i):
        while parent[i] != i:
            i = parent[i] = parent[parent[i]]
        return i

    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if equivalent(reps[i], reps[j]).equivalent:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    classes = {find(i) for i in range(len(reps))}
    assert len(classes) == classify(wide_diamond, flip, F3, general=True).count
