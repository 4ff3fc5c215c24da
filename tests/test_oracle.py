import random

import pytest

from incalg.errors import (
    NotAUnit, NotConnected, ParseError, SizeLimit, WitnessFailed,
)
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import (
    DElem, DLinearMap, central_pair, d_one, inner_auto,
)
from incalg.involutions import base_involution, build, sigma_lambda
from incalg.posets import Poset
from incalg import oracle
from incalg.oracle import (
    count_units, enumerate_involutions_D, enumerate_units, orbit_partition,
    unit_group_generators,
)

from test_involutions import random_symmetric_theta

F3 = PrimeField(3)


def test_unit_counts(chain2, chain3):
    a2 = IncidenceAlgebra(chain2, F3)
    a3 = IncidenceAlgebra(chain3, F3)
    assert count_units(a2, "FI") == 12
    assert count_units(a2, "D") == 324
    assert count_units(a3, "D") == 157464


@pytest.mark.parametrize("ring", ["fi", "d", "", None])
def test_an_unknown_ring_is_refused(chain2, ring):
    alg = IncidenceAlgebra(chain2, F3)
    with pytest.raises(ParseError, match=repr(ring)):
        count_units(alg, ring)
    with pytest.raises(ParseError, match=repr(ring)):
        list(enumerate_units(alg, ring))


def test_enumerate_units_chain2(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    fi_units = list(enumerate_units(alg, "FI"))
    assert len(fi_units) == 12
    assert all(f.is_unit() for f in fi_units)
    assert len(set(fi_units)) == 12
    d_units = list(enumerate_units(alg, "D"))
    assert len(d_units) == 324
    assert all(d.is_unit() for d in d_units)


def test_enumerate_units_guards(chain3, chain2):
    with pytest.raises(SizeLimit):
        list(enumerate_units(IncidenceAlgebra(chain3, F3), "D", limit=1000))
    with pytest.raises(SizeLimit):
        list(enumerate_units(IncidenceAlgebra(chain2, QQ), "FI"))


def test_involution_enumeration_refuses_a_disconnected_poset(two_chains):
    with pytest.raises(NotConnected, match="need a connected poset"):
        enumerate_involutions_D(IncidenceAlgebra(two_chains, F3))


def test_involution_enumeration_refuses_an_infinite_field(chain2):
    with pytest.raises(SizeLimit, match="over an infinite field"):
        enumerate_involutions_D(IncidenceAlgebra(chain2, QQ))


def test_involution_enumeration_refuses_more_units_than_the_limit(chain2):
    with pytest.raises(SizeLimit, match="^324 units exceeds the limit 323$"):
        enumerate_involutions_D(IncidenceAlgebra(chain2, F3), limit=323)


def test_unit_group_generators_refuse_an_infinite_field(chain2):
    with pytest.raises(SizeLimit, match="for finite fields only"):
        unit_group_generators(IncidenceAlgebra(chain2, QQ))


def test_involution_enumeration_chain2(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    # every matrix squares to the identity and is anti-multiplicative
    rng = random.Random(0)
    from incalg.idealization import random_delem
    ident = DLinearMap.identity(alg)
    for m in invs:
        assert m.compose(m) == ident
    for m in invs[:8]:
        for _ in range(5):
            a, b = random_delem(alg, rng), random_delem(alg, rng)
            assert m.apply(a * b) == m.apply(b) * m.apply(a)
    # library-made involutions all appear in the oracle list
    keys = {m.cols for m in invs}
    lam = chain2.involutions()[0]
    for k in (1, -1):
        assert base_involution(alg, lam, k).to_linear().cols in keys
        assert sigma_lambda(alg, lam, k).to_linear().cols in keys
        for _ in range(10):
            theta = random_symmetric_theta(alg, lam, alg.field(k), rng)
            if not theta.is_unit():
                continue
            spec = build(alg, theta, lam, k)
            assert spec.to_linear().cols in keys


def test_orbit_partition_chain2_four_blocks(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    units = list(enumerate_units(alg, "D"))
    partition = orbit_partition(invs, units)
    assert len(partition) == 4
    # the four named representatives land in four different blocks
    lam = chain2.involutions()[0]
    reps = [base_involution(alg, lam, 1), base_involution(alg, lam, -1),
            sigma_lambda(alg, lam, 1), sigma_lambda(alg, lam, -1)]
    index = {m.cols: i for i, m in enumerate(invs)}
    block_of = {}
    for bi, block in enumerate(partition):
        for i in block:
            block_of[i] = bi
    rep_blocks = {block_of[index[r.to_linear().cols]] for r in reps}
    assert len(rep_blocks) == 4


def test_orbit_partition_generators_match_full_units(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    full = orbit_partition(invs, list(enumerate_units(alg, "D")))
    gens = orbit_partition(invs, unit_group_generators(alg))
    assert [sorted(b) for b in full] == [sorted(b) for b in gens]


def test_orbit_partition_trivial_conjugators(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    singletons = orbit_partition(invs, [d_one(alg)])
    assert len(singletons) == len(invs)
    central = orbit_partition(
        invs, [central_pair(alg, 1, 1), central_pair(alg, 2, 0)])
    assert len(central) == len(invs)


def test_orbit_partition_rejects_a_set_that_is_not_closed(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    with pytest.raises(WitnessFailed, match="not closed under conjugation"):
        orbit_partition(invs[:1], unit_group_generators(alg))


def test_sign_constant_on_orbits(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    partition = orbit_partition(invs, unit_group_generators(alg))
    # sign = action on [0; delta]
    signs = []
    zero_delta = DElem(alg.zero(), alg.delta())
    x0 = chain2.elements[0]
    for m in invs:
        signs.append(m.apply(zero_delta).i[x0, x0])
    for block in partition:
        assert len({signs[i] for i in block}) == 1


def test_orbit_counts_match_classifier_chain2(chain2):
    from incalg.involutions import classify
    alg = IncidenceAlgebra(chain2, F3)
    lam = chain2.involutions()[0]
    res = classify(chain2, lam, F3)
    invs = enumerate_involutions_D(alg)
    partition = orbit_partition(invs, unit_group_generators(alg))
    assert res.count == len(partition)


@pytest.fixture
def chain2_and_point():
    # two components: a < b, and c alone
    return Poset.from_covers(["a", "b", "c"], [("a", "b")])


@pytest.mark.parametrize("name, p, count", [
    ("chain2", 3, 5), ("chain3", 2, 8), ("vee", 2, 8), ("wedge", 3, 8),
    ("chain2_and_point", 3, 7), ("two_chains", 2, 10)],
    ids=["chain2-F3", "chain3-F2", "vee-F2", "wedge-F3", "chain2+point-F3",
         "two-chains-F2"])
def test_unit_generators_generate(name, p, count, request):
    # n diagonal scalings, one shift per cover, n diagonal bimodule shifts;
    # their closure under multiplication is the whole unit group
    poset = request.getfixturevalue(name)
    alg = IncidenceAlgebra(poset, PrimeField(p))
    gens = unit_group_generators(alg)
    assert len(gens) == 2 * poset.n + len(poset.covers) == count
    seen = {d_one(alg)}
    frontier = [d_one(alg)]
    while frontier:
        u = frontier.pop()
        for g in gens:
            w = u * g
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert len(seen) == count_units(alg, "D")


@pytest.mark.parametrize("name, p", [
    ("chain2_and_point", 3), ("two_chains", 2), ("chain2_and_point", 2)],
    ids=["chain2+point-F3", "two-chains-F2", "chain2+point-F2"])
def test_generators_partition_like_the_whole_group_on_two_components(
        name, p, request):
    # per component one scaling and one bimodule shift are central; the
    # inner automorphisms are closed under conjugation, and their orbits
    # are the conjugacy classes modulo the center
    poset = request.getfixturevalue(name)
    alg = IncidenceAlgebra(poset, PrimeField(p))
    units = list(enumerate_units(alg, "D"))
    items = list({m.cols: m for m in map(inner_auto, units)}.values())
    full = orbit_partition(items, units)
    assert orbit_partition(items, unit_group_generators(alg)) == full
    assert len(full) < len(items)
    # the scaling on each component and [delta; delta_C] act as the
    # identity, and over F2 (root 1) so does every scaling
    identity = DLinearMap.identity(alg)
    central = [g for g in unit_group_generators(alg)
               if inner_auto(g) == identity]
    comps = len(poset.components())
    assert len(central) == (poset.n if p == 2 else comps) + comps


def test_generators_partition_like_the_whole_group_over_F2(chain3):
    # the primitive root is 1, so every scaling acts as the identity
    alg = IncidenceAlgebra(chain3, PrimeField(2))
    invs = enumerate_involutions_D(alg)
    full = orbit_partition(invs, list(enumerate_units(alg, "D")))
    assert orbit_partition(invs, unit_group_generators(alg)) == full


def test_identity_actions_are_never_planned(chain2, monkeypatch):
    """Central conjugators never reach the plan builder, and an identity
    extra map gets an empty plan, which ``orbit_partition`` drops."""
    alg = IncidenceAlgebra(chain2, F3)
    invs = enumerate_involutions_D(alg)
    identity = DLinearMap.identity(alg)
    plans, plan = [], oracle._action_plan

    def recording(psi, psi_inv, p, cells):
        plans.append((psi, plan(psi, psi_inv, p, cells)))
        return plans[-1][1]

    monkeypatch.setattr(oracle, "_action_plan", recording)
    central = [d_one(alg), central_pair(alg, 2, 1), central_pair(alg, 1, 2)]
    got = orbit_partition(invs, central, [(identity, identity)])
    assert got == [[i] for i in range(len(invs))]
    assert plans == [(identity.cols, [])]
    del plans[:]
    orbit_partition(invs, unit_group_generators(alg) + central,
                    [(identity, identity)])
    planned = [psi for psi, moves in plans if moves]
    assert len(planned) == 3 and identity.cols not in planned
    assert plans[-1] == (identity.cols, [])


@pytest.mark.parametrize("p", [3, 5])
def test_central_conjugators_are_never_conjugated(chain2, p, monkeypatch):
    """A central unit acts as the identity, so ``orbit_partition`` skips it
    before building its action; partitions cannot see the two calls of
    ``_conjugation`` that building it would cost, so they are counted."""
    alg = IncidenceAlgebra(chain2, PrimeField(p))
    invs = enumerate_involutions_D(alg)
    gens = unit_group_generators(alg)
    calls, conjugation = [], oracle._conjugation

    def counting(g, h):
        calls.append(None)
        return conjugation(g, h)

    monkeypatch.setattr(oracle, "_conjugation", counting)
    central = [d_one(alg), central_pair(alg, 2, 1)]
    assert orbit_partition(invs, central) == [[i] for i in range(len(invs))]
    assert calls == []
    orbit_partition(invs, gens + central)
    # the scaling on the component and [delta; delta_C] are central
    assert len(gens) == 5 and sum(g.is_central() for g in gens) == 2
    assert len(calls) == 2 * 3


def test_a_central_non_unit_conjugator_is_refused(chain2):
    alg = IncidenceAlgebra(chain2, F3)
    non_unit = DElem(alg.zero(), alg.delta())  # [0; delta]
    assert non_unit.is_central()
    units = unit_group_generators(alg)
    for conjugators in ([non_unit], units + [non_unit]):
        with pytest.raises(NotAUnit):
            orbit_partition([DLinearMap.identity(alg)], conjugators)


def _units_and_a_non_unit(alg):
    """Unit conjugators (the generators over a finite field, random units
    over Q) and [e_xy; delta], whose ring coordinate is not a unit."""
    if alg.field.order is not None:
        units = unit_group_generators(alg)
    else:
        rng = random.Random(3)
        units = [DElem(alg.random_unit(rng), alg.random(rng)) for _ in range(3)]
    x, y = alg.poset.strict_pairs[0]
    return units, DElem(alg.e(x, y), alg.delta())


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
def test_orbit_partition_refuses_a_non_unit_conjugator(chain2, field):
    alg = IncidenceAlgebra(chain2, field)
    units, non_unit = _units_and_a_non_unit(alg)
    items = [DLinearMap.identity(alg)]
    for conjugators in ([non_unit], units + [non_unit], [non_unit] + units):
        with pytest.raises(NotAUnit):
            orbit_partition(items, conjugators)
        with pytest.raises(NotAUnit):
            orbit_partition([], conjugators)


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
def test_orbit_partition_of_no_items_is_empty(chain2, field):
    alg = IncidenceAlgebra(chain2, field)
    units, _ = _units_and_a_non_unit(alg)
    assert orbit_partition([], units) == []
    assert orbit_partition([], []) == []
    assert orbit_partition([DLinearMap.identity(alg)], units) == [[0]]
