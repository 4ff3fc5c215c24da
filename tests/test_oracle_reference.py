"""Differential tests for the oracle against its object-based reference.

``oracle.enumerate_involutions_D`` and ``oracle.orbit_partition`` run on
value tuples: a precomputed signed permutation for the relabel-and-sign
map, direct calls of the compiled product kernels, and conjugation of
flattened matrices through a per-action entry plan.  The fast enumeration
first rejects a candidate on its ring block, once per ring unit f: the ring
coordinates of a D-product are the product of the ring coordinates, so
those of the candidate's square on a ring basis vector depend on f alone,
and an f that misses there fails the whole-basis test for every bimodule
coordinate.  So the rejection is exact, and every candidate that passes it
still gets the whole-matrix test.  The fast partition builds each
conjugator's action from the D-product kernel and, from the action and its
inverse, a plan sending each cell of a matrix to the cells of its
conjugate.  The three functions below are the versions those replaced,
kept verbatim as the reference: they build a ``DElem`` for every product,
test every candidate on the whole basis, conjugate with dense
``DLinearMap.compose`` and ``inner_auto``, and generate the unit group
with every pair shift and every bimodule shift (the oracle uses the cover
shifts and the diagonal bimodule shifts only).  Both must return the same
matrices in the same order, and the fast partition under the oracle's
generators must equal the reference partition under the reference ones,
with and without ``python -O``; the ring-block rejection must keep exactly
the ring units that an ``IncFn`` computation of the ring block keeps, each
action must be ``inner_auto``'s matrix, and each plan must send a matrix
to its ``compose`` conjugate.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import incalg
from incalg import oracle
from incalg.errors import NotConnected, SizeLimit
from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import (
    DElem, DLinearMap, central_pair, d_basis, d_one, inner_auto,
)
from incalg.involutions import base_involution, sigma_lambda
from incalg.morphisms import _primitive_root
from incalg.oracle import (
    UNIT_LIMIT, _canonical_unit_ranges, count_units, enumerate_units,
)
from incalg.posets import Poset

from conftest import coords
from test_idealization import lift_scalar


def enumerate_involutions_D(alg, limit=UNIT_LIMIT):
    """All ring involutions of the idealization, as deduplicated matrices.

    Exhausts conjugates of every relabel-and-sign map by units taken one
    per central coset, keeps the maps that square to the identity on the
    whole basis, and dedupes by exact matrix equality.
    """
    poset, field = alg.poset, alg.field
    if not poset.is_connected():
        raise NotConnected("central cosets need a connected poset")
    total = count_units(alg, "D")
    if total is None:
        raise SizeLimit("cannot enumerate over an infinite field")
    if total > limit:
        raise SizeLimit(f"{total} units exceeds the limit {limit}")
    basis = d_basis(alg)
    f_ranges, i_ranges = _canonical_unit_ranges(alg)
    minus_one = field.neg(field.one)
    found = {}
    for lam in poset.involutions():
        perm = tuple(alg.pair_index[(lam(y), lam(x))] for x, y in alg.pairs)
        for k in (field.one, minus_one):
            def phi0(d, _perm=perm, _k=k):
                fvals = tuple(d.f.vals[i] for i in _perm)
                if _k == field.one:
                    ivals = tuple(d.i.vals[i] for i in _perm)
                else:
                    ivals = tuple(field.mul(_k, d.i.vals[i]) for i in _perm)
                return DElem(IncFn(alg, fvals), IncFn(alg, ivals))

            for fvals in product(*f_ranges):
                f = IncFn(alg, fvals)
                f_inv = f.inverse()
                for ivals in product(*i_ranges):
                    i = IncFn(alg, ivals)
                    theta = DElem(f, i)
                    theta_inv = DElem(f_inv, -(f_inv * i * f_inv))

                    def phi(d):
                        return theta * phi0(d) * theta_inv

                    if any(phi(phi(b)) != b for b in basis):
                        continue
                    mat = DLinearMap(alg, [coords(phi(b)) for b in basis])
                    found.setdefault(mat.cols, mat)
    return list(found.values())


def orbit_partition(items, conjugators, extra_maps=()):
    """Partition of ``items`` (matrices) under conjugation.

    ``conjugators`` are units; ``extra_maps`` are (map, inverse) matrix
    pairs joined into the same closure (used for non-inner conjugations).
    Returns a list of index lists; items must be closed under the action.
    """
    index = {m.cols: i for i, m in enumerate(items)}
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    actions = {}
    for g in conjugators:
        psi = inner_auto(g)
        if psi.cols not in actions:
            actions[psi.cols] = (psi, inner_auto(g.inverse()))
    for m, m_inv in extra_maps:
        if m.cols not in actions:
            actions[m.cols] = (m, m_inv)

    for i, item in enumerate(items):
        for psi, psi_inv in actions.values():
            image = psi.compose(item).compose(psi_inv)
            j = index.get(image.cols)
            if j is None:
                raise ValueError("items are not closed under conjugation")
            union(i, j)

    groups = {}
    for i in range(len(items)):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def unit_group_generators(alg):
    """A generating set of the unit group of the idealization: diagonal
    scalings by a primitive root, unipotent pair shifts, and bimodule
    basis shifts."""
    field = alg.field
    if field.order is None:
        raise SizeLimit("generators are enumerated for finite fields only")
    gens = []
    root = _primitive_root(field.order)
    delta, zero = alg.delta(), alg.zero()
    for x in alg.poset.elements:
        vals = {y: (root if y == x else field.one) for y in alg.poset.elements}
        gens.append(DElem(alg.diagonal(vals), zero))
    for x, y in alg.poset.strict_pairs:
        gens.append(DElem(delta + alg.e(x, y), zero))
    for x, y in alg.pairs:
        gens.append(DElem(delta, alg.e(x, y)))
    return gens


def chain_algebra(n, p, bottom_up=True):
    """The chain a < b < ... over GF(p), its elements listed bottom-up or
    top-down (the order sets the basis order, so the oracle's early exits
    and its output order)."""
    labels = [chr(ord("a") + i) for i in range(n)]
    order = labels if bottom_up else labels[::-1]
    poset = Poset.from_covers(order, list(zip(labels, labels[1:])))
    return IncidenceAlgebra(poset, PrimeField(p) if p else QQ)


def compare(alg):
    """Both oracles on ``alg``: whether they enumerate the same matrices (in
    order, column for column), and whether the fast partition under the
    oracle's generators equals the reference partition under the reference
    generators (every pair shift and every bimodule shift)."""
    fast = oracle.enumerate_involutions_D(alg)
    ref = enumerate_involutions_D(alg)
    return ([m.cols for m in fast] == [m.cols for m in ref],
            oracle.orbit_partition(fast, oracle.unit_group_generators(alg))
            == orbit_partition(ref, unit_group_generators(alg)))


@pytest.mark.parametrize("bottom_up", [True, False])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_fast_oracle_matches_reference_on_short_chains(n, p, bottom_up):
    assert compare(chain_algebra(n, p, bottom_up)) == (True, True)


def ring_units(alg):
    """The (f, f^-1) value pairs of the ring units, one per central coset."""
    f_ranges, _ = _canonical_unit_ranges(alg)
    return [(fvals, IncFn(alg, fvals).inverse().vals)
            for fvals in product(*f_ranges)]


def relabel_perm(alg, lam):
    return tuple(alg.pair_index[(lam(y), lam(x))] for x, y in alg.pairs)


def ring_block_squares_to_identity_on(alg, lam, f, b):
    """Whether the ring block of conjugation by f after the relabel map of
    ``lam`` squares to the identity on the basis element b, computed on
    ``IncFn`` objects."""
    def sigma(g):
        return IncFn(alg, tuple(g[lam(y), lam(x)] for x, y in alg.pairs))

    f_inv = f.inverse()
    return f * sigma(f * sigma(b) * f_inv) * f_inv == b


def ring_block_squares_to_identity(alg, lam, f):
    """The same on every basis element e_xy."""
    return all(ring_block_squares_to_identity_on(alg, lam, f, alg.e(x, y))
               for x, y in alg.pairs)


@pytest.mark.parametrize("n, p, bottom_up", [
    (2, 3, True), (2, 3, False), (2, 5, True), (2, 5, False), (2, 2, True),
    (3, 3, True), (3, 3, False)])
def test_ring_block_rejection_keeps_exactly_the_reference_units(n, p, bottom_up):
    alg = chain_algebra(n, p, bottom_up)
    units = ring_units(alg)
    for lam in alg.poset.involutions():
        perm = relabel_perm(alg, lam)
        want = [u for u in units
                if ring_block_squares_to_identity(alg, lam, IncFn(alg, u[0]))]
        assert oracle._ring_involutive_units(alg, perm, units) == want
        if p != 2:  # over F2 every ring unit passes
            assert 0 < len(want) < len(units)


@pytest.mark.parametrize("bottom_up", [True, False])
def test_ring_block_test_computes_every_ring_column(bottom_up, monkeypatch):
    """A ring unit that passes is tested on all ring basis columns, a unit
    that fails on the first column on that one only.  Output comparisons
    cannot see a skipped last column: it is the last element's diagonal
    idempotent, and the unital square fixes it once it fixes the others."""
    alg = chain_algebra(2, 3, bottom_up)
    lam = alg.poset.involutions()[0]
    perm = relabel_perm(alg, lam)
    units = ring_units(alg)
    passing = oracle._ring_involutive_units(alg, perm, units)
    failing = [u for u in units if u not in passing]
    calls = []
    kernel = alg._product

    def counting(a, b):
        calls.append(None)
        return kernel(a, b)

    monkeypatch.setattr(alg, "_product", counting)

    def products(unit):
        del calls[:]
        oracle._ring_involutive_units(alg, perm, [unit])
        return len(calls)

    first = alg.e(*alg.pairs[0])
    fails_first = next(
        u for u in failing
        if not ring_block_squares_to_identity_on(alg, lam, IncFn(alg, u[0]), first))
    per_column = products(fails_first)
    assert per_column > 0
    assert all(products(u) == alg.npairs * per_column for u in passing)


@pytest.mark.parametrize("p", [3, 5, None])
def test_each_action_is_the_inner_automorphism(p):
    alg = chain_algebra(3, p)
    rng = random.Random(p or 0)
    units = [DElem(alg.random_unit(rng), alg.random(rng)) for _ in range(6)]
    units += [d_one(alg), central_pair(alg, 2, 1)]
    for g in units:
        g_inv = g.inverse()
        assert oracle._conjugation(g, g_inv) == inner_auto(g).cols
        assert oracle._conjugation(g_inv, g) == inner_auto(g_inv).cols


def test_fast_oracle_matches_reference_on_chain3():
    assert compare(chain_algebra(3, 3)) == (True, True)
    assert compare(chain_algebra(3, 2)) == (True, True)


def through_plan(plan, m):
    """The columns of the image of the matrix ``m`` through an entry plan."""
    flat, d, p = sum(m.cols, ()), len(m.cols), m.alg.field.modulus
    acc = [0] * len(flat)
    for k, v in enumerate(flat):
        for c, w in plan[k]:
            acc[c] += v * w
    acc = [v % p for v in acc] if p else acc
    return tuple(tuple(acc[j * d:(j + 1) * d]) for j in range(d))


@pytest.mark.parametrize("p", [5, None], ids=["F5", "Q"])
def test_entry_plan_images_are_the_conjugates(p):
    alg = chain_algebra(3, p)
    rng = random.Random(p or 0)
    d = 2 * alg.npairs

    def value():  # often zero, so the plan skips cells
        if p:
            return rng.choice([0, 0] + list(range(p)))
        return rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 9))])

    mats = [DLinearMap(alg, [[value() for _ in range(d)] for _ in range(d)])
            for _ in range(4)] + [DLinearMap.identity(alg)]
    units = [DElem(alg.random_unit(rng), alg.random(rng)) for _ in range(3)]
    units.append(central_pair(alg, 2, 1))
    actions = [(inner_auto(g), inner_auto(g.inverse())) for g in units]
    k = alg.field(2)  # the lift [f; i] -> [f; 2i] is not inner
    actions.append((lift_scalar(alg, k), lift_scalar(alg, alg.field.inv(k))))
    for psi, psi_inv in actions:
        assert psi.compose(psi_inv) == DLinearMap.identity(alg)
        plan = oracle._entry_plan(psi.cols, psi_inv.cols)
        for m in mats:
            assert through_plan(plan, m) == psi.compose(m).compose(psi_inv).cols


def test_orbit_partition_plans_each_action_ahead_of_its_inverse(monkeypatch):
    """Partitions cannot tell an action from its inverse (a finite set
    closed under one is closed under the other), so the order of the
    arguments ``orbit_partition`` hands ``_entry_plan`` is checked here."""
    alg = chain_algebra(2, 5)
    gens = oracle.unit_group_generators(alg)
    sign, sign_inv = lift_scalar(alg, 2), lift_scalar(alg, 3)
    calls, plan = [], oracle._entry_plan

    def recording(psi, psi_inv):
        calls.append((psi, psi_inv))
        return plan(psi, psi_inv)

    monkeypatch.setattr(oracle, "_entry_plan", recording)
    oracle.orbit_partition([DLinearMap.identity(alg)], gens, [(sign, sign_inv)])
    want = dict.fromkeys((inner_auto(g).cols, inner_auto(g.inverse()).cols)
                         for g in gens)
    want.setdefault((sign.cols, sign_inv.cols))
    assert calls == list(want)


def test_partition_under_other_conjugators_matches_reference():
    alg = chain_algebra(2, 3)
    invs = oracle.enumerate_involutions_D(alg)
    units = list(enumerate_units(alg, "D"))
    central = [central_pair(alg, 1, 1), central_pair(alg, 2, 0)]
    sign = lift_scalar(alg, 2)  # its own inverse over GF(3)
    inner = (inner_auto(units[-1]), inner_auto(units[-1].inverse()))
    cases = [(units, ()), ([d_one(alg)], ()), (central, ()),
             ([], [(sign, sign)]), (central, [inner, (sign, sign)]),
             (unit_group_generators(alg), [(sign, sign)])]
    for conjugators, extra in cases:
        got = oracle.orbit_partition(invs, conjugators, extra)
        assert got == orbit_partition(invs, conjugators, extra)
    assert len(oracle.orbit_partition(invs, units)) == 4
    assert len(oracle.orbit_partition(invs, central)) == len(invs)


def test_partition_over_the_rationals():
    alg = chain_algebra(2, None)
    rng = random.Random(11)
    units = [DElem(alg.random_unit(rng), alg.random(rng)) for _ in range(4)]
    units.append(central_pair(alg, Fraction(3, 2), Fraction(-1, 5)))
    identity = DLinearMap.identity(alg)
    assert oracle.orbit_partition([identity], units) == [[0]]
    assert oracle.orbit_partition([], units) == []
    assert orbit_partition([], units) == []
    # central conjugators fix every matrix, and the sign lift fixes these
    lam = alg.poset.involutions()[0]
    items = [identity] + [f(alg, lam, k).to_linear()
                          for f in (base_involution, sigma_lambda)
                          for k in (1, -1)]
    sign = lift_scalar(alg, -1)
    central = [central_pair(alg, 5, 7), central_pair(alg, Fraction(1, 3), 1)]
    got = oracle.orbit_partition(items, central, [(sign, sign)])
    assert got == orbit_partition(items, central, [(sign, sign)])
    assert got == [[i] for i in range(len(items))]


OPTIMIZED = """
import test_oracle_reference as t
print(__debug__, *t.compare(t.chain_algebra(2, 5)),
      *t.compare(t.chain_algebra(2, 5, bottom_up=False)))
"""


def test_fast_oracle_matches_reference_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(incalg.__file__).resolve().parents[1]),
         str(Path(__file__).resolve().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True True True True\n"
