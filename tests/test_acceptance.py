"""Acceptance suite: one test per criterion, each printing a pass line.

Every check is exact (integer or rational arithmetic, no tolerances); the
stated time budgets are asserted as hard ceilings.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time

import pytest

from incalg.derivations import der_equals_ider
from incalg.errors import NotASquare
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import central_pair, d_anti_isomorphic, random_delem
from incalg.involutions import (
    base_involution, build, classify, recognize, rho_eps, sigma_lambda,
    symmetric_decompose,
)
from incalg.morphisms import decompose, mult_subset_inn
from incalg.oracle import (
    count_units, enumerate_involutions_D, enumerate_units, orbit_partition,
    unit_group_generators,
)
from incalg.posets import Poset

from conftest import chain
from test_involutions import random_symmetric_theta
from test_morphisms import random_morphism

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)

CHAIN2 = chain(2)
CHAIN3 = chain(3)
DIAMOND = Poset.from_covers(
    ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
VEE = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
WEDGE = Poset.from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])
FENCE = Poset.from_covers(
    ["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])
CROWN = Poset.from_covers(
    ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])

DIAMOND_FLIP = next(m for m in DIAMOND.involutions()
                    if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})


class budget:
    """Context manager asserting the criterion's stated wall-clock budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.2f}s / budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded its budget"
        return False


def test_criterion_01_ring_axioms():
    with budget("criterion 1: ring axioms in FI and D over F5 and Q", 5):
        rng = random.Random(101)
        checks = 0
        for field in (F5, QQ):
            alg = IncidenceAlgebra(DIAMOND, field)
            for _ in range(250):
                f, g, h = (alg.random(rng) for _ in range(3))
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h
                checks += 1
            for _ in range(250):
                a, b, c = (random_delem(alg, rng) for _ in range(3))
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                checks += 1
        assert checks == 1000


def test_criterion_02_center_oracle():
    with budget("criterion 2: brute-force center of D(chain2, F3)", 10):
        alg = IncidenceAlgebra(CHAIN2, F3)
        coords = list(itertools.product(range(3), repeat=6))
        assert len(coords) == 729
        from incalg.idealization import d_basis
        from test_linalg import d_from_coords
        basis = d_basis(alg)
        commutant = [d for d in map(lambda c: d_from_coords(alg, c), coords)
                     if all(d * b == b * d for b in basis)]
        expected = {central_pair(alg, k1, k2)
                    for k1 in range(3) for k2 in range(3)}
        assert set(commutant) == expected
        # the computed commutant really commutes with all 729 elements
        for d in commutant:
            for c in coords[::7]:
                other = d_from_coords(alg, c)
                assert d * other == other * d


def test_criterion_03_hypothesis_table():
    with budget("criterion 3: hypothesis table for the fence and the crown", 5):
        assert mult_subset_inn(FENCE, F5) is True
        assert der_equals_ider(FENCE, F5) is True
        assert mult_subset_inn(CROWN, F5) is False
        assert der_equals_ider(CROWN, F5) is False
        assert mult_subset_inn(CROWN, F2) is True
        assert der_equals_ider(CROWN, F2) is False


def test_criterion_04_classification_counts():
    with budget("criterion 4: class counts vs 2*|S_K|^(|fixed|-1) and oracle",
                600):
        rev3 = CHAIN3.involutions()[0]
        assert classify(CHAIN3, rev3, F5).count == 2
        assert classify(CHAIN3, rev3, F3).count == 2
        assert classify(DIAMOND, DIAMOND_FLIP, F3).count == 4
        assert classify(DIAMOND, DIAMOND_FLIP, F5).count == 4
        # oracle cross-check by full orbit enumeration over F3
        for poset in (CHAIN2, CHAIN3):
            alg = IncidenceAlgebra(poset, F3)
            assert count_units(alg, "D") <= 160_000
            invs = enumerate_involutions_D(alg)
            partition = orbit_partition(invs, unit_group_generators(alg))
            lam = poset.involutions()[0]
            assert len(partition) == classify(poset, lam, F3).count


def test_criterion_05_four_classes_without_fixed_points():
    with budget("criterion 5: the four chain2/F3 classes via the full oracle",
                300):
        alg = IncidenceAlgebra(CHAIN2, F3)
        invs = enumerate_involutions_D(alg)
        units = list(enumerate_units(alg, "D"))
        assert len(units) == 324
        partition = orbit_partition(invs, units)
        assert len(partition) == 4
        lam = CHAIN2.involutions()[0]
        reps = [base_involution(alg, lam, 1),
                base_involution(alg, lam, -1),
                sigma_lambda(alg, lam, 1),
                sigma_lambda(alg, lam, -1)]
        index = {m.cols: i for i, m in enumerate(invs)}
        block_of = {i: bi for bi, block in enumerate(partition) for i in block}
        rep_blocks = [block_of[index[r.to_linear().cols]] for r in reps]
        assert sorted(rep_blocks) == sorted(set(rep_blocks))
        assert len(rep_blocks) == 4


def test_criterion_06_constructive_witnesses():
    with budget("criterion 6: 200 + 200 symmetric factorizations on diamond/F5",
                30):
        rng = random.Random(106)
        alg = IncidenceAlgebra(DIAMOND, F5)
        squares = [1, 4]
        nonsquares = [2, 3]
        done_good = done_bad = 0
        while done_good < 200:
            k = rng.choice([1, -1])
            eps = {"a": rng.randrange(1, 5), "b": rng.randrange(1, 5)}
            base = rho_eps(alg, DIAMOND_FLIP, eps, k)
            diag = {x: alg.field.mul(eps[x], rng.choice(squares))
                    for x in ("a", "b")}
            seed = random_symmetric_theta(alg, DIAMOND_FLIP, alg.field(k), rng,
                                          fixed_diag=diag)
            theta = base.theta * seed
            if not theta.is_unit():
                continue
            assert base.apply(theta) == theta
            gamma = symmetric_decompose(theta, base)
            assert gamma * base.apply(gamma) == theta
            done_good += 1
        while done_bad < 200:
            k = rng.choice([1, -1])
            eps = {"a": rng.randrange(1, 5), "b": rng.randrange(1, 5)}
            base = rho_eps(alg, DIAMOND_FLIP, eps, k)
            bad_at_a = alg.field.mul(eps["a"], rng.choice(nonsquares))
            diag = {"a": bad_at_a,
                    "b": alg.field.mul(eps["b"], rng.choice(squares))}
            seed = random_symmetric_theta(alg, DIAMOND_FLIP, alg.field(k), rng,
                                          fixed_diag=diag)
            theta = base.theta * seed
            if not theta.is_unit():
                continue
            with pytest.raises(NotASquare) as err:
                symmetric_decompose(theta, base)
            assert "a" in err.value.args[1]
            done_bad += 1


def test_criterion_07_decomposition_round_trips():
    with budget("criterion 7: 100 + 100 exact decomposition round-trips", 60):
        rng = random.Random(107)
        alg = IncidenceAlgebra(DIAMOND, F5)
        for _ in range(100):
            anti = rng.random() < 0.5
            m = random_morphism(alg, rng, anti=anti)
            raw = m.to_linear()
            assert decompose(raw, anti=anti).to_linear() == raw
        done = 0
        lams = DIAMOND.involutions()
        while done < 100:
            lam = rng.choice(lams)
            k = rng.choice([1, -1])
            theta = random_symmetric_theta(alg, lam, alg.field(k), rng)
            if not theta.is_unit():
                continue
            spec = build(alg, theta, lam, k)
            raw = spec.to_linear()
            got = recognize(raw)
            assert got.to_linear() == raw
            assert got.lam == lam and got.k == alg.field(k)
            done += 1


def test_criterion_08_no_skew_symmetric_units_with_fixed_points():
    with budget("criterion 8: exhaustive skew scan over D(chain3, F3) units",
                300):
        alg = IncidenceAlgebra(CHAIN3, F3)
        lam = CHAIN3.involutions()[0]
        perm = tuple(alg.pair_index[(lam(y), lam(x))] for x, y in alg.pairs)
        two = 2  # -1 mod 3
        seen = 0
        for theta in enumerate_units(alg, "D"):
            seen += 1
            fv, iv = theta.f.vals, theta.i.vals
            for k in (1, two):
                if all(fv[p] == -fv[i] % 3 for i, p in enumerate(perm)) and \
                        all(k * iv[p] % 3 == -iv[i] % 3
                            for i, p in enumerate(perm)):
                    raise AssertionError("found a skew-symmetric unit")
        assert seen == 157_464


def test_criterion_09_anti_isomorphism_transfer():
    with budget("criterion 9: transfer along order-reversing bijections", 30):
        posets = {"chain2": CHAIN2, "chain3": CHAIN3, "vee": VEE,
                  "wedge": WEDGE, "diamond": DIAMOND, "fence": FENCE,
                  "crown": CROWN}
        rng = random.Random(109)

        def reversal_exists(p, q):
            if p.n != q.n:
                return False
            for perm in itertools.permutations(q.elements):
                m = dict(zip(p.elements, perm))
                if all(p.leq(x, y) == q.leq(m[y], m[x])
                       for x in p.elements for y in p.elements):
                    return True
            return False

        for p in posets.values():
            for q in posets.values():
                res = d_anti_isomorphic(p, q, F5)
                assert (res is not None) == reversal_exists(p, q)
                if res is None:
                    continue
                lam, upsilon = res
                src = upsilon.src
                for _ in range(100):
                    a, b = random_delem(src, rng), random_delem(src, rng)
                    assert upsilon.apply(a * b) == \
                        upsilon.apply(b) * upsilon.apply(a)


def test_criterion_10_sign_acts_on_the_center():
    with budget("criterion 10: central action of every representative", 5):
        rng = random.Random(110)
        jobs = [(CHAIN2, CHAIN2.involutions()[0], F3),
                (CHAIN3, CHAIN3.involutions()[0], F5),
                (DIAMOND, DIAMOND_FLIP, F3),
                (DIAMOND, DIAMOND_FLIP, F5)]
        for poset, lam, field in jobs:
            for spec in classify(poset, lam, field).representatives:
                alg = spec.alg
                for _ in range(50):
                    k1, k2 = field.random(rng), field.random(rng)
                    got = spec.apply(central_pair(alg, k1, k2))
                    want = central_pair(alg, k1, field.mul(spec.k, k2))
                    assert got == want
