"""The poset symmetry code against the routines it replaced.

``Poset.maps_to`` places the points in element order and keeps a
candidate image only when, among the points placed so far, the images of
those above and of those below it are exactly the target's up-set and
down-set bitsets there (swapped for anti-isomorphisms, which map onto the
dual); ``PosetMap`` checks a map by moving each point's up-set bitset onto
the target and comparing it with the image's up-set (its down-set for an
anti-isomorphism); ``lambda_decomposition`` places each
orbit by one comparison, from its lower end, on the up-set and down-set
bitsets; ``spanning_tree`` places all the unplaced neighbours of a popped
point at once, from its bitsets; ``involutions`` prunes the
anti-automorphism search by the involution rule (point k goes to a point
j <= k only if j went to k, and to a later j only if no earlier point
went to k); and ``equivalent`` and the χ-fold find their carriers, the
automorphisms alpha with alpha o lam2 = lam1 o alpha, by ``_carriers``,
which prunes the automorphism search by that equation at the later of k
and lam2(k), and, given χ maps, by the χ rule at each fixed point of
lam2; ``maps_to(..., _first=True)`` stops at the first map.  The
references below are the earlier label-lookup search, the label-lookup
order check, the recursive backtracking split, the element-order scan of
the spanning forest, the anti-automorphisms filtered by
``is_involution``, the automorphisms filtered by the mapping check
``ref_intertwines``, which is held in turn to the compose-chain conjugacy
tests, those carriers filtered again by moved χ key, and the head of each
full list.  They must agree on every fixture, on drawn posets, on every
order of at most 4 points, and at the search bound on lvl444 and susp7:
the same maps in the same order, the same accept or reject with the same
message, the same split, the same forest edges in the same order.  The
reference split keeps its raise for a poset with no split, which must
never fire: placing an orbit from its lower end never clashes (see
``lambda_decomposition``).

``ref_equivalent`` is the per-carrier loop ``equivalent`` replaced: it
built a relabelled normal form and ran a whole inner-equivalence attempt
for each carrier, where ``equivalent`` finds the one carrier whose moved
χ key matches by a search under the χ rule, and builds that one.  It
takes its carriers from the reference filter, never from ``_carriers``.
The verdicts must agree byte for byte as JSON.

``ref_chi_orbit_fold`` is the listing χ-fold ``classify --general`` ran:
it filtered the centralizer of lam out of the automorphisms and moved
each kept key by every element of it (``ref_moved_key``), where
``_chi_orbit_fold`` asks one first-hit search under the χ rule per
earlier kept key.  The kept keys must be the same, in the same order, on
every connected poset of at most 6 points over F3 and F5, on suspM for
2 <= M <= 7, lvl444, lvl333, lvl242, the 3 x 3 grid and a poset with
fixed points of two kinds, and on the fixtures and drawn posets over F3.

The same census of every poset of at most 6 points holds ``poset-info``,
which lists no anti-automorphism, to the full listings, and ``classify``
to the paper's counts on every involution of its connected posets.
"""

import functools
import itertools
import json
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from incalg import cli
from incalg.errors import (HypothesisFailed, IncalgError, ParseError, SizeLimit,
                           WitnessFailed)
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import d_one, random_d_unit
from incalg import involutions
from incalg.involutions import (
    InvolutionSpec, Verdict, _carriers, _check_same_context, _chi_key,
    _chi_multisets_meet, _chi_orbit_fold, _equivalent_inner, _relabel_by_pairs,
    _relabelled_spec, build, classify, equivalent, require_classifiable,
    rho_eps,
)
from incalg.posets import (
    SEARCH_SIZE_BOUND, Poset, PosetMap, lambda_decomposition,
)
from incalg.snf import check_hypotheses

from conftest import is_identity, levels, suspension
from test_exhaustive_small_posets import as_poset, small_posets

FIXTURES = ["chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond"]


# -- references ---------------------------------------------------------------


def ref_maps_to(self, other, anti=False, size_bound=SEARCH_SIZE_BOUND):
    """All order isomorphisms (anti=False) or anti-isomorphisms
    (anti=True) from this poset onto ``other``, by backtracking; each as
    its mapping dict."""
    if self.n > size_bound or other.n > size_bound:
        raise SizeLimit(f"symmetry search limited to {size_bound} elements")
    if self.n != other.n:
        return []
    src, dst = self.elements, other.elements

    # degree profile must match (reversed for anti-isomorphisms)
    def profile(P, x, flip):
        d, u = len(P.down(x)), len(P.up(x))
        return (u, d) if flip else (d, u)
    out = []
    assign = {}
    used = set()

    def extend(k):
        if k == self.n:
            out.append(dict(assign))
            return
        x = src[k]
        for y in dst:
            if y in used or profile(self, x, False) != profile(other, y, anti):
                continue
            ok = True
            for x0, y0 in assign.items():
                a, b = self.leq(x0, x), self.leq(x, x0)
                if anti:
                    if a != other.leq(y, y0) or b != other.leq(y0, y):
                        ok = False
                        break
                else:
                    if a != other.leq(y0, y) or b != other.leq(y, y0):
                        ok = False
                        break
            if ok:
                assign[x] = y
                used.add(y)
                extend(k + 1)
                del assign[x]
                used.discard(y)

    extend(0)
    return out


def ref_check(src, dst, mapping, anti):
    """The label-lookup order check: None, or the ParseError message."""
    for x in src.elements:
        if x not in mapping:
            return f"map must be defined on every element: missing {x!r}"
    for x in mapping:
        if x not in src.elements:
            return f"map label {x!r} is not an element"
    if set(mapping.values()) != set(dst.elements):
        return "map must be a bijection onto the target"
    for x in src.elements:
        for y in src.elements:
            lhs = src.leq(x, y)
            rhs = (dst.leq(mapping[y], mapping[x]) if anti
                   else dst.leq(mapping[x], mapping[y]))
            if lhs != rhs:
                kind = "anti-isomorphism" if anti else "isomorphism"
                return f"not an order {kind}: fails at ({x!r}, {y!r})"
    return None


class NoDecomposition(Exception):
    """The reference found no split; ``lambda_decomposition`` no longer has
    this case, since a split always exists."""


def ref_lambda_decomposition(poset, lam):
    """The recursive backtracking split, as (lower, upper, fixed)."""
    if not (lam.anti and lam.src == poset and lam.is_involution()):
        raise ParseError("decomposition requires an involution on the poset")
    fixed = set(lam.fixed_points())
    orbits = []
    seen = set(fixed)
    for x in poset.elements:
        if x not in seen:
            seen.add(x)
            seen.add(lam(x))
            orbits.append((x, lam(x)))

    side = {x: 0 for x in fixed}  # -1 lower, +1 upper, 0 fixed

    def place(x, s, trail):
        cur = side.get(x)
        if cur is not None:
            return cur == s
        side[x] = s
        trail.append(x)
        if not place(lam(x), -s, trail):
            return False
        if s == -1:
            below = (y for y in poset.elements if poset.leq(y, x) and y != x)
            return all(place(y, -1, trail) for y in below)
        above = (y for y in poset.elements if poset.leq(x, y) and y != x)
        return all(place(y, 1, trail) for y in above)

    def solve(k):
        if k == len(orbits):
            return True
        x, y = orbits[k]
        if side.get(x) is not None:
            return solve(k + 1)
        for sx in (-1, 1):
            trail = []
            if place(x, sx, trail) and solve(k + 1):
                return True
            for moved in trail:
                del side[moved]
        return False

    if not solve(0):
        raise NoDecomposition("no down-closed/up-closed split exists")
    lower = tuple(x for x in poset.elements if side[x] == -1)
    upper = tuple(x for x in poset.elements if side[x] == 1)
    return lower, upper, tuple(sorted(fixed, key=poset.index.get))


def ref_spanning_tree(poset):
    """The element-order scan: each popped v looks up every point."""
    placed = set()
    for root in poset.elements:
        if root in placed:
            continue
        placed.add(root)
        yield None, root
        stack = [root]
        while stack:
            v = stack.pop()
            for w in poset.elements:
                if w not in placed and poset.comparable(v, w):
                    placed.add(w)
                    yield v, w
                    stack.append(w)


def ref_components(poset):
    """The components read off the reference forest, as ``components``
    reads them off ``spanning_tree``."""
    comps = []
    for v, w in ref_spanning_tree(poset):
        if v is None:
            comps.append([])
        comps[-1].append(w)
    return tuple(tuple(sorted(comp, key=poset.index.get)) for comp in comps)


def ref_involutions(poset):
    """The anti-automorphisms filtered by ``is_involution``."""
    return [m for m in poset.anti_automorphisms() if m.is_involution()]


def ref_intertwines(alpha, lam1, lam2):
    """Whether alpha o lam2 = lam1 o alpha, read on the mappings: alpha
    carries lam2 to lam1 by conjugation."""
    a, l1, l2 = alpha.mapping, lam1.mapping, lam2.mapping
    return all(a[l2[x]] == l1[a[x]] for x in a)


def ref_carriers(autos, lam1, lam2):
    """The automorphisms ``autos`` filtered by ``ref_intertwines``."""
    return [a for a in autos if ref_intertwines(a, lam1, lam2)]


def ref_carries(alpha, lam1, lam2):
    """The compose-chain carrier test of ``equivalent``."""
    return alpha.compose(lam2).compose(alpha.inverse()) == lam1


def ref_commutes(alpha, lam):
    """The compose-chain normalizer test of the χ-fold."""
    return alpha.compose(lam) == lam.compose(alpha)


def ref_moved_key(chi, alpha):
    """The χ key of chi moved by the automorphism alpha: the class chi(x)
    at alpha(x), read in element order."""
    moved = {alpha(x): c for x, c in chi.items()}
    return _chi_key({x: moved[x] for x in sorted(moved, key=alpha.dst.index.get)})


def ref_chi_orbit_fold(lam, keys, autos=None):
    """The listing χ-fold: the centralizer of lam, filtered from the
    automorphisms ``autos`` (all of them by default), moves each kept key
    to every key of its orbit, and a key is kept when no earlier kept key
    reached it."""
    fixed = lam.fixed_points()
    centralizer = ref_carriers(autos or lam.src.automorphisms(), lam, lam)
    keep, seen = [], set()
    for key in keys:
        if key not in seen:
            seen |= {ref_moved_key(dict(zip(fixed, key)), a) for a in centralizer}
            keep.append(key)
    return keep


def ref_equivalent(s1, s2):
    """The per-carrier loop of ``equivalent``: one relabelled normal form
    and one inner attempt per carrier, until one succeeds."""
    _check_same_context(s1, s2)
    alg = s1.alg
    require_classifiable(alg.poset, alg.field)
    if s1.k != s2.k:
        return Verdict(False, distinguisher="sign")
    carriers = ref_carriers(alg.poset.automorphisms(), s1.lam, s2.lam)
    if not carriers:
        return Verdict(False, distinguisher="lambda")
    for alpha in carriers:
        conjugated = _relabelled_spec(s2, alpha)
        inner = _equivalent_inner(s1, conjugated)
        if inner.equivalent:
            if _relabel_by_pairs(s2, alpha) != conjugated._perm:
                raise WitnessFailed("relabel conjugation mismatch")
            return Verdict(True, conjugator=inner.conjugator, alpha=alpha)
    return Verdict(False, distinguisher="chi")


# -- comparisons --------------------------------------------------------------


def relabelled(poset, rng):
    """A copy of ``poset`` under new labels, listed in a shuffled order."""
    names = {x: f"r{x}" for x in poset.elements}
    order = list(poset.elements)
    rng.shuffle(order)
    return Poset.from_covers([names[x] for x in order],
                             [(names[x], names[y]) for x, y in poset.covers])


def check_search(src, dst):
    for anti in (False, True):
        got = src.maps_to(dst, anti)
        assert [list(m.mapping.items()) for m in got] == \
            [list(m.items()) for m in ref_maps_to(src, dst, anti)]
        assert all(m.anti == anti and m.src is src and m.dst is dst for m in got)


def outcome(src, dst, mapping, anti):
    try:
        PosetMap(src, dst, mapping, anti)
    except ParseError as exc:
        return str(exc)
    return None


def check_maps(src, dst, mappings):
    for mapping in mappings:
        for anti in (False, True):
            assert outcome(src, dst, mapping, anti) == \
                ref_check(src, dst, mapping, anti)


def bijections(src, dst, rng, limit=200):
    """Every bijection for at most 5 points, else ``limit`` random ones."""
    if src.n <= 5:
        return [dict(zip(src.elements, p))
                for p in itertools.permutations(dst.elements)]
    out = []
    for _ in range(limit):
        image = list(dst.elements)
        rng.shuffle(image)
        out.append(dict(zip(src.elements, image)))
    return out


def broken(src, dst):
    """Maps the bijection checks refuse: a missing point, a label that is
    no point (alone, and in place of the first point), a repeated
    image."""
    if src.n < 2:
        return []
    first, second = src.elements[:2]
    onto = dict(zip(src.elements, dst.elements))
    missing = {x: y for x, y in onto.items() if x != first}
    doubled = dict(onto, **{second: onto[first]})
    return [missing, dict(onto, stray=dst.elements[0]),
            dict(missing, stray=onto[first]), doubled]


def spread(items, k):
    """At most about ``k`` items, evenly spaced through the list."""
    return items[::max(1, math.ceil(len(items) / k))]


def check_split(poset, lam):
    """The split, and ``side`` at every point, against the reference."""
    lower, upper, fixed = ref_lambda_decomposition(poset, lam)  # never raises
    d = lambda_decomposition(poset, lam)
    assert (d.lower, d.upper, d.fixed) == (lower, upper, fixed)
    assert [d.side(x) for x in poset.elements] == [
        -1 if x in lower else 1 if x in upper else 0 for x in poset.elements]


def check_forest(poset):
    """The forest's edges, in order, and the components."""
    assert list(poset.spanning_tree()) == list(ref_spanning_tree(poset))
    assert poset.components() == ref_components(poset)


CHI_FIELDS = (PrimeField(3), PrimeField(5), QQ)


def chi_maps(lam, field, limit=3):
    """About ``limit`` χ maps on lam's fixed points, spread through them:
    over F3 and F5 those ``classify``'s representatives carry (the square
    class at the first fixed point, any listed class at each other one),
    over Q those of ``rho_eps`` with RATIONAL_SCALINGS, read cyclically
    from each start in turn."""
    fixed = lam.fixed_points()
    if not fixed:
        return []
    if field is QQ:
        n = len(RATIONAL_SCALINGS)
        values = [[RATIONAL_SCALINGS[(s + i) % n] for i in range(len(fixed))]
                  for s in range(n)]
    else:
        values = [(1, *rest) for rest in itertools.product(
            field.square_class_reps(), repeat=len(fixed) - 1)]
    return [{x: field.square_class(field(v)) for x, v in zip(fixed, vs)}
            for vs in spread(values, limit)]


def check_involutions_and_carriers(poset, pairs=3):
    """The first map of each search against the head of its full list;
    the involutions; and the carriers between each two of a spread of
    about ``pairs`` of them, unfiltered and filtered by the χ rule for
    the ``chi_maps`` over each field; each the same list as its
    reference, in the same order, and ``_chi_multisets_meet`` true
    wherever the filtered list is not empty.  Returns the involutions
    and the automorphisms."""
    lams = poset.involutions()
    assert lams == ref_involutions(poset)
    autos = poset.automorphisms()
    assert poset.maps_to(poset, False, _first=True) == autos[:1]
    assert poset.maps_to(poset, True, _first=True) == \
        poset.anti_automorphisms()[:1]
    for lam1, lam2 in itertools.product(spread(lams, pairs), repeat=2):
        carriers = ref_carriers(autos, lam1, lam2)
        assert _carriers(lam1, lam2) == carriers
        for field in CHI_FIELDS:
            keys1 = [(chi1, _chi_key(chi1)) for chi1 in chi_maps(lam1, field)]
            for chi2 in chi_maps(lam2, field) if keys1 else ():
                moved = [ref_moved_key(chi2, a) for a in carriers]
                for chi1, key in keys1:
                    matching = [a for a, m in zip(carriers, moved) if m == key]
                    assert _carriers(lam1, lam2, chi1, chi2) == matching
                    assert not matching or _chi_multisets_meet(chi1, chi2)
    return lams, autos


def check_split_and_conjugacy(poset):
    """The involutions and carriers; every split; the χ-fold over F3; the
    mapping check of conjugacy against the compose chains over a spread of
    the group and of the involutions, since their product grows as the
    group squared."""
    lams, autos = check_involutions_and_carriers(poset)
    check_fold(poset, PrimeField(3))
    for lam in lams:
        check_split(poset, lam)
    some = spread(lams, 12)
    for alpha in spread(autos, 48):
        for lam1, lam2 in itertools.product(some, repeat=2):
            assert ref_intertwines(alpha, lam1, lam2) == \
                ref_carries(alpha, lam1, lam2)
        for lam in lams:
            assert ref_intertwines(alpha, lam, lam) == ref_commutes(alpha, lam)


@pytest.mark.parametrize("name", FIXTURES)
def test_search_and_check_match_reference_on_fixtures(request, name):
    poset = request.getfixturevalue(name)
    rng = random.Random(name)
    copy = relabelled(poset, rng)
    for dst in (poset, copy):
        check_search(poset, dst)
        check_maps(poset, dst, bijections(poset, dst, rng) + broken(poset, dst))


def test_search_matches_reference_between_vee_and_wedge(vee, wedge):
    check_search(vee, wedge)
    check_search(wedge, vee)
    check_maps(vee, wedge, bijections(vee, wedge, random.Random(0)))


# Posets from a seeded sample of 3,000 random posets on up to 7 points on
# which a search that matched up-sets alone would build a map that is no
# isomorphism: each has two points with equal up-sets among the points
# placed before them but different down-sets.  Labels are p0..p(n-1).
DOWN_SET_WITNESSES = [
    (4, [(0, 3), (1, 2)]),
    (5, [(0, 4), (1, 3), (2, 0), (2, 3)]),
    (6, [(0, 3), (2, 4), (2, 5), (3, 1), (5, 1)]),
    (6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 1), (2, 4)]),
    (7, [(0, 2), (1, 5), (1, 6), (2, 4), (3, 1), (4, 6)]),
    (7, [(0, 4), (1, 5), (1, 6), (3, 6), (4, 6), (5, 2), (6, 2)]),
]


@pytest.mark.parametrize("n, covers", DOWN_SET_WITNESSES)
def test_search_matches_reference_on_down_set_witnesses(n, covers):
    poset = Poset.from_covers([f"p{i}" for i in range(n)],
                              [(f"p{a}", f"p{b}") for a, b in covers])
    for dst in (poset, relabelled(poset, random.Random(n))):
        check_search(poset, dst)


@pytest.mark.parametrize("name", FIXTURES)
def test_split_and_conjugacy_match_reference_on_fixtures(request, name):
    check_split_and_conjugacy(request.getfixturevalue(name))


@pytest.mark.parametrize("name", FIXTURES)
def test_forest_matches_reference_on_fixtures(request, name):
    check_forest(request.getfixturevalue(name))


def rising_orders(n):
    """Every transitively closed relation on the points 0..n-1 that rises
    along the index order, as a sorted list of pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        rel = {p for k, p in enumerate(pairs) if bits >> k & 1}
        if all((a, c) in rel for a, b in rel for b2, c in rel if b == b2):
            yield sorted(rel)


def test_split_and_forest_match_reference_on_every_order_of_at_most_4_points():
    """Every transitively closed relation on at most 4 points that rises
    along the index order, listed in every element order, so every poset
    on at most 4 points in every element order; with the involutions,
    each split and the carriers between every two involutions, unfiltered
    and under the χ rule.  That is 1,007 posets and 1,063 (poset,
    involution) pairs, checked in about 2.3 s on a 2-core x86-64 machine
    (about 0.4 s without the χ-rule and first-map checks).  The
    compose-chain cross-check of the references in
    ``check_split_and_conjugacy`` is left to the other layers: here it
    would take 1.9 s."""
    posets = pairs = 0
    for n in range(1, 5):
        for rel in rising_orders(n):
            for order in itertools.permutations(range(n)):
                poset = Poset.from_covers([f"p{i}" for i in order],
                                          [(f"p{a}", f"p{b}") for a, b in rel])
                check_forest(poset)
                lams, _ = check_involutions_and_carriers(poset, pairs=10)
                for lam in lams:
                    check_split(poset, lam)
                posets += 1
                pairs += len(lams)
    assert (posets, pairs) == (1007, 1063)


def test_split_and_conjugacy_match_reference_on_symmetric_posets():
    """The suspended antichain 0 < a1..a4 < 1, B3 and the 6-crown carry
    many involutions and automorphisms commuting with them."""
    susp = Poset.from_covers(
        ["0", "a1", "a2", "a3", "a4", "1"],
        [("0", f"a{i}") for i in range(1, 5)] + [(f"a{i}", "1") for i in range(1, 5)])
    subsets = ["e", "1", "2", "3", "12", "13", "23", "123"]
    b3 = Poset.from_covers(subsets, [
        (s, t) for s in subsets for t in subsets
        if len(t.strip("e")) == len(s.strip("e")) + 1
        and set(s.strip("e")) <= set(t)])
    crown3 = Poset.from_covers(
        ["a0", "a1", "a2", "b0", "b1", "b2"],
        [(f"a{i}", f"b{i}") for i in range(3)]
        + [(f"a{i}", f"b{(i + 1) % 3}") for i in range(3)])
    for poset in (susp, b3, crown3):
        assert poset.involutions()
        check_split_and_conjugacy(poset)
        check_search(poset, poset)


def test_involutions_and_carriers_match_reference_at_the_bound():
    """lvl444 (12 points, 13,824 automorphisms, 240 involutions) and
    susp7 (9 points, 5,040 automorphisms, 232 involutions): the pruned
    searches list what the full ones filter, in the same order."""
    for poset in (levels(4, 4, 4), suspension(7)):
        check_involutions_and_carriers(poset)


# -- the χ-fold ---------------------------------------------------------------


def fold_keys(lam, field):
    """The χ keys ``classify`` folds for lam: the class of one at its first
    fixed point and any listed class at each other one, in product order."""
    classes = [field.square_class(v) for v in field.square_class_reps()]
    return [(field.square_class(field.one), *rest) for rest in
            itertools.product(classes, repeat=len(lam.fixed_points()) - 1)]


def check_fold(poset, field):
    """``_chi_orbit_fold`` against ``ref_chi_orbit_fold`` for every
    involution of the poset with two or more fixed points, the ones
    ``classify --general`` folds: the same kept keys in the same order.
    Returns the number of involutions checked and of keys folded away."""
    autos = poset.automorphisms()
    lams = [lam for lam in poset.involutions() if len(lam.fixed_points()) > 1]
    folded = 0
    for lam in lams:
        keys = fold_keys(lam, field)
        kept = _chi_orbit_fold(lam, keys)
        assert kept == ref_chi_orbit_fold(lam, keys, autos)
        folded += len(keys) - len(kept)
    return len(lams), folded


def grid(m):
    """The product of two m-point chains, its points "ij" for 0 <= i, j < m."""
    points = [f"{i}{j}" for i in range(m) for j in range(m)]
    return Poset.from_covers(points, [
        (f"{i}{j}", f"{i + di}{j + dj}") for i in range(m) for j in range(m)
        for di, dj in ((1, 0), (0, 1)) if i + di < m and j + dj < m])


def two_kinds(na, nb):
    """0 < p < a1..a_na < q < 1 beside 0 < b1..b_nb < 1: an involution
    fixing the a_i and b_j can permute each kind but never swap one a_i
    with one b_j."""
    a = [f"a{i}" for i in range(1, na + 1)]
    b = [f"b{j}" for j in range(1, nb + 1)]
    return Poset.from_covers(
        ["0", "p", *a, "q", *b, "1"],
        [("0", "p"), ("q", "1"), *(("p", x) for x in a),
         *((x, "q") for x in a), *(("0", y) for y in b),
         *((y, "1") for y in b)])


@pytest.fixture(scope="module")
def census():
    """One poset per isomorphism class on at most 6 points: 405 of them
    (1, 2, 5, 16, 63 and 318 on 1 to 6 points, OEIS A000112), from the
    generator of ``test_exhaustive_small_posets``.  Listing the 318
    classes on 6 points takes about 2.5 s on a 2-core x86-64 machine, so
    every test of the census here shares one listing."""
    return [as_poset(n, rel) for n in range(1, 7) for rel in small_posets(n)]


@pytest.fixture(scope="module")
def connected_census(census):
    """The connected posets of the census: 297 of them (1, 1, 3, 10, 44
    and 238 on 1 to 6 points, OEIS A000608)."""
    return [poset for poset in census if poset.is_connected()]


def test_poset_info_counts_match_the_listing_on_every_small_poset(
        census, capsys, monkeypatch):
    """``poset-info`` counts the anti-automorphisms off Aut(X) and takes
    the involutions from the pruned search; on every poset of at most 6
    points its counts equal the lengths of the full listings, and its
    involution maps are the anti-automorphisms filtered by
    ``is_involution``, in order.  The command reads each poset from the
    census, not a file, so the run measures the searches: about 0.1 s on
    a 2-core x86-64 machine, on top of the shared census."""
    assert len(census) == 405
    for poset in census:
        monkeypatch.setattr(cli, "load_poset", lambda path: poset)
        assert cli.main(["poset-info", "--poset", "census", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["automorphisms"] == len(poset.automorphisms())
        assert payload["anti-automorphisms"] == len(poset.anti_automorphisms())
        assert payload["involution_maps"] == [m.to_json()
                                              for m in ref_involutions(poset)]


def test_classify_counts_are_the_papers_on_every_small_connected_poset(
        connected_census):
    """Every involution of every connected poset of at most 6 points (78
    in all), over F3, F5 and Q: ``classify`` raises HypothesisFailed
    exactly when ``check_hypotheses`` fails, and otherwise counts 4
    classes with no fixed point, 2 with one, and with f >= 2 fixed points
    2 * 2^(f-1) over F_p (p odd, so two square classes) and infinitely
    many over Q.  About 0.1 s on a 2-core x86-64 machine, on top of the
    shared census."""
    lams = 0
    for poset in connected_census:
        for lam in poset.involutions():
            lams += 1
            f = len(lam.fixed_points())
            for field in CHI_FIELDS:
                if not all(check_hypotheses(poset, field).values()):
                    with pytest.raises(HypothesisFailed):
                        classify(poset, lam, field)
                    continue
                count = classify(poset, lam, field).count
                if f < 2:
                    assert count == (4 if f == 0 else 2)
                elif field.char == 0:
                    assert count is None
                else:
                    assert count == 2 * 2 ** (f - 1)
    assert lams == 78


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5)],
                         ids=lambda f: f.name)
def test_chi_fold_matches_reference_on_every_small_connected_poset(
        connected_census, field):
    """Every connected poset of at most 6 points, every involution with
    two or more fixed points: the first-hit fold keeps the keys the
    listing fold keeps, in order."""
    assert len(connected_census) == 297
    checked = folded = 0
    for poset in connected_census:
        lams, gone = check_fold(poset, field)
        checked, folded = checked + lams, folded + gone
    assert checked > 0 and folded > 0


@pytest.mark.parametrize("poset", [
    *(suspension(m) for m in range(2, 8)), levels(4, 4, 4), levels(3, 3, 3),
    levels(2, 4, 2), grid(3), two_kinds(4, 4),
], ids=[*(f"susp{m}" for m in range(2, 8)), "lvl444", "lvl333", "lvl242",
        "grid3", "two_kinds44"])
def test_chi_fold_matches_reference_on_large_centralizers(poset):
    """Posets whose involutions commute with many automorphisms, and one
    whose fixed points are of two kinds (12 points, 576 automorphisms
    commuting with its involution fixing every a_i and b_j), over F5:
    every involution with two or more fixed points folds as the listing
    fold does."""
    lams, _ = check_fold(poset, PrimeField(5))
    assert lams > 0


# -- drawn posets -------------------------------------------------------------


@st.composite
def posets(draw, max_size=7):
    """A poset on at most ``max_size`` points: a relation that only rises
    along a drawn linear order, closed; labels are listed in another
    drawn order."""
    n = draw(st.integers(1, max_size))
    rise = draw(st.permutations(range(n)))
    rels = [(rise[i], rise[j]) for i in range(n) for j in range(i + 1, n)
            if draw(st.booleans())]
    listed = draw(st.permutations(range(n)))
    return Poset.from_covers([f"p{i}" for i in listed],
                             [(f"p{a}", f"p{b}") for a, b in rels])


@st.composite
def self_dual_posets(draw, max_size=7):
    """A poset on at most ``max_size`` points with a drawn order-reversing
    involution sigma: each point gets a level with level(sigma x) =
    -level(x), a relation only rises in level, and each drawn relation
    (x, y) comes with (sigma y, sigma x)."""
    n = draw(st.integers(1, max_size))
    points = draw(st.permutations(range(n)))
    swaps = draw(st.integers(0, n // 2))
    sigma = {x: x for x in points}
    level = {x: 0 for x in points}
    for k in range(swaps):
        x, y = points[2 * k], points[2 * k + 1]
        sigma[x], sigma[y] = y, x
        level[x] = draw(st.integers(-3, 3))
        level[y] = -level[x]
    rels = set()
    for x, y in itertools.permutations(range(n), 2):
        if level[x] < level[y] and draw(st.booleans()):
            rels |= {(x, y), (sigma[y], sigma[x])}
    listed = draw(st.permutations(range(n)))
    poset = Poset.from_covers([f"p{i}" for i in listed],
                              [(f"p{a}", f"p{b}") for a, b in sorted(rels)])
    lam = PosetMap(poset, poset, {f"p{x}": f"p{sigma[x]}" for x in range(n)},
                   anti=True)
    return poset, lam


@settings(max_examples=40, deadline=None)
@given(posets(), st.randoms(use_true_random=False))
def test_search_and_check_match_reference_on_drawn_posets(poset, rng):
    copy = relabelled(poset, rng)
    for dst in (poset, copy):
        check_search(poset, dst)
        check_maps(poset, dst,
                   bijections(poset, dst, rng, limit=60) + broken(poset, dst))
    check_split_and_conjugacy(poset)


@settings(max_examples=40, deadline=None)
@given(self_dual_posets())
def test_split_and_conjugacy_match_reference_on_drawn_self_dual_posets(drawn):
    poset, lam = drawn
    assert lam in poset.involutions()
    check_search(poset, poset)
    check_split_and_conjugacy(poset)


@settings(max_examples=60, deadline=None)
@given(posets(max_size=9))
def test_forest_matches_reference_on_drawn_posets(poset):
    """Drawn relations are often disconnected, so the forest has several
    roots."""
    check_forest(poset)


def ref_height_minus_depth(poset):
    """r(x) = height(x) - depth(x): the most points on a chain ending at x
    less the most points on a chain starting at x."""
    @functools.cache
    def longest(x, rising):
        nxt = [y for y in poset.elements if y != x
               and (poset.leq(x, y) if rising else poset.leq(y, x))]
        return 1 + max((longest(y, rising) for y in nxt), default=0)

    return {x: longest(x, False) - longest(x, True) for x in poset.elements}


@settings(max_examples=40, deadline=None)
@given(self_dual_posets())
def test_height_minus_depth_is_odd_under_lambda_and_strictly_monotone(drawn):
    """A second proof that a split always exists, apart from the one in
    ``lambda_decomposition``: r strictly rises along the order and r(lam
    x) = -r(x) for every involution lam, so the points with r < 0, plus
    one point of each two-point orbit with r = 0, form a down-closed part
    whose image is up-closed."""
    poset, _ = drawn
    r = ref_height_minus_depth(poset)
    assert all(r[x] < r[y] for x, y in poset.strict_pairs)
    for lam in poset.involutions():
        assert all(r[lam(x)] == -r[x] for x in poset.elements)
        lower = {x for x in poset.elements if r[x] < 0}
        for x in poset.elements:
            if r[x] == 0 and lam(x) not in lower | {x}:
                lower.add(x)
        upper = {lam(x) for x in lower}
        assert not lower & upper
        assert all(set(poset.down(x)) <= lower for x in lower)
        assert all(set(poset.up(x)) <= upper for x in upper)
        assert all(lam(x) == x for x in set(poset.elements) - lower - upper)


# -- general equivalence ------------------------------------------------------

FIELDS = {"F3": PrimeField(3), "F5": PrimeField(5), "Q": QQ}
RATIONAL_SCALINGS = (1, 2, -1, 3, 6, -2)


def involution_specs(poset, field, rng, per_lam=4):
    """Up to ``per_lam`` class representatives of each involution of the
    poset, each followed by a random inner conjugate.  Over Q with two or
    more fixed points, where the classes form a family, the representatives
    are rho_eps with drawn scalings."""
    alg = IncidenceAlgebra(poset, field)
    specs = []
    for lam in poset.involutions():
        reps = classify(poset, lam, field).representatives
        if reps is None:
            reps = [rho_eps(alg, lam, {x: rng.choice(RATIONAL_SCALINGS)
                                       for x in lam.fixed_points()}, k)
                    for k in (1, -1, 1, -1)]
        for spec in spread(reps, per_lam):
            u = random_d_unit(alg, rng)
            while not u.is_unit():
                u = random_d_unit(alg, rng)
            specs += [spec, build(alg, u * spec.theta * spec.base_apply(u),
                                  spec.lam, spec.k)]
    return specs


def verdict_json(decide, s1, s2):
    try:
        return decide(s1, s2).to_json()
    except IncalgError as exc:
        return type(exc).__name__, str(exc)


def check_general_verdicts(poset, field, rng, per_lam=4, pairs=None):
    """``equivalent`` against ``ref_equivalent`` on every pair of specs,
    or on ``pairs`` drawn pairs; a poset that cannot be classified raises
    the same error from both."""
    try:
        require_classifiable(poset, field)
    except IncalgError:
        alg = IncidenceAlgebra(poset, field)
        specs = [InvolutionSpec(alg, d_one(alg), lam, 1)
                 for lam in poset.involutions()]
    else:
        specs = involution_specs(poset, field, rng, per_lam)
    todo = list(itertools.product(specs, repeat=2))
    if pairs is not None and len(todo) > pairs:
        todo = rng.sample(todo, pairs)
    for s1, s2 in todo:
        assert verdict_json(equivalent, s1, s2) == \
            verdict_json(ref_equivalent, s1, s2)
    return todo


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", FIXTURES)
def test_equivalent_matches_reference_on_fixtures(request, name, field):
    poset = request.getfixturevalue(name)
    check_general_verdicts(poset, FIELDS[field], random.Random(name + field))


@st.composite
def connected_self_dual_posets(draw, max_size=9):
    """A drawn self-dual poset, put between a new bottom and top (which
    its involution swaps) when drawn so; kept only when connected and
    with at most 720 automorphisms, so that the reference loop, which
    builds a normal form per carrier, stays quick."""
    poset, _ = draw(self_dual_posets(max_size=max_size - 2))
    if draw(st.booleans()):
        inner = poset.elements
        poset = Poset.from_covers(
            ["lo", *inner, "hi"],
            [*poset.covers, *(("lo", x) for x in inner),
             *((x, "hi") for x in inner)])
    assume(poset.is_connected() and len(poset.automorphisms()) <= 720)
    return poset


@settings(max_examples=12, deadline=None)
@given(connected_self_dual_posets(), st.sampled_from(sorted(FIELDS)),
       st.randoms(use_true_random=False))
def test_equivalent_matches_reference_on_drawn_self_dual_posets(
        poset, field, rng):
    check_general_verdicts(poset, FIELDS[field], rng, per_lam=2, pairs=40)


def test_equivalent_matches_reference_at_the_bound():
    """lvl444 over F5: representatives of one involution fixing all four
    middle points (576 carriers between it and itself), and of two
    conjugate involutions fixing two (96 carriers between them).  The
    pairs take both verdicts, "chi" and positive, the positive one
    through a carrier that is not the identity."""
    poset, field = levels(4, 4, 4), PrimeField(5)
    lams = poset.involutions()
    four = next(lam for lam in lams if len(lam.fixed_points()) == 4)
    two = [lam for lam in lams if len(lam.fixed_points()) == 2]
    reps = [classify(poset, lam, field).representatives
            for lam in (four, two[0], two[-1])]
    pairs = [(reps[0][0], reps[0][2]), (reps[1][0], reps[2][0]),
             (reps[1][0], reps[2][2])]
    verdicts = [verdict_json(equivalent, *pair) for pair in pairs]
    assert verdicts == [verdict_json(ref_equivalent, *pair) for pair in pairs]
    assert [v.get("distinguisher") for v in verdicts] == ["chi", None, "chi"]


def test_equivalent_builds_at_most_one_relabelled_spec(wide_diamond,
                                                       monkeypatch):
    """Only the carrier the χ rule finds is relabelled into a normal
    form.  Over F5 the flip of the wide diamond has six carriers, and each
    pair of specs is decided with at most one relabelled normal form."""
    built = []
    relabel = involutions._relabelled_spec
    monkeypatch.setattr(involutions, "_relabelled_spec",
                        lambda spec, alpha: built.append(alpha)
                        or relabel(spec, alpha))
    alg = IncidenceAlgebra(wide_diamond, PrimeField(5))
    flip = next(m for m in wide_diamond.involutions()
                if all(m.mapping[x] == x for x in "abc"))
    reps = classify(wide_diamond, flip, alg.field).representatives
    verdicts = []
    for s1, s2 in itertools.product(reps, repeat=2):
        built.clear()
        verdicts.append(equivalent(s1, s2).to_json())
        assert len(built) == (1 if verdicts[-1]["equivalent"] else 0)
    assert {"equivalent": False, "distinguisher": "chi"} in verdicts


def test_equivalent_builds_only_the_carrier_it_returns(monkeypatch):
    """On susp8 over F5 all 40,320 automorphisms carry the involution
    fixing every a_i to itself.  A positive verdict through a carrier
    other than the identity builds just that one; a "chi" verdict whose
    square-class multisets differ runs no search under the χ rule, in
    either order, and builds one carrier, to tell "chi" from "lambda"."""
    poset, field = suspension(8), PrimeField(5)
    alg = IncidenceAlgebra(poset, field)
    lam = next(m for m in poset.involutions() if len(m.fixed_points()) == 8)

    def spec(*nonsquare):
        return rho_eps(alg, lam, {x: 2 if x in nonsquare else 1
                                  for x in lam.fixed_points()})

    built = []
    search = Poset.maps_to

    def counted(*args, **kwargs):
        found = search(*args, **kwargs)
        built.append(len(found))
        return found

    monkeypatch.setattr(Poset, "maps_to", counted)
    verdict = equivalent(spec("a2"), spec("a8"))
    assert verdict.equivalent and not is_identity(verdict.alpha)
    assert built == [1]
    for pair in ((spec("a2"), spec()), (spec(), spec("a2"))):
        built.clear()
        assert equivalent(*pair).distinguisher == "chi"
        assert built == [1]


def test_equivalent_searches_under_the_chi_rule_when_the_multisets_meet(
        monkeypatch):
    """When the square-class multisets meet but no carrier moves χ₂ onto
    χ₁, the search under the χ rule runs and finds none, then one
    carrier tells "chi" from "lambda".  Here λ fixes a, b and c, and only
    b and c can be swapped (a alone lies above d), so (a, b, c) classed
    (1, 1, n) and (n, 1, 1) are told apart, though each holds one n."""
    poset = Poset.from_covers(
        ["0", "d", "a", "b", "c", "e", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("d", "a"), ("a", "e"),
         ("a", "1"), ("b", "1"), ("c", "1")])
    alg = IncidenceAlgebra(poset, PrimeField(5))
    lam = next(m for m in poset.involutions() if m.mapping["b"] == "b")
    s1 = rho_eps(alg, lam, {"a": 1, "b": 1, "c": 2})
    s2 = rho_eps(alg, lam, {"a": 2, "b": 1, "c": 1})
    assert _chi_multisets_meet(s1.invariant().chi, s2.invariant().chi)
    built = []
    search = Poset.maps_to

    def counted(*args, **kwargs):
        found = search(*args, **kwargs)
        built.append(len(found))
        return found

    assert ref_equivalent(s1, s2).distinguisher == "chi"
    monkeypatch.setattr(Poset, "maps_to", counted)
    assert equivalent(s1, s2).distinguisher == "chi"
    assert built == [0, 1]
