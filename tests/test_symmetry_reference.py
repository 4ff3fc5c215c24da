"""The poset symmetry code against the routines it replaced.

``Poset.maps_to`` runs one comparison path over the target's order rows,
or over its dual rows for anti-isomorphisms; ``PosetMap`` checks a map on
the same rows through an index list; ``lambda_decomposition`` places each
orbit once, since its constraints are 2-SAT; and ``equivalent`` and the
χ-fold test conjugacy on the mappings.  The references below are the
earlier label-lookup search, the label-lookup order check, the recursive
backtracking split and the compose-chain conjugacy tests.  They must agree
on every fixture and on drawn posets: the same maps in the same order, the
same accept or reject with the same message, the same split.

``ref_equivalent`` is the per-carrier loop ``equivalent`` replaced: it
built a relabelled normal form and ran a whole inner-equivalence attempt
for each carrier, where ``equivalent`` compares χ keys per carrier and
builds one.  The verdicts must agree byte for byte as JSON.
"""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from incalg.errors import (
    IncalgError, NoDecomposition, ParseError, SizeLimit, WitnessFailed,
)
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import d_one, random_d_unit
from incalg import involutions
from incalg.involutions import (
    InvolutionSpec, Verdict, _check_same_context, _equivalent_inner,
    _intertwines, _relabel_by_pairs, _relabelled_spec, build, classify,
    equivalent, require_classifiable, rho_eps,
)
from incalg.posets import (
    SEARCH_SIZE_BOUND, Poset, PosetMap, lambda_decomposition,
)

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
    if set(mapping) != set(src.elements):
        return "map must be defined on every element"
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


def ref_carries(alpha, lam1, lam2):
    """The compose-chain carrier test of ``equivalent``."""
    return alpha.compose(lam2).compose(alpha.inverse()) == lam1


def ref_commutes(alpha, lam):
    """The compose-chain normalizer test of the χ-fold."""
    return alpha.compose(lam) == lam.compose(alpha)


def ref_equivalent(s1, s2):
    """The per-carrier loop of ``equivalent``: one relabelled normal form
    and one inner attempt per carrier, until one succeeds."""
    _check_same_context(s1, s2)
    alg = s1.alg
    require_classifiable(alg.poset, alg.field)
    if s1.k != s2.k:
        return Verdict(False, distinguisher="sign")
    carriers = [a for a in alg.poset.automorphisms()
                if _intertwines(a, s1.lam, s2.lam)]
    if not carriers:
        return Verdict(False, distinguisher="lambda")
    for alpha in carriers:
        conjugated = _relabelled_spec(s2, alpha)
        inner = _equivalent_inner(s1, conjugated)
        if inner.equivalent:
            if _relabel_by_pairs(s2, alpha) != conjugated._perm:
                raise WitnessFailed("relabel conjugation mismatch")
            return Verdict(True, conjugator=inner.conjugator,
                           alpha=alpha, k=alg.field.one)
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
    """Maps the bijection checks refuse: a missing point, a repeated image."""
    if src.n < 2:
        return []
    first, second = src.elements[:2]
    onto = dict(zip(src.elements, dst.elements))
    missing = {x: y for x, y in onto.items() if x != first}
    doubled = dict(onto, **{second: onto[first]})
    return [missing, doubled]


def spread(items, k):
    """At most about ``k`` items, evenly spaced through the list."""
    return items[::max(1, math.ceil(len(items) / k))]


def check_split_and_conjugacy(poset):
    """Every split; the conjugacy tests over a spread of the group and of
    the involutions, since their product grows as the group squared."""
    lams = poset.involutions()
    autos = poset.automorphisms()
    for lam in lams:
        try:
            want = ref_lambda_decomposition(poset, lam)
        except NoDecomposition:
            with pytest.raises(NoDecomposition):
                lambda_decomposition(poset, lam)
            continue
        d = lambda_decomposition(poset, lam)
        assert (d.lower, d.upper, d.fixed) == want
    some = spread(lams, 12)
    for alpha in spread(autos, 48):
        for lam1, lam2 in itertools.product(some, repeat=2):
            assert _intertwines(alpha, lam1, lam2) == ref_carries(alpha, lam1, lam2)
        for lam in lams:
            assert _intertwines(alpha, lam, lam) == ref_commutes(alpha, lam)


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


@pytest.mark.parametrize("name", FIXTURES)
def test_split_and_conjugacy_match_reference_on_fixtures(request, name):
    check_split_and_conjugacy(request.getfixturevalue(name))


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


@settings(max_examples=40, deadline=None)
@given(self_dual_posets())
def test_split_and_conjugacy_match_reference_on_drawn_self_dual_posets(drawn):
    poset, lam = drawn
    assert lam in poset.involutions()
    check_search(poset, poset)
    check_split_and_conjugacy(poset)


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


def test_equivalent_builds_at_most_one_relabelled_spec(wide_diamond,
                                                       monkeypatch):
    """Carriers are compared on their χ keys; only the first match is
    relabelled into a normal form.  Over F5 the flip of the wide diamond
    has six carriers, and each pair of specs is decided with at most one
    relabelled normal form."""
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
