"""Differential tests for the hypothesis decisions and witness searches.

``cocycle_obstruction`` reads both hypotheses off one Smith normal form of
the chain relations.  The routines below are the kernel-and-solve and
field-rank decisions it replaced, kept as the reference oracle.
It takes that form on the poset's core (``Poset.core``, beat points
removed), and the form on the whole poset (``_smith_reading``) is the
reference for that step.  The reference obstruction
(``_cocycle_obstruction_group``) runs on every case, RP^2 and Moore-3
included: its budget is 10 s per poset, and on a 2-core x86-64 machine it
takes about 0.6 s on RP^2 (90 strict pairs) and 3.5 s on Moore-3 (240).

``multiplicative_is_inner`` and ``additive_is_inner`` both solve with
``morphisms._coboundary``.  Their references are the two spanning-tree
propagations that solver replaced, the additive one with its explicit
branch for a point comparable with everything (a cone point).  The
multiplicative witnesses agree exactly; the additive ones agree exactly
when the first element is a cone point or no cone point exists, and
otherwise differ by one constant.
"""

import gc
import itertools
import json
import random
import weakref
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from incalg.derivations import (
    additive_is_inner, der_equals_ider, find_non_inner_additive,
    validate_additive_cocycle,
)
from incalg.errors import InvalidCocycle
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField, RationalField
from incalg.linalg import rref
from incalg.morphisms import (
    find_non_inner_cocycle, mult_subset_inn, multiplicative_is_inner,
    validate_multiplicative_cocycle,
)
from incalg.posets import Poset
from incalg import snf
from incalg.snf import (
    _relation_rows, _smith_reading, check_hypotheses, cocycle_obstruction,
    smith_columns,
)

from conftest import chain
from test_cli_pinned import POSETS
from test_snf import invariant_factors

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7),
          PrimeField(13), QQ)


# -- reference oracle --------------------------------------------------------


def rank(field, rows):
    return len(rref(field, rows)[1]) if rows else 0


def solve(field, rows, rhs):
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return [] if all(v == field.zero for v in rhs) else None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(field, aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None  # pivot in the constant column
    x = [field.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def _pair_difference_matrix(poset):
    """Integer matrix sending a strict pair (x, y) to the point difference
    x - y."""
    n = len(poset.elements)
    cols = []
    for x, y in poset.strict_pairs:
        col = [0] * n
        col[poset.index[x]] += 1
        col[poset.index[y]] -= 1
        cols.append(col)
    return [[col[i] for col in cols] for i in range(n)]


def _cocycle_obstruction_group(poset):
    """Invariant factors and free rank of the group whose characters are
    exactly the multiplicative cocycles modulo the inner (coboundary) ones.

    Presented as (integer kernel of the pair-difference map) modulo the
    subgroup spanned by the chain relations; both live inside the free
    group on strict pairs.  Every relation's coordinates in the kernel
    basis come from one exact elimination of [basis | relations]: the
    basis columns are independent, so each takes a pivot, and a pivot in
    a relation's column would put that relation outside the kernel.
    """
    npairs = len(poset.strict_pairs)
    d, columns = smith_columns(_pair_difference_matrix(poset), npairs)
    kernel = [col for dj, col in zip(d, columns) if dj == 0]
    rels = _relation_rows(poset)
    if not (kernel and rels):
        return [], len(kernel)
    k = len(kernel)
    red, pivots = rref(QQ, [[QQ(v) for v in row]
                            for row in zip(*kernel, *rels)])
    assert pivots == list(range(k)), "relation outside the kernel lattice"
    coords = []
    for j in range(k, k + len(rels)):
        crow = [red[c][j] for c in range(k)]
        assert all(v.denominator == 1 for v in crow), \
            "kernel lattice not saturated"
        coords.append([v.numerator for v in crow])
    factors, rnk = invariant_factors(coords)
    return factors, k - rnk


def reference_mult_subset_inn(group, field):
    factors, free_rank = group
    if isinstance(field, PrimeField):
        if free_rank and field.p != 2:
            return False
        return all(gcd(d, field.p - 1) == 1 for d in factors)
    if isinstance(field, RationalField):
        return free_rank == 0 and all(d % 2 == 1 for d in factors)
    raise AssertionError(f"unsupported field {field!r}")


def _coboundary_rank(poset, field):
    rows = []
    for x, y in poset.strict_pairs:
        row = [field.zero] * len(poset.elements)
        row[poset.index[y]] = field.one
        row[poset.index[x]] = field.neg(field.one)
        rows.append(row)
    return rank(field, rows) if rows else 0


def reference_der_equals_ider(poset, field):
    """Whether every derivation is inner, i.e. every additive cocycle is a
    diagonal coboundary: the cocycle space and the coboundary image must
    have the same dimension over K."""
    npairs = len(poset.strict_pairs)
    if npairs == 0:
        return True
    rel = [[field(v) for v in row] for row in _relation_rows(poset)]
    cocycle_dim = npairs - (rank(field, rel) if rel else 0)
    return cocycle_dim == _coboundary_rank(poset, field)


# -- cases -------------------------------------------------------------------


def crown_k(k):
    """The k-crown: a_i < b_j for i != j."""
    lows = [f"a{i}" for i in range(k)]
    highs = [f"b{i}" for i in range(k)]
    return Poset.from_covers(
        lows + highs,
        [(lows[i], highs[j]) for i in range(k) for j in range(k) if i != j])


def random_poset(rng):
    n = rng.randint(2, 7)
    labels = [f"p{i}" for i in range(n)]
    density = rng.choice((0.2, 0.35, 0.5))
    rels = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]
    return Poset.from_covers(labels, rels)


def named_cases():
    def covers(labels, rels):
        return Poset.from_covers(labels, rels)
    return {
        "chain2": chain(2),
        "chain3": chain(3),
        "chain5": chain(5),
        "diamond": covers(["0", "a", "b", "1"],
                          [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
        "vee": covers(["a", "b", "c"], [("a", "b"), ("a", "c")]),
        "wedge": covers(["a", "b", "c"], [("a", "c"), ("b", "c")]),
        "fence": covers(["a", "b", "c", "d"],
                        [("a", "c"), ("b", "c"), ("b", "d")]),
        "crown": crown_k(2),
        "3-crown": crown_k(3),
        "two_chains": covers(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
        "wide_diamond": covers(
            ["0", "a", "b", "c", "1"],
            [("0", m) for m in "abc"] + [(m, "1") for m in "abc"]),
        "antichain": covers(["a", "b", "c"], []),
        "point": covers(["a"], []),
    }


def all_cases():
    cases = list(named_cases().items())
    rng = random.Random(20261018)
    cases += [(f"random{i}", random_poset(rng)) for i in range(150)]
    return cases


def test_obstruction_and_verdicts_match_reference():
    for name, poset in all_cases():
        group = _cocycle_obstruction_group(poset)
        assert cocycle_obstruction(poset) == group, name
        for field in FIELDS:
            want = {"mult_subset_inn": reference_mult_subset_inn(group, field),
                    "der_equals_ider": reference_der_equals_ider(poset, field)}
            assert check_hypotheses(poset, field) == want, (name, field)


def test_cases_cover_both_verdicts():
    """The differential cases must include failing posets, not only
    passing ones."""
    seen = {tuple(check_hypotheses(p, f).values())
            for _, p in all_cases() for f in (PrimeField(2), QQ)}
    assert {(True, True), (False, False), (True, False)} <= seen


# -- torsion -----------------------------------------------------------------


def rp2_face_poset():
    """Face poset of the 6-vertex triangulation of the real projective
    plane; its order complex is a subdivision of RP^2, so the obstruction
    group is H_1(RP^2) = Z/2."""
    tris = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    edges = sorted({e for t in tris for e in itertools.combinations(t, 2)})

    def name(face):
        return "".join(map(str, face))
    labels = [str(v) for v in range(1, 7)] + [name(e) for e in edges] + \
        [name(t) for t in tris]
    rels = [(str(v), name(e)) for e in edges for v in e]
    rels += [(name(e), name(t)) for t in tris
             for e in itertools.combinations(t, 2)]
    return Poset.from_covers(labels, rels)


def moore3_face_poset():
    """Face poset of a mod-3 Moore space: a disc whose boundary 9-gon wraps
    three times around the triangle a, b, c.  The disc is an outer ring of
    9 boundary vertices, an inner ring u0..u8 and a centre z, so there are
    13 vertices, 39 edges and 27 triangles, and the obstruction group is
    H_1 = Z/3."""
    n = 9
    rim = ["abc"[i % 3] for i in range(n + 1)]
    ring = [f"u{i}" for i in range(n)] + ["u0"]
    tris = set()
    for i in range(n):
        tris.add(frozenset((rim[i], rim[i + 1], ring[i])))
        tris.add(frozenset((rim[i + 1], ring[i], ring[i + 1])))
        tris.add(frozenset(("z", ring[i], ring[i + 1])))
    edges = {frozenset(e) for t in tris for e in itertools.combinations(t, 2)}
    verts = {v for t in tris for v in t}

    def name(face):
        return "-".join(sorted(face))
    labels = sorted(verts) + sorted(map(name, edges)) + sorted(map(name, tris))
    rels = [(v, name(e)) for e in edges for v in e]
    rels += [(name(e), name(t)) for t in tris for e in edges if e < t]
    return Poset.from_covers(labels, sorted(rels))


@pytest.fixture(scope="module")
def rp2():
    return rp2_face_poset()


@pytest.fixture(scope="module")
def moore3():
    return moore3_face_poset()


def test_torsion_factor_of_projective_plane(rp2):
    assert cocycle_obstruction(rp2) == _cocycle_obstruction_group(rp2) \
        == ([2], 0)


@pytest.mark.parametrize("field, mult, der", [
    (PrimeField(2), True, False),
    (PrimeField(3), False, True),
    (PrimeField(5), False, True),
    (QQ, False, True),
])
def test_torsion_verdicts(rp2, field, mult, der):
    # Z/2 has a character into K* exactly when -1 != 1, and a nonzero
    # functional into K exactly in characteristic 2
    assert mult_subset_inn(rp2, field) is mult
    assert der_equals_ider(rp2, field) is der
    assert reference_der_equals_ider(rp2, field) is der
    alg = IncidenceAlgebra(rp2, field)
    if not mult:
        sigma = find_non_inner_cocycle(alg)
        assert sigma is not None
        assert multiplicative_is_inner(alg, sigma) is None
    assert (find_non_inner_additive(alg) is None) is der


def test_face_poset_of_moore_space(moore3):
    dims = [label.count("-") for label in moore3.elements]
    assert [dims.count(k) for k in range(3)] == [13, 39, 27]
    assert cocycle_obstruction(moore3) == _cocycle_obstruction_group(moore3) \
        == ([3], 0)


@pytest.mark.parametrize("field, mult, der", [
    (PrimeField(2), True, True),
    (PrimeField(3), True, False),
    (PrimeField(5), True, True),
    (PrimeField(7), False, True),
    (PrimeField(13), False, True),
    (QQ, True, True),
])
def test_moore_space_verdicts(moore3, field, mult, der):
    # Z/3 has a character into K* exactly when 3 divides |K*|, and a
    # nonzero functional into K exactly in characteristic 3
    assert mult_subset_inn(moore3, field) is mult
    assert der_equals_ider(moore3, field) is der


def test_finders_certify_a_counterexample_exactly_when_a_rule_fails(
        rp2, moore3):
    """Each finder returns None exactly when its rule holds, and otherwise a
    cocycle that the inner-witness search rejects; a failure to find one
    would raise WitnessFailed."""
    cases = all_cases() + [("rp2", rp2), ("moore3", moore3)]
    for name, poset in cases:
        for field in FIELDS:
            report = check_hypotheses(poset, field)
            alg = IncidenceAlgebra(poset, field)
            sigma = find_non_inner_cocycle(alg)
            assert (sigma is None) is report["mult_subset_inn"], (name, field)
            if sigma is not None:
                assert multiplicative_is_inner(alg, sigma) is None, (name, field)
            tau = find_non_inner_additive(alg)
            assert (tau is None) is report["der_equals_ider"], (name, field)
            if tau is not None:
                assert additive_is_inner(alg, tau) is None, (name, field)


# -- witness searches ----------------------------------------------------------


def ref_multiplicative_is_inner(alg, sigma):
    """A diagonal witness eta with sigma(x,y) = eta(x) / eta(y), or None.

    Found by propagating along a spanning tree of the comparability graph
    and checking the non-tree comparable pairs.
    """
    field = alg.field
    poset = alg.poset
    sigma = validate_multiplicative_cocycle(alg, sigma)
    eta = {}
    for v, w in poset.spanning_tree():
        if v is None:
            eta[w] = field.one
        elif poset.leq(v, w):
            eta[w] = field.div(eta[v], sigma[(v, w)])
        else:
            eta[w] = field.mul(sigma[(w, v)], eta[v])
    for (x, y), val in sigma.items():
        if field.div(eta[x], eta[y]) != val:
            return None
    return eta


def ref_additive_is_inner(alg, tau):
    """A diagonal witness f with tau(x,y) = f(y,y) - f(x,x), or None.

    When some point is comparable with everything, the witness is explicit:
    -tau(x, x0) below the first such point x0 (in element order) and
    tau(x0, x) above it.  Otherwise the diagonal is propagated along a
    spanning tree of the comparability graph and the remaining pairs are
    checked.
    """
    field = alg.field
    tau = validate_additive_cocycle(alg, tau)
    poset = alg.poset
    anchors = poset.all_comparable_elements()
    diag = {}
    if anchors:
        x0 = min(anchors, key=poset.index.get)
        for x in poset.elements:
            if poset.leq(x, x0):
                diag[x] = field.neg(tau.get((x, x0), field.zero))
            else:
                diag[x] = tau.get((x0, x), field.zero)
    else:
        for v, w in poset.spanning_tree():
            if v is None:
                diag[w] = field.zero
            elif poset.leq(v, w):
                diag[w] = field.add(diag[v], tau[(v, w)])
            else:
                diag[w] = field.sub(diag[v], tau[(w, v)])
    for (x, y), v in tau.items():
        if field.sub(diag[y], diag[x]) != v:
            return None
    return alg.diagonal(diag)


WITNESS_FIELDS = (PrimeField(3), PrimeField(5), QQ)


def cocycles(alg, rng):
    """(multiplicative, additive) cocycle lists: two random coboundaries of
    each kind, the Smith-form non-inner cocycle when the hypothesis fails,
    and that cocycle times (plus) a random coboundary."""
    field, poset = alg.field, alg.poset
    mult, add = [], []
    for _ in range(2):
        eta = {x: field.random_nonzero(rng) for x in poset.elements}
        mult.append({(x, y): field.div(eta[x], eta[y])
                     for x, y in poset.strict_pairs})
        f = {x: field.random(rng) for x in poset.elements}
        add.append({(x, y): field.sub(f[y], f[x])
                    for x, y in poset.strict_pairs})
    sigma, tau = find_non_inner_cocycle(alg), find_non_inner_additive(alg)
    if sigma is not None:
        mult += [sigma, {p: field.mul(v, mult[0][p]) for p, v in sigma.items()}]
    if tau is not None:
        add += [tau, {p: field.add(v, add[0][p]) for p, v in tau.items()}]
    return mult, add


def check_witnesses(poset, rng):
    """The solver's answers against the references over F3, F5 and Q;
    returns the additive branches of the reference that ran (cone point or
    spanning tree)."""
    cones = poset.all_comparable_elements()
    exact = not cones or poset.elements[0] in cones
    branches = set()
    for field in WITNESS_FIELDS:
        alg = IncidenceAlgebra(poset, field)
        mult, add = cocycles(alg, rng)
        for sigma in mult:
            want = ref_multiplicative_is_inner(alg, sigma)
            got = multiplicative_is_inner(alg, sigma)
            assert (got is None) is (want is None), (poset.elements, field)
            if got is not None:
                assert list(got.items()) == list(want.items())
        for tau in add:
            want = ref_additive_is_inner(alg, tau)
            got = additive_is_inner(alg, tau)
            branches.add("cone" if cones else "tree")
            assert (got is None) is (want is None), (poset.elements, field)
            if got is None:
                continue
            g, w = got.diagonal_values(), want.diagonal_values()
            assert all(field.sub(g[y], g[x]) == field(v)
                       for (x, y), v in tau.items())
            shifts = {field.sub(g[x], w[x]) for x in poset.elements}
            if exact:
                assert got == want
            else:
                assert len(shifts) == 1, (poset.elements, field)
    return branches


FIXTURES = ["chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond"]


@pytest.mark.parametrize("name", FIXTURES)
def test_witness_searches_match_reference_on_fixtures(request, name):
    check_witnesses(request.getfixturevalue(name),
                    random.Random(f"witness:{name}"))


def test_fixtures_run_both_reference_branches_and_both_answers(request):
    """The fixtures include a poset whose first element is not its cone
    point (where the additive witnesses differ by a constant), posets with
    no cone point, and failing posets, so each comparison above is live."""
    branches, moved, failing = set(), [], []
    for name in FIXTURES:
        poset = request.getfixturevalue(name)
        branches |= check_witnesses(poset, random.Random(name))
        cones = poset.all_comparable_elements()
        if cones and poset.elements[0] not in cones:
            moved.append(name)
        if not all(check_hypotheses(poset, QQ).values()):
            failing.append(name)
    assert branches == {"cone", "tree"}
    assert moved == ["wedge"] and failing == ["crown"]


@pytest.mark.parametrize("name", ["crown", "crown3", "fence"])
def test_smith_form_cocycles_match_reference(request, name):
    """The finders' cocycles are non-inner on the crowns, and the fence
    (a tree) has none; every cocycle gets the same answer from both."""
    poset = crown_k(3) if name == "crown3" else request.getfixturevalue(name)
    for field in WITNESS_FIELDS:
        alg = IncidenceAlgebra(poset, field)
        sigma, tau = find_non_inner_cocycle(alg), find_non_inner_additive(alg)
        assert (sigma is None) is (tau is None) is (name == "fence")
        if sigma is not None:
            assert multiplicative_is_inner(alg, sigma) is None
            assert ref_multiplicative_is_inner(alg, sigma) is None
            assert additive_is_inner(alg, tau) is None
            assert ref_additive_is_inner(alg, tau) is None
    check_witnesses(poset, random.Random(f"smith:{name}"))


@st.composite
def witness_posets(draw, max_size=7, cone=None):
    """A poset on at most ``max_size`` points, connected or not: a drawn
    relation that only rises along a drawn linear order, and when drawn (or
    when ``cone`` says so) a cone point c placed above a down-set (a prefix
    of a linear extension) and below the rest, listed at a drawn place."""
    cone = draw(st.booleans()) if cone is None else cone
    n = draw(st.integers(2, max_size - cone))
    rise = draw(st.permutations(range(n)))
    rels = [(f"p{rise[i]}", f"p{rise[j]}") for i in range(n)
            for j in range(i + 1, n) if draw(st.booleans())]
    labels = [f"p{i}" for i in draw(st.permutations(range(n)))]
    if cone:
        base = Poset.from_covers(labels, rels)
        extension = sorted(labels, key=lambda x: len(base.down(x)))
        cut = draw(st.integers(0, n))
        rels += [(x, "c") for x in extension[:cut]]
        rels += [("c", x) for x in extension[cut:]]
        labels.insert(draw(st.integers(0, n)), "c")
    return Poset.from_covers(labels, rels)


@settings(max_examples=40, deadline=None)
@given(witness_posets(), st.integers(0, 2**32))
def test_witness_searches_match_reference_on_drawn_posets(poset, seed):
    check_witnesses(poset, random.Random(seed))


def test_non_cocycles_raise_the_same_invalid_cocycle(request):
    """A missing pair, a value off the chain identity and (multiplicative)
    a zero value each raise InvalidCocycle with the reference's message."""
    searches = [(multiplicative_is_inner, ref_multiplicative_is_inner, "one"),
                (additive_is_inner, ref_additive_is_inner, "zero")]
    for name in ("chain3", "diamond", "fence"):
        poset = request.getfixturevalue(name)
        first = poset.strict_pairs[0]
        for field in WITNESS_FIELDS:
            alg = IncidenceAlgebra(poset, field)
            for search, ref, unit in searches:
                trivial = dict.fromkeys(poset.strict_pairs, getattr(field, unit))
                bad = [{p: v for p, v in trivial.items() if p != first}]
                bad += [{**trivial, (x, y): field(2)}
                        for x, _, y in poset.chains[:1]]
                if search is multiplicative_is_inner:
                    bad.append({**trivial, first: field.zero})
                for values in bad:
                    with pytest.raises(InvalidCocycle) as want:
                        ref(alg, values)
                    with pytest.raises(InvalidCocycle) as got:
                        search(alg, values)
                    assert str(got.value) == str(want.value)


# -- the core ------------------------------------------------------------------


def is_beat_point(poset, x):
    """Whether the points strictly above x have a least element, or those
    strictly below it a greatest one: exactly one upper or lower cover."""
    for near, leq in ((poset.up(x), poset.leq),
                      (poset.down(x), lambda a, b: poset.leq(b, a))):
        strict = [y for y in near if y != x]
        if any(all(leq(m, y) for y in strict) for m in strict):
            return True
    return False


def induced(poset, kept):
    return Poset.from_covers(kept, [(x, y) for x, y in poset.strict_pairs
                                    if x in kept and y in kept])


def ref_core(poset, strips=is_beat_point):
    """Remove the first point that ``strips`` names, in element order, and
    rebuild the induced poset, until no point is named."""
    while True:
        x = next((x for x in poset.elements if strips(poset, x)), None)
        if x is None:
            return poset
        poset = induced(poset, [y for y in poset.elements if y != x])


def with_tail(poset, top, length):
    """``poset`` with a chain of ``length`` new points hung above ``top``."""
    tail = [f"t{i}" for i in range(length)]
    return Poset.from_covers(poset.elements + tuple(tail),
                             list(poset.covers) + list(zip([top] + tail, tail)))


def level_poset(*sizes):
    """Antichains of the given sizes, each wholly below the next."""
    levels = [[f"l{i}_{j}" for j in range(n)] for i, n in enumerate(sizes)]
    return Poset.from_covers(
        [x for level in levels for x in level],
        [(x, y) for low, high in zip(levels, levels[1:])
         for x in low for y in high])


def crowns_with_tails(request):
    """The 4- and 6-point crowns, each with a chain of 1 or 3 points hung
    above one maximum, beside the crown itself."""
    return [(f"{name}+tail{t}", crown, with_tail(crown, top, t))
            for name, crown, top in (
                ("crown", request.getfixturevalue("crown"), "d"),
                ("crown3", crown_k(3), "b0"))
            for t in (1, 3)]


def chain12():
    return chain(12, [f"c{i}" for i in range(12)])


def core_cases(request):
    cases = [(name, request.getfixturevalue(name)) for name in FIXTURES]
    cases += [(f"named {name}", p) for name, p in named_cases().items()]
    cases += [(f"crown_k{k}", crown_k(k)) for k in (4, 5)]
    cases += [(name, poset) for name, _, poset in crowns_with_tails(request)]
    return cases + [("chain12", chain12()),
                    ("B3", Poset.from_covers(*POSETS["B3"])),
                    ("levels222", level_poset(2, 2, 2)),
                    ("levels333", level_poset(3, 3, 3))]


def test_core_obstruction_matches_full_smith_form(request, rp2, moore3):
    """The core's reading equals the whole poset's on every fixture, every
    crown, RP^2 and the mod-3 Moore space; the core has no beat point, is
    induced, keeps the components and matches the one-at-a-time reference
    in size (the core is unique up to isomorphism)."""
    for name, poset in core_cases(request) + [("rp2", rp2),
                                               ("moore3", moore3)]:
        assert cocycle_obstruction(poset) == _smith_reading(poset)[0], name
        core = poset.core()
        assert not any(is_beat_point(core, x) for x in core.elements), name
        assert core == induced(poset, list(core.elements)), name
        assert len(core.components()) == len(poset.components()), name
        assert core.n == ref_core(poset).n, name


@settings(max_examples=60, deadline=None)
@given(witness_posets(max_size=8))
def test_core_obstruction_matches_full_smith_form_on_drawn_posets(poset):
    core = poset.core()
    assert cocycle_obstruction(poset) == _smith_reading(poset)[0]
    assert core.n == ref_core(poset).n
    assert not any(is_beat_point(core, x) for x in core.elements)


@settings(max_examples=40, deadline=None)
@given(witness_posets(max_size=8, cone=True))
def test_a_cone_point_gives_a_one_point_core(poset):
    assert poset.all_comparable_elements()
    assert poset.core().n == 1
    assert cocycle_obstruction(poset) == ([], 0)


def test_core_sizes(request):
    sizes = {name: poset.core().n for name, poset in core_cases(request)}
    assert sizes["chain12"] == sizes["B3"] == 1
    for name, crown, poset in crowns_with_tails(request):
        assert sizes[name] == crown.n and crown.maps_to(poset.core()), name
    assert sizes["levels222"] == 6 and sizes["levels333"] == 9
    crown = request.getfixturevalue("crown")
    assert crown.core() is crown


def test_core_is_computed_once(request, rp2):
    """Each poset strips its beat points once: every later call returns the
    object the first one built, and that core is its own core."""
    for name, poset in core_cases(request) + [("rp2", rp2)]:
        core = poset.core()
        assert poset.core() is core and core.core() is core, name


def test_cores_die_with_their_poset(request):
    """No reference cycle keeps a poset or its stored core alive: with the
    cycle collector off, both are freed as soon as the poset is, whether
    the core is a smaller poset or the poset itself."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, poset in core_cases(request):
            fresh = Poset.from_covers(poset.elements, poset.covers)
            refs = [weakref.ref(fresh), weakref.ref(fresh.core())]
            del fresh
            assert [r() for r in refs] == [None, None], name
    finally:
        if enabled:
            gc.enable()


def test_a_core_that_strips_too_much_fails_the_reference(crown, monkeypatch):
    """A mutant that also strips a point with two upper covers turns the
    crown (a circle, free rank 1) into its two maxima, free rank 0, and the
    comparison with the whole poset's reading catches it."""
    def two_upper_covers(poset, x):
        return sum(1 for y in poset.up(x) if y != x and (x, y) in
                   poset.covers) == 2
    monkeypatch.setattr(Poset, "core", lambda poset: ref_core(
        poset, lambda p, x: is_beat_point(p, x) or two_upper_covers(p, x)))
    assert _smith_reading(crown)[0] == ([], 1)
    assert crown.core().elements == ("c", "d")
    assert cocycle_obstruction(crown) != _smith_reading(crown)[0]


def count_smith_forms(monkeypatch):
    calls = []
    full = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form",
                        lambda mat: calls.append(len(mat)) or full(mat))
    return calls


def test_gate_runs_no_smith_form_when_the_core_has_no_chain(request,
                                                            monkeypatch):
    """Every fixture and chain12 reduce to a core with no chain x < z < y
    (one point on the cone-point ones), so ``check_hypotheses`` runs no
    Smith form on them, although chain12 has 220 chains."""
    calls = count_smith_forms(monkeypatch)
    cases = [request.getfixturevalue(name) for name in FIXTURES]
    for poset in cases + [chain12()]:
        for field in (PrimeField(3), QQ):
            check_hypotheses(poset, field)
        assert calls == [], poset
    assert len(chain12().chains) == 220


def test_gate_runs_one_smith_form_when_the_core_has_a_chain(monkeypatch):
    """A core with a chain takes exactly one Smith form, of its own
    relation rows, on the first call; the core keeps that reading, so
    later calls over any field take none."""
    calls = count_smith_forms(monkeypatch)
    for poset in (level_poset(2, 2, 2), rp2_face_poset()):
        del calls[:]
        for field in (PrimeField(3), QQ, PrimeField(3)):
            check_hypotheses(poset, field)
        assert calls == [len(poset.core().chains)]


# -- the stored reading --------------------------------------------------------


def fresh_reading(poset):
    """``_smith_reading``'s reading taken anew: one new Smith form of the
    relation rows, stored nowhere."""
    d, columns = smith_columns(_relation_rows(poset), len(poset.strict_pairs))
    rank_d = poset.n - len(poset.components())
    return (([x for x in d if x > 1], d.count(0) - rank_d),
            tuple(zip(d, columns)))


def test_stored_reading_equals_a_fresh_one(request, rp2, moore3):
    """On every fixture, crown, RP^2 and the mod-3 Moore space, the reading
    each poset and its core keep equals a fresh one, is kept as a tuple
    that can be read twice, and every later call returns that object."""
    for name, poset in core_cases(request) + [("rp2", rp2),
                                               ("moore3", moore3)]:
        for p in (poset, poset.core()):
            stored = _smith_reading(p)
            assert stored == fresh_reading(p), name
            assert _smith_reading(p) is stored is p._smith, name
            assert isinstance(stored[1], tuple), name
            assert len(stored[1]) == len(p.strict_pairs), name


@settings(max_examples=40, deadline=None)
@given(witness_posets(max_size=8), st.sampled_from(FIELDS))
def test_stored_reading_equals_a_fresh_one_on_drawn_posets(poset, field):
    """After the gate and both finders have read it, the stored reading of
    a drawn poset and of its core equals a fresh one."""
    check_hypotheses(poset, field)
    alg = IncidenceAlgebra(poset, field)
    find_non_inner_cocycle(alg)
    find_non_inner_additive(alg)
    for p in (poset, poset.core()):
        assert p._smith == fresh_reading(p)


def test_a_caller_cannot_change_the_stored_obstruction(rp2):
    factors, _ = cocycle_obstruction(rp2)
    factors.append(7)
    assert cocycle_obstruction(rp2) == ([2], 0)
    assert not check_hypotheses(rp2, PrimeField(3))["mult_subset_inn"]


RP2_FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), QQ)


def rp2_answers(poset, field, first):
    """The gate's report, both wrappers and both finders' cocycles over
    ``field``, asked in an order that starts at entry ``first``."""
    alg = IncidenceAlgebra(poset, field)
    asks = [("report", lambda: check_hypotheses(poset, field)),
            ("mult", lambda: mult_subset_inn(poset, field)),
            ("der", lambda: der_equals_ider(poset, field)),
            ("sigma", lambda: find_non_inner_cocycle(alg)),
            ("tau", lambda: find_non_inner_additive(alg))]
    return dict((key, ask()) for key, ask in asks[first:] + asks[:first])


def test_rp2_verdicts_do_not_depend_on_the_call_order():
    """RP^2's reading has the factor 2, which decides differently over F2
    (multiplicative inner, a non-inner derivation) and over every odd field
    (a non-inner character, derivations inner).  Over a fresh poset object
    per order of the five fields, in all 120 orders, and with the first
    call rotating through the gate, the wrappers and the finders, every
    answer equals the one a fresh object gives over that field alone, and
    the verdicts equal the reference decisions.  The 120 orders take about
    2 s on a 2-core x86-64 machine, one Smith form each."""
    group = _cocycle_obstruction_group(rp2_face_poset())
    alone = {}
    for field in RP2_FIELDS:
        alone[field.name] = rp2_answers(rp2_face_poset(), field, 0)
        want = {"mult_subset_inn": reference_mult_subset_inn(group, field),
                "der_equals_ider": reference_der_equals_ider(
                    rp2_face_poset(), field)}
        assert alone[field.name]["report"] == want, field
        assert (alone[field.name]["mult"], alone[field.name]["der"]) == (
            want["mult_subset_inn"], want["der_equals_ider"])
    assert [a["sigma"] is None for a in alone.values()] == [
        True, False, False, False, False]
    assert [a["tau"] is None for a in alone.values()] == [
        False, True, True, True, True]
    for n, order in enumerate(itertools.permutations(RP2_FIELDS)):
        poset = rp2_face_poset()
        for k, field in enumerate(order):
            got = rp2_answers(poset, field, (n + k) % 5)
            assert got == alone[field.name], ([f.name for f in order], field)


def test_one_smith_form_per_poset_object(monkeypatch):
    """The gate, both wrappers, both finders, and repeated ``classify`` and
    ``equivalent_inner`` calls over several fields share one Smith form
    when the poset is its own core.  A poset whose core is smaller takes
    one for the core (the gate) and one for itself (the finders), and an
    equal poset built anew takes its own."""
    from incalg.involutions import classify, equivalent_inner
    calls = count_smith_forms(monkeypatch)
    poset = level_poset(2, 2, 2)
    assert poset.core() is poset and poset.chains
    for field in FIELDS:
        check_hypotheses(poset, field)
        mult_subset_inn(poset, field)
        der_equals_ider(poset, field)
        alg = IncidenceAlgebra(poset, field)
        assert find_non_inner_cocycle(alg) is None
        assert find_non_inner_additive(alg) is None
    lam = poset.involutions()[0]
    for field in (PrimeField(3), PrimeField(5), PrimeField(3)):
        reps = classify(poset, lam, field).representatives
        assert equivalent_inner(reps[0], reps[0]).equivalent
        assert not equivalent_inner(reps[0], reps[1]).equivalent
    assert calls == [len(poset.chains)]

    del calls[:]
    tailed = with_tail(poset, "l2_0", 2)
    core = tailed.core()
    assert core is not tailed and core.n == poset.n
    for field in (PrimeField(2), PrimeField(3), QQ):
        check_hypotheses(tailed, field)
        alg = IncidenceAlgebra(tailed, field)
        find_non_inner_cocycle(alg)
        find_non_inner_additive(alg)
    assert calls == [len(core.chains), len(tailed.chains)]

    del calls[:]
    twin = Poset.from_covers(poset.elements, poset.covers)
    check_hypotheses(twin, QQ)
    check_hypotheses(twin, PrimeField(7))
    assert twin == poset and calls == [len(poset.chains)]


@pytest.mark.parametrize("name, field, code", [
    ("rp2", "F7", 3), ("moore3", "F7", 3), ("moore3", "F3", 3),
    ("rp2", "F2", 3), ("moore3", "Q", 0),
])
def test_a_hypotheses_run_takes_one_smith_form(request, tmp_path, monkeypatch,
                                               capsys, name, field, code):
    """``incalg hypotheses`` on a poset that is its own core takes one Smith
    form in all, whether it passes or prints one or two counterexamples:
    the gate and the finders read the one the poset keeps."""
    from incalg.cli import main
    poset = request.getfixturevalue(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(poset.to_json()))
    calls = count_smith_forms(monkeypatch)
    assert main(["hypotheses", "--poset", str(path), "--field", field]) == code
    assert calls == [len(poset.chains)]
    assert ("non_inner" in capsys.readouterr().out) is (code == 3)


def test_stored_readings_die_with_their_poset(request, rp2):
    """The stored reading makes no reference cycle: with the cycle collector
    off, a poset that has kept its reading and its core's is freed as soon
    as it is, and so is its core."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, poset in core_cases(request) + [("rp2", rp2)]:
            fresh = Poset.from_covers(poset.elements, poset.covers)
            check_hypotheses(fresh, QQ)
            find_non_inner_cocycle(IncidenceAlgebra(fresh, QQ))
            assert fresh._smith is not None, name
            refs = [weakref.ref(fresh), weakref.ref(fresh.core())]
            del fresh
            assert [r() for r in refs] == [None, None], name
    finally:
        if enabled:
            gc.enable()
