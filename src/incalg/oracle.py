"""Brute-force ground truth on tiny instances.

Everything here works with raw ring arithmetic and exact matrix equality.
It shares no logic with the decision procedures it cross-checks, so one
mistake cannot hide in both: units are enumerated coordinate by coordinate,
involutions are found by exhausting conjugated relabel-and-sign maps and
squaring the matrix of each, and equivalence classes are the orbits of
explicit conjugations.  The loops run on value tuples and the compiled
product kernels.

A candidate is u beta u^-1, beta the relabel-and-sign map of a poset
involution and a sign k, u = [f; j] a unit.  Over the ring basis and then
the bimodule basis its matrix is M(j) = [[R, 0], [L(j), kR]].  Column b of
R is r_b = f sigma(b) f^-1, the ring part of the column on the ring basis
vector b; the bimodule basis vector [0; b] goes to [0; k r_b]; and
L(j) = sum_t j_t L_t is linear in j, because the D-product is bilinear,
I I = 0 and u^-1 = [f^-1; -f^-1 j f^-1] has a bimodule part linear in j.
Column b of L_t is the bimodule part of the column on b at j = e_t.  As
k^2 = 1 and the lower-left block squares to zero,

    M(j)^2 = [[R^2, 0], [L(j) R + k R L(j), R^2]].

R^2 = 1 depends on f alone: an f that fails it fails for every j and sign,
so it is tested once, and its j are never tried.  For a kept f the accepted
j are the zeros of the stacked form sum_t j_t (L_t R + k R L_t), solved for
rather than scanned: the last coordinate is read off a row whose last
coefficient is nonzero.  The L_t cost two kernel calls per column; L_t R
and R L_t are mod-p products built from them once per f, so a sign enters
only as the scalar k; and a j's columns are the r_b plus the j-combination
of the L_t columns.  So no kernel call is made per sign or per j, and the
square is decided on the very matrix that is returned.  The explicit
per-candidate kernel test is kept in the tests as the reference.

Orbits are searched under a generating set of the unit group that spends
one scaling and one bimodule shift per component on central units; a
central conjugator acts as the identity, so it is skipped before its action
is built.  Only the cells some item holds are planned, and items and images
are compared on those cells and the cells the plans write to.
"""

from itertools import product
from operator import mul as _mul

from .errors import NotConnected, SizeLimit, WitnessFailed
from .fia import IncFn, count_units
from .fields import _primitive_root
from .idealization import DElem, DLinearMap

UNIT_LIMIT = 200_000


def enumerate_units(alg, ring="FI", limit=UNIT_LIMIT):
    """Iterator over all units, in lexicographic coordinate order."""
    total = count_units(alg, ring)
    if total is None:
        raise SizeLimit("cannot enumerate units over an infinite field")
    if total > limit:
        raise SizeLimit(f"{total} units exceeds the limit {limit}")
    field = alg.field
    ranges = [tuple(field.nonzero_elements()) if x == y else
              tuple(field.elements()) for x, y in alg.pairs]
    if ring == "FI":
        for vals in product(*ranges):
            yield IncFn(alg, vals)
        return
    full = [tuple(field.elements())] * alg.npairs
    for fvals in product(*ranges):
        f = IncFn(alg, fvals)
        for ivals in product(*full):
            yield DElem(f, IncFn(alg, ivals))


def _canonical_unit_ranges(alg):
    """Coordinate ranges for one unit per central coset: ring diagonal
    pinned to 1 and bimodule diagonal pinned to 0 at the first element."""
    field = alg.field
    head = alg.poset.elements[0]
    f_ranges, i_ranges = [], []
    for x, y in alg.pairs:
        if (x, y) == (head, head):
            f_ranges.append((field.one,))
            i_ranges.append((field.zero,))
        elif x == y:
            f_ranges.append(tuple(field.nonzero_elements()))
            i_ranges.append(tuple(field.elements()))
        else:
            f_ranges.append(tuple(field.elements()))
            i_ranges.append(tuple(field.elements()))
    return f_ranges, i_ranges


def _ring_involutive_units(alg, perm, units):
    """The (f, f^-1, ring) value triples of ``units`` on whose ring block
    the candidate squares to the identity: f sigma(r) f^-1 == b on every
    ring basis vector b, with r = f sigma(b) f^-1 and sigma(b) = b[perm]
    (the ring block of a relabel-and-sign map carries no sign).  ``ring``
    holds the r, the ring part of the candidate's column on each b."""
    mul = alg._product
    starts = [(b, tuple([b[q] for q in perm]))
              for b in (alg.e(x, y).vals for x, y in alg.pairs)]
    kept = []
    for fvals, f_inv in units:
        ring = []
        for b, b0 in starts:
            r1 = mul(mul(fvals, b0), f_inv)
            if mul(mul(fvals, tuple([r1[q] for q in perm])), f_inv) != b:
                break
            ring.append(r1)
        else:
            kept.append((fvals, f_inv, ring))
    return kept


def _column_images(alg, fvals, f_inv, sigmas, free):
    """For a kept ring unit f, one matrix L_t per free bimodule coordinate
    t, as its columns: column b is the bimodule part of the candidate's
    column u sigma(b) u^-1 at u = [f; e_t], for each ring basis vector b
    (sigma(b) in ``sigmas``), e_t being the unit vector at t and
    [f; e_t]^-1 = [f^-1; -f^-1 e_t f^-1].  The candidate's lower-left block
    at j is the sum of j_t L_t.  Each column is two calls of the D-product
    kernel."""
    p, mul, dmul = alg.field.modulus, alg._product, alg._dproduct
    zeros = (0,) * len(fvals)
    images = []
    for t in free:
        e = zeros[:t] + (1,) + zeros[t + 1:]
        e_inv = tuple([-v % p for v in mul(mul(f_inv, e), f_inv)])
        images.append([dmul(*dmul(fvals, e, f0, zeros), f_inv, e_inv)[1]
                       for f0 in sigmas])
    return images


def _combine(rows, weights, p):
    """The columns of the matrix whose rows are ``rows``, weighted by
    ``weights`` and summed mod p: the matrix times the weight vector.  A
    matrix with no column still has its rows, each empty, so its
    combination is zero in every row."""
    return tuple([sum(map(_mul, row, weights)) % p for row in rows])


def _solutions(rows, ranges, p):
    """The points j of product(*ranges) at which every row, a linear form
    in j with one coefficient per range, vanishes mod p, in ``product``
    order; each range must hold every residue mod p once.  Zero rows are
    dropped.  The heads (all coordinates but the last) are visited in
    ``product`` order.  A row whose last coefficient is nonzero mod p fixes
    the last coordinate of each head, and the other rows are tested at that
    one point; if no row has one, a head at which every row vanishes passes
    with the whole last range.  With no range the one point () passes."""
    if not ranges:
        yield ()
        return
    rows = [row for row in rows if any(row)]
    pivot = next((row for row in rows if row[-1] % p), None)
    rest = [row for row in rows if row is not pivot]
    scale = -pow(pivot[-1], -1, p) if pivot else None
    for head in product(*ranges[:-1]):
        last = ranges[-1] if pivot is None else (
            scale * sum(map(_mul, pivot, head)) % p,)
        j = head + last[:1]  # without a pivot no row reads the last value
        for row in rest:
            if sum(map(_mul, row, j)) % p:
                break
        else:
            for v in last:
                yield head + (v,)


def enumerate_involutions_D(alg, limit=UNIT_LIMIT):
    """All ring involutions of the idealization, as deduplicated matrices.

    The candidates are the conjugates u beta u^-1 of the relabel-and-sign
    maps beta, one per involution of the poset and distinct sign (one sign
    in characteristic 2), by the units u = [f; j] taken one per central
    coset; those that square to the identity are kept, deduplicated by
    exact matrix equality.  Matrices are listed in the order in which they
    first occur when the poset's involutions, then the signs, then the
    units in lexicographic coordinate order are run through.  Raises
    NotConnected on a disconnected poset and SizeLimit over an infinite
    field or when the idealization has more than ``limit`` units.
    """
    poset, field = alg.poset, alg.field
    if not poset.is_connected():
        raise NotConnected("central cosets need a connected poset")
    total = count_units(alg, "D")
    if total is None:
        raise SizeLimit("cannot enumerate over an infinite field")
    if total > limit:
        raise SizeLimit(f"{total} units exceeds the limit {limit}")
    p, n = field.modulus, alg.npairs
    f_ranges, i_ranges = _canonical_unit_ranges(alg)
    free = [t for t, r in enumerate(i_ranges) if len(r) > 1]
    j_ranges = [i_ranges[t] for t in free]
    units = [(fvals, IncFn(alg, fvals).inverse().vals)
             for fvals in product(*f_ranges)]
    signs = dict.fromkeys((field.one, field.neg(field.one)))
    basis = [alg.e(x, y).vals for x, y in alg.pairs]
    zeros = (0,) * n
    found = {}
    for lam in poset.involutions():
        perm = tuple(alg.pair_index[(lam(y), lam(x))] for x, y in alg.pairs)
        kept = _ring_involutive_units(alg, perm, units)
        sigmas = [tuple([b[q] for q in perm]) for b in basis]
        by_sign = [(k, {}) for k in signs]
        for fvals, f_inv, ring in kept:
            images = _column_images(alg, fvals, f_inv, sigmas, free)
            ring_rows = list(zip(*ring))
            halves = []  # L_t R and R L_t, each stacked column by column
            for l_t in images:
                rows = list(zip(*l_t))
                halves.append(
                    (sum([_combine(rows, r, p) for r in ring], ()),
                     sum([_combine(ring_rows, c, p) for c in l_t], ())))
            lower = [[tuple([l_t[b][x] for l_t in images]) for x in range(n)]
                     for b in range(n)]
            for k, seen in by_sign:
                form = list(zip(*[[(a + k * c) % p for a, c in zip(*half)]
                                  for half in halves]))
                block = tuple([zeros + tuple([k * v % p for v in r])
                               for r in ring])
                for j in _solutions(form, j_ranges, p):
                    cols = tuple([r + _combine(rows, j, p)
                                  for r, rows in zip(ring, lower)])
                    seen[cols + block] = None  # an insertion-ordered set
        for _, seen in by_sign:  # sign order; found keys keep their place
            found.update(seen)
    return [DLinearMap(alg, cols) for cols in found]


def unit_group_generators(alg):
    """A generating set of the whole unit group of the idealization, with
    2n + #covers elements: per connected component C with first element h,
    the scaling by a primitive root on all of C and at each other x of C;
    the shifts delta + e_xy for the covers x < y; and per component the
    bimodule shift [delta; delta_C] and [delta; e_xx] for each other x.
    The scaling on C and [delta; delta_C] are central, so their conjugation
    is the identity; the scaling at h is the one on C times the inverses of
    the others, and [delta; e_hh] is [delta; delta_C] times the inverses
    [delta; -e_xx] of the others.  The commutator of the cover shifts
    1 + e_xz and 1 + e_zy is 1 + e_xy, so they give every pair shift;
    conjugating [delta; e_xx] by those gives e_xx - e_xy and e_xx + e_wx,
    so every bimodule shift."""
    field = alg.field
    if field.order is None:
        raise SizeLimit("generators are enumerated for finite fields only")
    root = _primitive_root(field.order)
    delta, zero = alg.delta(), alg.zero()
    elements = alg.poset.elements
    component = {c[0]: c for c in alg.poset.components()}
    scalings, shifts = [], []
    for x in elements:
        moved = component.get(x, (x,))
        scalings.append(DElem(alg.diagonal(
            {y: (root if y in moved else field.one) for y in elements}), zero))
        shifts.append(DElem(delta, alg.diagonal(dict.fromkeys(moved, field.one))))
    covers = [DElem(delta + alg.e(x, y), zero) for x, y in alg.poset.covers]
    return scalings + covers + shifts


def _conjugation(g, h):
    """The columns of d -> g d h over ``d_basis``: column e is the value
    tuple of g e h, two calls of the D-product kernel.  Over Q the kernel is
    an unreduced sum of products, so it takes ``Fraction`` values as is."""
    alg, dmul = g.alg, g.alg._dproduct
    gf, gi, hf, hi = g.f.vals, g.i.vals, h.f.vals, h.i.vals
    zeros, eye = alg.zero().vals, [alg.e(x, y).vals for x, y in alg.pairs]
    cols = ([dmul(*dmul(gf, gi, e, zeros), hf, hi) for e in eye]
            + [dmul(*dmul(gf, gi, zeros, e), hf, hi) for e in eye])
    return tuple([f + i for f, i in cols])


def _action_plan(psi, psi_inv, p, cells):
    """M -> psi M psi^-1 as its changes to M, over the flat cells
    k = r d + s of M (column r, row s) in ``cells``, in their order, that
    it moves: those where row r of psi^-1 or column s of psi is not the
    identity's.  Each gets the pairs (image cell j d + t,
    psi_inv[j][r] psi[s][t]) of that row and column, less (k, 1), weights
    reduced mod p (none over Q, p None), zero terms dropped, and a cell
    left with none dropped too (a scaled row and column can cancel).  The
    image of an M that is zero outside ``cells`` is M plus v w at cell c
    for each listed cell k of M, of value v, and each (c, w) of k's terms.
    Over every cell the plan is empty exactly when the conjugation fixes
    every M, so psi is a scalar matrix: for a ring automorphism, which
    fixes 1, the identity."""
    d = len(psi)
    rows = [[(j * d, col[r]) for j, col in enumerate(psi_inv) if col[r]]
            for r in range(d)]
    cols = [[(t, w) for t, w in enumerate(col) if w] for col in psi]
    moved_rows = [rows[r] != [(r * d, 1)] for r in range(d)]
    moved_cols = [cols[s] != [(s, 1)] for s in range(d)]
    plan = []
    for k in cells:
        r, s = divmod(k, d)
        if not (moved_rows[r] or moved_cols[s]):
            continue
        weights = {jd + t: v * w for jd, v in rows[r] for t, w in cols[s]}
        weights[k] = weights.get(k, 0) - 1
        if p:
            weights = {c: w % p for c, w in weights.items()}
        terms = [(c, w) for c, w in weights.items() if w]
        if terms:
            plan.append((k, terms))
    return plan


def orbit_partition(items, conjugators, extra_maps=()):
    """Partition of ``items`` (matrices) under conjugation.

    ``conjugators`` are units; ``extra_maps`` are (map, inverse) matrix
    pairs joined into the same closure (used for non-inner conjugations).
    Returns a list of index lists, each in increasing order, ordered by
    their first index.  A conjugator g acts by d -> g d g^-1, whose columns
    come straight from the D-product kernel (``_conjugation``); a non-unit
    raises NotAUnit.  A central conjugator acts as the identity and is
    skipped before its action is built.  Each other action, with its
    inverse, becomes a plan of the cells it moves among the cells some item
    holds (``_action_plan``); an empty plan fixes every item, so it joins
    nothing (an identity matrix from ``extra_maps`` too) and is dropped.
    Items and images are compared on the held cells plus the cells the
    plans write to: an image is zero on every other cell, as the items
    are, so an image with a nonzero where no item has one differs from
    every item there.  An image is a copy of the item plus the terms of its
    nonzero listed cells, only the touched cells reduced; one that is not
    an item raises WitnessFailed.  Each action permutes the items, a closed
    finite set, so the orbit of an item is what a breadth-first search
    along the actions reaches from it; the search starts from the smallest
    unlabelled item, and every item's images are formed once.
    """
    flats = [sum(m.cols, ()) for m in items]  # cell r d + s: column r, row s
    held = [c for c, entries in enumerate(zip(*flats)) if any(entries)]
    actions = {}
    for g in conjugators:
        g_inv = g.inverse()
        if g.is_central():
            continue
        psi = _conjugation(g, g_inv)
        if psi not in actions:
            actions[psi] = (_conjugation(g_inv, g), g.alg.field.modulus)
    for m, m_inv in extra_maps:
        actions.setdefault(m.cols, (m_inv.cols, m.alg.field.modulus))
    plans = []
    for psi, (psi_inv, p) in actions.items():
        plan = _action_plan(psi, psi_inv, p, held)
        if plan:
            plans.append((plan, p))
    cells = sorted(set(held).union(
        c for plan, _ in plans for _, terms in plan for c, _ in terms))
    at = {c: i for i, c in enumerate(cells)}
    plans = [([(at[k], [(at[c], w) for c, w in terms]) for k, terms in plan],
              p) for plan, p in plans]
    points = [tuple([flat[c] for c in cells]) for flat in flats]
    index = {point: i for i, point in enumerate(points)}

    labelled = [False] * len(points)
    groups = []
    for first in range(len(points)):
        if labelled[first]:
            continue
        labelled[first] = True
        orbit = [first]
        for i in orbit:  # grows while it is read
            point = points[i]
            for plan, p in plans:
                image = list(point)
                for k, terms in plan:
                    v = point[k]
                    if v:
                        for c, w in terms:
                            image[c] = ((image[c] + v * w) % p if p
                                        else image[c] + v * w)
                j = index.get(tuple(image))
                if j is None:
                    raise WitnessFailed(
                        "items are not closed under conjugation")
                if not labelled[j]:
                    labelled[j] = True
                    orbit.append(j)
        groups.append(sorted(orbit))
    return groups
