"""Brute-force ground truth on tiny instances.

Everything here works with raw ring arithmetic and exact matrix equality.
It shares no logic with the decision procedures it cross-checks, so one
mistake cannot hide in both: units are enumerated coordinate by coordinate,
involutions are found by exhausting conjugated relabel-and-sign maps and
testing the square on the basis, and equivalence classes come from a
union-find over explicit conjugations.  The loops run on value tuples (a
signed coordinate permutation, two compiled-kernel calls per conjugation by
a unit, psi M psi^-1 as M plus the changes a plan lists for the cells psi
moves, over M's nonzero listed cells).

A candidate u beta u^-1, u = [f; j], is first rejected on its ring block,
and that rejection is exact.  The ring coordinates of a product
[a; c][b; d] = [ab; ad + cb] are the product of the ring coordinates, so
on a ring basis vector b the ring coordinates of the candidate's square are
f sigma(f sigma(b) f^-1) f^-1, fixed by the ring unit f alone.  If they
miss b for one f, the whole-basis test fails for every bimodule coordinate
j, so no j is tried.  On a bimodule basis vector [0; e] the candidate and
its square depend on f and the sign k alone, so those columns are computed
and tested once per (f, k).  The rest is decided by linear forms in j: the
D-product is bilinear, I I = 0, and u^-1 = [f^-1; -f^-1 j f^-1] has a
bimodule part linear in j, so on every ring basis vector the bimodule
coordinates of the candidate's column and of its square are linear in j.
Both are built from the kernels at the unit vectors j = e_t, the columns
once per f and the squares once per (f, k); a j is accepted exactly when
the stacked square form vanishes at it, and its ring columns are the ring
parts plus the sum of j_t times the images at e_t, with no kernel call per
j.  The explicit per-candidate kernel test is kept in the tests as the
reference.  Orbits are joined under a generating set of the unit group that
spends one scaling and one bimodule shift per component on central units; a
central conjugator acts as the identity, which joins nothing, so it is
skipped before its action is built.
"""

from itertools import product
from operator import mul as _mul

from .errors import NotConnected, SizeLimit, WitnessFailed
from .fia import IncFn, count_units
from .fields import _primitive_root
from .idealization import DElem, DLinearMap, d_basis

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


def _conjugated_block(alg, perm, k, fvals, f_inv, starts):
    """The columns f beta(b) f^-1, as value tuples, for the (b, beta(b))
    pairs in ``starts``, with beta(b) = (f0, i0) for the relabel-and-sign
    map of ``perm`` and ``k``; None at the first b on which the candidate's
    square misses b.  On a bimodule basis vector b the candidate
    u beta(b) u^-1 is the same for every bimodule coordinate j of
    u = [f; j], so it is computed with j = 0."""
    p, dmul = alg.field.modulus, alg._dproduct
    zeros = (0,) * len(fvals)
    cols = []
    for b, f0, i0 in starts:
        f1, i1 = dmul(*dmul(fvals, zeros, f0, i0), f_inv, zeros)
        f2, i2 = dmul(fvals, zeros, tuple([f1[q] for q in perm]),
                      tuple([k * i1[q] % p for q in perm]))
        if dmul(f2, i2, f_inv, zeros) != b:
            return None
        cols.append(f1 + i1)
    return tuple(cols)


def _column_images(alg, fvals, f_inv, sigmas, free):
    """For a kept ring unit f: the pairs (e_t, e_t^-1), with e_t the unit
    vector of each free bimodule coordinate t and e_t^-1 = -f^-1 e_t f^-1
    the bimodule part of [f; e_t]^-1, and, for each ring basis vector b
    (sigma(b) in ``sigmas``), the bimodule parts of the candidate's column
    u sigma(b) u^-1 at u = [f; e_t], one per t.  The column's ring part
    f sigma(b) f^-1 does not depend on j, and its bimodule part is linear
    in j, so at j it is the sum of j_t times those images."""
    p, mul, dmul = alg.field.modulus, alg._product, alg._dproduct
    zeros = (0,) * len(fvals)
    directions = []
    for t in free:
        e = zeros[:t] + (1,) + zeros[t + 1:]
        e_inv = tuple([-v % p for v in mul(mul(f_inv, e), f_inv)])
        directions.append((e, e_inv))
    images = [[dmul(*dmul(fvals, e, f0, zeros), f_inv, e_inv)[1]
               for e, e_inv in directions] for f0 in sigmas]
    return directions, images


def _square_form(alg, perm, k, fvals, f_inv, directions, ring, images):
    """The bimodule coordinates of the candidate's square on every ring
    basis vector, stacked, as a linear form in the free bimodule
    coordinates of j: row (b, r) holds, for each (e_t, e_t^-1) in
    ``directions``, coordinate r of the square on b at j = e_t.  It is
    linear because the D-product is bilinear, I I = 0 and the bimodule part
    -f^-1 j f^-1 of u^-1 is linear in j; it vanishes at j = 0, where the
    square is b.  ``ring`` and ``images`` are the columns' ring parts and
    bimodule images (``_column_images``); each square at e_t is two calls
    of the D-product kernel."""
    p, dmul = alg.field.modulus, alg._dproduct
    rows = []
    for r, column in zip(ring, images):
        r0 = tuple([r[q] for q in perm])
        squares = []
        for (e, e_inv), i in zip(directions, column):
            i0 = tuple([k * i[q] % p for q in perm])
            squares.append(dmul(*dmul(fvals, e, r0, i0), f_inv, e_inv)[1])
        rows += [tuple([s[x] for s in squares]) for x in range(len(r))]
    return rows


def enumerate_involutions_D(alg, limit=UNIT_LIMIT):
    """All ring involutions of the idealization, as deduplicated matrices.

    Exhausts conjugates of every relabel-and-sign map (over the distinct
    signs, one in characteristic 2) by units u = [f; j] taken one per
    central coset, keeps the maps that square to the identity on the whole
    basis, and dedupes by exact matrix equality.  Each ring unit f is first
    tested, once per lam, on the ring block of the square, which depends on
    f alone: an f that fails there fails the whole-basis test for every
    bimodule coordinate j, so the rejection is exact and its j are never
    tried.  The bimodule-basis columns, [0; k f sigma(e) f^-1] for
    b = [0; e], and their squares depend on (f, k) alone, so they are
    computed and tested once per (f, k) (``_conjugated_block``); a k whose
    block fails is skipped for every j.  On the ring basis the square's
    ring coordinates are b's for a kept f, and the bimodule coordinates of
    the columns and of the square are linear in j (the D-product is
    bilinear, I I = 0, and u^-1's bimodule part -f^-1 j f^-1 is linear in
    j).  So once per kept f with a live k the columns are evaluated at
    j = e_t for each free coordinate t (``_column_images``), and once per
    live (f, k) the squares, stacked over every ring basis vector with
    their zero rows dropped (``_square_form``).  Each j, in ``product``
    order, is accepted for k exactly when every row vanishes mod p, and its
    ring columns are the ring parts plus the sum of j_t times the images,
    so no kernel call is made per j.  The signed basis images are built
    once per (lam, k).
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
    basis = [(b.f.vals, b.i.vals) for b in d_basis(alg)]
    found = {}
    for lam in poset.involutions():
        perm = tuple(alg.pair_index[(lam(y), lam(x))] for x, y in alg.pairs)
        kept = _ring_involutive_units(alg, perm, units)
        sigmas = [tuple([b[0][q] for q in perm]) for b in basis[:n]]
        by_sign = [(k, [(b, tuple([b[0][q] for q in perm]),
                         tuple([k * b[1][q] % p for q in perm]))
                        for b in basis[n:]], {}) for k in signs]
        for fvals, f_inv, ring in kept:
            live = []
            for k, bimodule, seen in by_sign:
                block = _conjugated_block(alg, perm, k, fvals, f_inv, bimodule)
                if block is not None:
                    live.append((k, seen, block))
            if not live:
                continue
            directions, images = _column_images(alg, fvals, f_inv, sigmas,
                                                free)
            tests = []
            for k, seen, block in live:
                form = _square_form(alg, perm, k, fvals, f_inv, directions,
                                    ring, images)
                tests.append(([row for row in form if any(row)], seen, block))
            columns = [(r, [tuple([i[x] for i in column]) for x in range(n)])
                       for r, column in zip(ring, images)]
            for j in product(*j_ranges):
                passing = []
                for rows, seen, block in tests:
                    for row in rows:
                        if sum(map(_mul, row, j)) % p:
                            break
                    else:
                        passing.append((seen, block))
                if not passing:
                    continue
                cols = tuple([r + tuple([sum(map(_mul, row, j)) % p
                                         for row in matrix])
                              for r, matrix in columns])
                for seen, block in passing:
                    seen[cols + block] = None  # an insertion-ordered set
        for _, _, seen in by_sign:  # sign order; found keys keep their place
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


def _action_plan(psi, psi_inv, p):
    """M -> psi M psi^-1 as its changes to M, over the flat cells
    k = r d + s of M (column r, row s) that it moves: those where row r of
    psi^-1 or column s of psi is not the identity's.  Each gets the pairs
    (image cell j d + t, psi_inv[j][r] psi[s][t]) of that row and column,
    less (k, 1), weights reduced mod p (none over Q, p None), zero terms
    dropped, and a cell left with none dropped too (a scaled row and column
    can cancel).  The image of M is M plus v w at cell c for each listed
    cell k of M, of value v, and each (c, w) of k's terms.  The plan is
    empty exactly when the conjugation fixes every M, so psi is a scalar
    matrix: for a ring automorphism, which fixes 1, the identity."""
    d = len(psi)
    rows = [[(j * d, col[r]) for j, col in enumerate(psi_inv) if col[r]]
            for r in range(d)]
    cols = [[(t, w) for t, w in enumerate(col) if w] for col in psi]
    moved = [s for s in range(d) if cols[s] != [(s, 1)]]
    plan = []
    for r in range(d):
        for s in moved if rows[r] == [(r * d, 1)] else range(d):
            k = r * d + s
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
    Returns a list of index lists.  A conjugator g acts by d -> g d g^-1,
    whose columns come straight from the D-product kernel (``_conjugation``);
    a non-unit raises NotAUnit.  A central conjugator acts as the identity
    and is skipped before its action is built.  Each other action, with its
    inverse, becomes a plan of the cells it moves (``_action_plan``); an
    empty plan is the identity, which joins nothing (an identity matrix
    from ``extra_maps`` too), and is dropped.  An item's image is a copy of
    the item with the terms of its nonzero listed cells added, and only the
    cells they touch reduced.  An image that is not an item (compared as a
    whole flat matrix) raises WitnessFailed.
    """
    flats = [sum(m.cols, ()) for m in items]
    index = {flat: i for i, flat in enumerate(flats)}
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
        plan = _action_plan(psi, psi_inv, p)
        if plan:
            plans.append((plan, p))

    for i, flat in enumerate(flats):
        for plan, p in plans:
            image = list(flat)
            for k, terms in plan:
                v = flat[k]
                if v:
                    for c, w in terms:
                        image[c] = ((image[c] + v * w) % p if p
                                    else image[c] + v * w)
            j = index.get(tuple(image))
            if j is None:
                raise WitnessFailed("items are not closed under conjugation")
            union(i, j)

    groups = {}
    for i in range(len(items)):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]
