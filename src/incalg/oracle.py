"""Brute-force ground truth on tiny instances.

Everything here works with raw ring arithmetic and exact matrix equality.
It shares no logic with the decision procedures it cross-checks, so one
mistake cannot hide in both: units are enumerated coordinate by coordinate,
involutions are found by exhausting conjugated relabel-and-sign maps and
testing the square on the basis, and equivalence classes come from a
union-find over explicit conjugations.  The loops run on value tuples (a
signed coordinate permutation, two compiled-kernel calls per conjugation by
a unit, psi M psi^-1 as M plus the corrections an entry plan makes to the
identity, over M's nonzero cells).

A candidate is first rejected on its ring block, and that rejection is
exact.  The ring coordinates of a product [a; c][b; d] = [ab; ad + cb] are
the product of the ring coordinates, so on a ring basis vector b the ring
coordinates of the candidate's square are f sigma(f sigma(b) f^-1) f^-1,
fixed by the ring unit f alone.  If they miss b for one f, the whole-basis
test fails for every bimodule coordinate j, so no j is tried.  On a
bimodule basis vector [0; e] the candidate and its square depend on f and
the sign k alone, so those columns are computed and tested once per
(f, k).  For a kept f the bimodule coordinates of the square on the first
ring basis vector are linear in j (the D-product is bilinear, I I = 0, and
j^-1's bimodule part -f^-1 j f^-1 is linear in j), so each j is first
tested on that linear form, built from the kernels at the unit vectors
e_t once per (f, k); it vanishes exactly when the first ring column's
square test passes.  Each j that passes is tried on the ring basis, and
every candidate that passes still gets the whole-matrix test.  Orbits are
joined under a generating set of the unit group that spends one scaling
and one bimodule shift per component on central units; a central
conjugator acts as the identity, which joins nothing, so it is skipped
before its action is built.
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
    """The (f, f^-1) value pairs of ``units`` on whose ring block the
    candidate squares to the identity: f sigma(f sigma(b) f^-1) f^-1 == b on
    every ring basis vector b, with sigma(b) = b[perm] (the ring block of a
    relabel-and-sign map carries no sign)."""
    mul = alg._product
    starts = [(b, tuple([b[q] for q in perm]))
              for b in (alg.e(x, y).vals for x, y in alg.pairs)]
    kept = []
    for fvals, f_inv in units:
        for b, b0 in starts:
            r1 = mul(mul(fvals, b0), f_inv)
            if mul(mul(fvals, tuple([r1[q] for q in perm])), f_inv) != b:
                break
        else:
            kept.append((fvals, f_inv))
    return kept


def _conjugated_columns(alg, perm, k, u, u_inv, starts):
    """The columns u beta(b) u^-1, as value tuples, for the (b, beta(b))
    pairs in ``starts``, with beta(b) = (f0, i0) for the relabel-and-sign
    map of ``perm`` and ``k``; None at the first b on which the candidate's
    square misses b.  u and u_inv are (ring, bimodule) value pairs."""
    p, dmul = alg.field.modulus, alg._dproduct
    (fvals, ivals), (f_inv, j_inv) = u, u_inv
    cols = []
    for b, f0, i0 in starts:
        f1, i1 = dmul(*dmul(fvals, ivals, f0, i0), f_inv, j_inv)
        f2, i2 = dmul(fvals, ivals, tuple([f1[q] for q in perm]),
                      tuple([k * i1[q] % p for q in perm]))
        if dmul(f2, i2, f_inv, j_inv) != b:
            return None
        cols.append(f1 + i1)
    return tuple(cols)


def _square_form(alg, perm, k, fvals, f_inv, start, free):
    """The bimodule coordinates of the candidate's square on the ring basis
    vector b of ``start`` (a (b, beta(b)) triple as in the starts lists),
    as a linear form in the bimodule coordinate j of u = [f; j]: row r
    holds, at each coordinate t in ``free``, coordinate r of that square at
    j = e_t, and 0 at the other coordinates.  It is linear because the
    D-product is bilinear, I I = 0 and the bimodule part -f^-1 j f^-1 of
    u^-1 is linear in j; it vanishes at j = 0, where the square is b.  Each
    row entry comes from the kernels, as in ``_conjugated_columns``: j^-1
    from two ring products, the column from two D-products, the square from
    two more."""
    p, mul, dmul = alg.field.modulus, alg._product, alg._dproduct
    _, f0, i0 = start
    zeros = (0,) * len(f0)
    images = []
    for t in range(len(zeros)):
        if t not in free:
            images.append(zeros)
            continue
        e = zeros[:t] + (1,) + zeros[t + 1:]
        e_inv = tuple([-v % p for v in mul(mul(f_inv, e), f_inv)])
        f1, i1 = dmul(*dmul(fvals, e, f0, i0), f_inv, e_inv)
        f2, i2 = dmul(fvals, e, tuple([f1[q] for q in perm]),
                      tuple([k * i1[q] % p for q in perm]))
        images.append(dmul(f2, i2, f_inv, e_inv)[1])
    return list(zip(*images))


def enumerate_involutions_D(alg, limit=UNIT_LIMIT):
    """All ring involutions of the idealization, as deduplicated matrices.

    Exhausts conjugates of every relabel-and-sign map (over the distinct
    signs, one in characteristic 2) by units taken one per central coset,
    keeps the maps that square to the identity on the whole basis (in
    ``d_basis`` order, up to the first failure), and dedupes by exact
    matrix equality.  Each ring unit f is first tested, once per lam, on the
    ring block of the square, which depends on f alone: an f that fails
    there fails the whole-basis test for every bimodule coordinate j, so the
    rejection is exact and its j are never tried.  The bimodule-basis
    columns, [0; k f sigma(e) f^-1] for b = [0; e], and their squares depend
    on (f, k) alone, so they are computed and tested once per (f, k), with
    j = 0; a k whose block fails is skipped for every j.  For a kept f the
    square's ring coordinates on the first ring basis vector are that
    vector's, and its bimodule coordinates are a linear form in j
    (``_square_form``), built once per live (f, k); each j, in ``product``
    order, is rejected at the form's first nonzero entry, which is exactly
    where the first ring column's square test fails.  A j that passes for
    some k gets its j^-1 and the ring-basis columns' test unchanged, and
    every candidate that passes gets the whole-matrix test.  The signed
    basis images are built once per (lam, k).
    """
    poset, field = alg.poset, alg.field
    if not poset.is_connected():
        raise NotConnected("central cosets need a connected poset")
    total = count_units(alg, "D")
    if total is None:
        raise SizeLimit("cannot enumerate over an infinite field")
    if total > limit:
        raise SizeLimit(f"{total} units exceeds the limit {limit}")
    p, mul, n = field.modulus, alg._product, alg.npairs
    f_ranges, i_ranges = _canonical_unit_ranges(alg)
    free = [t for t, r in enumerate(i_ranges) if len(r) > 1]
    units = [(fvals, IncFn(alg, fvals).inverse().vals)
             for fvals in product(*f_ranges)]
    signs = dict.fromkeys((field.one, field.neg(field.one)))
    basis = [(b.f.vals, b.i.vals) for b in d_basis(alg)]
    zeros = alg.zero().vals
    found = {}
    for lam in poset.involutions():
        perm = tuple(alg.pair_index[(lam(y), lam(x))] for x, y in alg.pairs)
        kept = _ring_involutive_units(alg, perm, units)
        by_sign = []
        for k in signs:
            starts = [(b, tuple([b[0][q] for q in perm]),
                       tuple([k * b[1][q] % p for q in perm])) for b in basis]
            by_sign.append((k, starts[:n], starts[n:], {}))
        for fvals, f_inv in kept:
            live = []
            for k, ring, bimodule, seen in by_sign:
                block = _conjugated_columns(alg, perm, k, (fvals, zeros),
                                            (f_inv, zeros), bimodule)
                if block is not None:
                    form = _square_form(alg, perm, k, fvals, f_inv, ring[0],
                                        free)
                    live.append(([row for row in form if any(row)],
                                 k, ring, seen, block))
            if not live:
                continue
            for ivals in product(*i_ranges):
                passing = []
                for entry in live:
                    for row in entry[0]:
                        if sum(map(_mul, row, ivals)) % p:
                            break
                    else:
                        passing.append(entry)
                if not passing:
                    continue
                j_inv = tuple([-v % p for v in mul(mul(f_inv, ivals), f_inv)])
                for _, k, ring, seen, block in passing:
                    cols = _conjugated_columns(alg, perm, k, (fvals, ivals),
                                               (f_inv, j_inv), ring)
                    if cols is not None:
                        seen[cols + block] = None  # an insertion-ordered set
        for _, _, _, seen in by_sign:  # sign order; found keys keep their place
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


def _is_identity(cols):
    """Whether the columns ``cols`` form the identity matrix."""
    return all(v == int(r == c) for c, col in enumerate(cols)
               for r, v in enumerate(col))


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


def _entry_plan(psi, psi_inv):
    """M -> psi M psi^-1 as, for each flat cell k = r d + s of M (column r,
    row s), the (image cell j d + t, psi_inv[j][r] psi[s][t]) pairs over the
    nonzero entries of row r of psi_inv and of column s of psi."""
    d = len(psi)
    rows = [[(j * d, col[r]) for j, col in enumerate(psi_inv) if col[r]]
            for r in range(d)]
    cols = [[(t, w) for t, w in enumerate(col) if w] for col in psi]
    return [[(jd + t, v * w) for jd, v in rows[r] for t, w in cols[s]]
            for r in range(d) for s in range(d)]


def _corrections(plan, p):
    """An entry plan as changes to the identity: for each source cell k,
    the (cell, weight) pairs of plan[k] minus (k, 1), weights reduced mod p
    (none over Q, p None) and zero terms dropped.  The image of M is M plus
    v w at cell c for each nonzero cell k of M, of value v, and each (c, w)
    of k's corrections."""
    out = []
    for k, terms in enumerate(plan):
        weights = dict(terms)
        weights[k] = weights.get(k, 0) - 1
        if p:
            weights = {c: w % p for c, w in weights.items()}
        out.append([(c, w) for c, w in weights.items() if w])
    return out


def orbit_partition(items, conjugators, extra_maps=()):
    """Partition of ``items`` (matrices) under conjugation.

    ``conjugators`` are units; ``extra_maps`` are (map, inverse) matrix
    pairs joined into the same closure (used for non-inner conjugations).
    Returns a list of index lists.  A conjugator g acts by d -> g d g^-1,
    whose columns come straight from the D-product kernel (``_conjugation``);
    a non-unit raises NotAUnit.  A central conjugator acts as the identity,
    as does an identity matrix from ``extra_maps``; either joins nothing and
    is skipped.  Each other action becomes an entry plan (``_entry_plan``)
    and then its corrections to the identity (``_corrections``): an item's
    image is a copy of the item with the corrections of its nonzero cells
    added, and only the cells they touch reduced.  An image that is not an
    item (compared as a whole flat matrix) raises WitnessFailed.
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
        if not _is_identity(m.cols):
            actions.setdefault(m.cols, (m_inv.cols, m.alg.field.modulus))
    plans = [(_corrections(_entry_plan(psi, psi_inv), p), p)
             for psi, (psi_inv, p) in actions.items()]

    for i, flat in enumerate(flats):
        nonzero = [(k, v) for k, v in enumerate(flat) if v]
        for plan, p in plans:
            image = list(flat)
            for k, v in nonzero:
                for c, w in plan[k]:
                    image[c] = (image[c] + v * w) % p if p else image[c] + v * w
            j = index.get(tuple(image))
            if j is None:
                raise WitnessFailed("items are not closed under conjugation")
            union(i, j)

    groups = {}
    for i in range(len(items)):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]
