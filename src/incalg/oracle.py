"""Brute-force ground truth on tiny instances.

Everything here works with raw ring arithmetic and exact matrix equality.
It shares no logic with the decision procedures it cross-checks, so one
mistake cannot hide in both: units are enumerated coordinate by coordinate,
involutions are found by exhausting conjugated relabel-and-sign maps and
testing the square on the basis, and equivalence classes come from a
union-find over explicit conjugations.  The loops run on value tuples (a
signed coordinate permutation, two compiled-kernel calls per conjugation by
a unit, psi M psi^-1 summed over M's nonzero cells through an entry plan).

A candidate is first rejected on its ring block, and that rejection is
exact.  The ring coordinates of a product [a; c][b; d] = [ab; ad + cb] are
the product of the ring coordinates, so on a ring basis vector b the ring
coordinates of the candidate's square are f sigma(f sigma(b) f^-1) f^-1,
fixed by the ring unit f alone.  If they miss b for one f, the whole-basis
test fails for every bimodule coordinate j, so no j is tried.  Every
candidate that passes still gets the whole-matrix test.
"""

from itertools import product

from .errors import NotConnected, SizeLimit, WitnessFailed
from .fia import IncFn, count_units
from .idealization import DElem, DLinearMap, d_basis
from .morphisms import _primitive_root

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


def enumerate_involutions_D(alg, limit=UNIT_LIMIT):
    """All ring involutions of the idealization, as deduplicated matrices.

    Exhausts conjugates of every relabel-and-sign map (over the distinct
    signs, one in characteristic 2) by units taken one per central coset,
    keeps the maps that square to the identity on the whole basis (in
    ``d_basis`` order, up to the first failure), and dedupes by exact
    matrix equality.  Each ring unit f is first tested, once per lam, on the
    ring block of the square, which depends on f alone: an f that fails
    there fails the whole-basis test for every bimodule coordinate j, so the
    rejection is exact and its j are never tried.  Every candidate that
    passes gets the whole-matrix test.  The signed basis images are built
    once per (lam, k), and j^-1 once per (f, j) for both signs.
    """
    poset, field = alg.poset, alg.field
    if not poset.is_connected():
        raise NotConnected("central cosets need a connected poset")
    total = count_units(alg, "D")
    if total is None:
        raise SizeLimit("cannot enumerate over an infinite field")
    if total > limit:
        raise SizeLimit(f"{total} units exceeds the limit {limit}")
    p, mul, dmul = field.modulus, alg._product, alg._dproduct
    f_ranges, i_ranges = _canonical_unit_ranges(alg)
    units = [(fvals, IncFn(alg, fvals).inverse().vals)
             for fvals in product(*f_ranges)]
    signs = dict.fromkeys((field.one, field.neg(field.one)))
    basis = [(b.f.vals, b.i.vals) for b in d_basis(alg)]
    found = {}
    for lam in poset.involutions():
        perm = tuple(alg.pair_index[(lam(y), lam(x))] for x, y in alg.pairs)
        kept = _ring_involutive_units(alg, perm, units)
        by_sign = [(k, [(b, tuple([b[0][q] for q in perm]),
                         tuple([k * b[1][q] % p for q in perm])) for b in basis],
                    {}) for k in signs]
        for fvals, f_inv in kept:
            for ivals in product(*i_ranges):
                j_inv = tuple([-v % p for v in mul(mul(f_inv, ivals), f_inv)])
                for k, starts, seen in by_sign:
                    cols = []
                    for b, f0, i0 in starts:
                        f1, i1 = dmul(*dmul(fvals, ivals, f0, i0), f_inv, j_inv)
                        f2, i2 = dmul(fvals, ivals, tuple([f1[q] for q in perm]),
                                      tuple([k * i1[q] % p for q in perm]))
                        if dmul(f2, i2, f_inv, j_inv) != b:
                            break
                        cols.append(f1 + i1)
                    else:
                        seen[tuple(cols)] = None  # an insertion-ordered set
        for _, _, seen in by_sign:  # sign order; found keys keep their place
            found.update(seen)
    return [DLinearMap(alg, cols) for cols in found]


def unit_group_generators(alg):
    """A generating set of the whole unit group of the idealization: the
    diagonal scalings by a primitive root, the shifts delta + e_xy for the
    covers x < y, and the bimodule shifts [delta; e_xx].  The commutator of
    the cover shifts 1 + e_xz and 1 + e_zy is 1 + e_xy, so they give every
    pair shift; conjugating [delta; e_xx] by those gives e_xx - e_xy and
    e_xx + e_wx, so every bimodule shift."""
    field = alg.field
    if field.order is None:
        raise SizeLimit("generators are enumerated for finite fields only")
    gens = []
    root = _primitive_root(field.order)
    delta, zero = alg.delta(), alg.zero()
    for x in alg.poset.elements:
        vals = {y: (root if y == x else field.one) for y in alg.poset.elements}
        gens.append(DElem(alg.diagonal(vals), zero))
    gens += [DElem(delta + alg.e(x, y), zero) for x, y in alg.poset.covers]
    return gens + [DElem(delta, alg.e(x, x)) for x in alg.poset.elements]


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


def orbit_partition(items, conjugators, extra_maps=()):
    """Partition of ``items`` (matrices) under conjugation.

    ``conjugators`` are units; ``extra_maps`` are (map, inverse) matrix
    pairs joined into the same closure (used for non-inner conjugations).
    Returns a list of index lists.  A conjugator g acts by d -> g d g^-1,
    whose columns come straight from the D-product kernel (``_conjugation``);
    a non-unit raises NotAUnit.  Each action becomes an entry plan
    (``_entry_plan``), and an item's image sums its nonzero cells through
    it; an image that is not an item (compared as a whole flat matrix)
    raises WitnessFailed.
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
        psi = _conjugation(g, g_inv)
        if psi not in actions:
            actions[psi] = _conjugation(g_inv, g)
    for m, m_inv in extra_maps:
        actions.setdefault(m.cols, m_inv.cols)
    plans = [_entry_plan(psi, psi_inv) for psi, psi_inv in actions.items()]

    for i, (item, flat) in enumerate(zip(items, flats)):
        p = item.alg.field.modulus
        nonzero = [(k, v) for k, v in enumerate(flat) if v]
        for plan in plans:
            acc = [0] * len(flat)
            for k, v in nonzero:
                for c, w in plan[k]:
                    acc[c] += v * w
            j = index.get(tuple([v % p for v in acc]) if p else tuple(acc))
            if j is None:
                raise WitnessFailed("items are not closed under conjugation")
            union(i, j)

    groups = {}
    for i in range(len(items)):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]
