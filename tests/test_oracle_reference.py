"""Differential tests for the oracle against its object-based reference.

``oracle.enumerate_involutions_D`` and ``oracle.orbit_partition`` run on
value tuples: a precomputed signed permutation for the relabel-and-sign
map, direct calls of the compiled product kernels, and conjugation of
projected matrices through a per-action plan of the cells it moves.  The
fast enumeration first rejects a candidate on its ring block, once per ring
unit f: the ring coordinates of a D-product are the product of the ring
coordinates, so those of the candidate's square on a ring basis vector
depend on f alone, and an f that misses there fails the whole-basis test
for every bimodule coordinate.  So the rejection is exact.  For a kept f
the candidate's matrix is [[R, 0], [L(j), kR]], the bimodule-basis block
read off the ring test with no kernel call, which the ``DElem`` candidate
must confirm for every kept f, sign and sample j.  L(j) is linear in j, so
the square is 1 plus L(j) R + k R L(j) in the lower-left block, and a j is
accepted by the stacked form sum_t j_t (L_t R + k R L_t) alone, with the
last coordinate solved for rather than scanned.  The solve must list what a
plain ``product`` scan lists, in order; the form must equal the per-sign
kernel form it replaced row for row, evaluate at j to the ``DElem`` square
on every ring basis vector, and vanish exactly when the matrix built at j
squares to the identity; the columns must equal the ``DElem`` candidate's;
and the kernel calls are counted.  The fast partition skips central
conjugators, builds each other conjugator's action from the D-product
kernel and, from the action and its inverse, a plan of the cells it moves
among the cells the items hold; it compares items and images on those cells
and the cells the plans write to, and labels orbits by a breadth-first
search.

The versions those replaced are kept below as the reference: the
object-based functions build a ``DElem`` for every product, test every
candidate on the whole basis, conjugate with dense ``DLinearMap.compose``
and ``inner_auto``, join orbits with a union-find, and generate the unit
group with every pair shift and every bimodule shift (the oracle uses the
cover shifts and the diagonal bimodule shifts only, with per component one
scaling and one bimodule shift central, and never conjugates by a central
unit).  The kernel enumeration tests the bimodule block with explicit
kernel calls per (f, sign), and every candidate j that its first ring
column's linear form passes with explicit kernel calls on the ring basis;
the per-sign square form squares each column at j = e_t with two more
kernel calls; the entry plan sends every cell of a matrix to the cells of
its conjugate, and its corrections are that plan less the identity.  Both
enumerations must return the oracle's matrices in the same order, and the
fast partition under the oracle's generators must equal the reference
partition under the reference ones, with and without ``python -O``; the
ring-block rejection must keep exactly the ring units that an ``IncFn``
computation of the ring block keeps, each action must be ``inner_auto``'s
matrix, each plan must be the reference corrections of the cells it lists
and send a matrix to its ``compose`` conjugate, a plan over some cells must
be the full plan restricted to them, and an image nonzero on a cell no item
holds must raise ``WitnessFailed``.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from operator import mul as _mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import incalg
from incalg import oracle
from incalg.errors import NotConnected, SizeLimit, WitnessFailed
from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField, _primitive_root
from incalg.idealization import (
    DElem, DLinearMap, central_pair, d_basis, d_one, inner_auto,
)
from incalg.involutions import base_involution, sigma_lambda
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


def kernel_columns(alg, perm, k, u, u_inv, starts):
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


def first_column_form(alg, perm, k, fvals, f_inv, start, free):
    """The bimodule coordinates of the candidate's square on the ring basis
    vector b of ``start``, as a linear form in the bimodule coordinate j:
    row r holds, at each coordinate t in ``free``, coordinate r of that
    square at j = e_t, and 0 at the other coordinates."""
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


def square_form(alg, perm, k, fvals, f_inv, free, ring, images):
    """The bimodule coordinates of the candidate's square on every ring
    basis vector, stacked, as a linear form in the free bimodule
    coordinates of j: row (b, r) holds, for each t in ``free``, coordinate
    r of the square on b at j = e_t, squared with two more calls of the
    D-product kernel from the column there, whose ring part is ``ring[b]``
    and whose bimodule part is column b of the t-th of ``images``
    (``oracle._column_images``)."""
    p, mul, dmul = alg.field.modulus, alg._product, alg._dproduct
    zeros = (0,) * len(fvals)
    directions = []
    for t in free:
        e = zeros[:t] + (1,) + zeros[t + 1:]
        directions.append((e, tuple([-v % p for v in
                                     mul(mul(f_inv, e), f_inv)])))
    rows = []
    for b, r in enumerate(ring):
        r0 = tuple([r[q] for q in perm])
        squares = []
        for (e, e_inv), l_t in zip(directions, images):
            i0 = tuple([k * l_t[b][q] % p for q in perm])
            squares.append(dmul(*dmul(fvals, e, r0, i0), f_inv, e_inv)[1])
        rows += [tuple([s[x] for s in squares]) for x in range(len(r))]
    return rows


def kernel_enumeration(alg):
    """The oracle's enumeration with per-candidate kernel acceptance: each
    j that the first ring column's linear form passes gets j^-1 and the
    explicit square test on the ring basis (``kernel_columns``), at four
    kernel calls per column tried."""
    poset, field = alg.poset, alg.field
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
        kept = oracle._ring_involutive_units(alg, perm, units)
        by_sign = []
        for k in signs:
            starts = [(b, tuple([b[0][q] for q in perm]),
                       tuple([k * b[1][q] % p for q in perm])) for b in basis]
            by_sign.append((k, starts[:n], starts[n:], {}))
        for fvals, f_inv, _ in kept:
            live = []
            for k, ring, bimodule, seen in by_sign:
                block = kernel_columns(alg, perm, k, (fvals, zeros),
                                       (f_inv, zeros), bimodule)
                if block is not None:
                    form = first_column_form(alg, perm, k, fvals, f_inv,
                                             ring[0], free)
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
                    cols = kernel_columns(alg, perm, k, (fvals, ivals),
                                          (f_inv, j_inv), ring)
                    if cols is not None:
                        seen[cols + block] = None
        for _, _, _, seen in by_sign:
            found.update(seen)
    return [DLinearMap(alg, cols) for cols in found]


def entry_plan(psi, psi_inv):
    """M -> psi M psi^-1 as, for each flat cell k = r d + s of M (column r,
    row s), the (image cell j d + t, psi_inv[j][r] psi[s][t]) pairs over the
    nonzero entries of row r of psi_inv and of column s of psi."""
    d = len(psi)
    rows = [[(j * d, col[r]) for j, col in enumerate(psi_inv) if col[r]]
            for r in range(d)]
    cols = [[(t, w) for t, w in enumerate(col) if w] for col in psi]
    return [[(jd + t, v * w) for jd, v in rows[r] for t, w in cols[s]]
            for r in range(d) for s in range(d)]


def corrections(plan, p):
    """An entry plan as changes to the identity: for each source cell k,
    the (cell, weight) pairs of plan[k] minus (k, 1), weights reduced mod p
    (none over Q, p None) and zero terms dropped."""
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


def ring_parts(alg, lam, f):
    """The values of f sigma(e_xy) f^-1 over the basis, on ``IncFn``
    objects: the ring parts of the candidate's ring basis columns."""
    sigma = [IncFn(alg, tuple(b[lam(y), lam(x)] for x, y in alg.pairs))
             for b in (alg.e(x, y) for x, y in alg.pairs)]
    f_inv = f.inverse()
    return [(f * s * f_inv).vals for s in sigma]


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
        kept = oracle._ring_involutive_units(alg, perm, units)
        assert [(fvals, f_inv) for fvals, f_inv, _ in kept] == want
        assert all(ring == ring_parts(alg, lam, IncFn(alg, fvals))
                   for fvals, _, ring in kept)
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
    passing = [u[:2] for u in oracle._ring_involutive_units(alg, perm, units)]
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


def candidate(alg, lam, k, u):
    """The candidate u beta u^-1 of ``lam`` and the sign k, as a function
    on ``DElem`` objects."""
    perm = relabel_perm(alg, lam)
    u_inv = u.inverse()

    def phi(d):
        beta = DElem(IncFn(alg, tuple(d.f.vals[q] for q in perm)),
                     IncFn(alg, tuple(d.i.vals[q] for q in perm)).scale(k))
        return u * beta * u_inv

    return phi


def columns_tested(alg, lam, k, u, basis):
    """(t, ok): the candidate of ``lam``, k and u squared on ``basis`` in
    order up to and including the first element its square misses; t
    counts the elements tried and ok says whether the square fixes them
    all."""
    phi = candidate(alg, lam, k, u)
    for t, b in enumerate(basis, 1):
        if phi(phi(b)) != b:
            return t, False
    return len(basis), True


def expected_kernel_calls(alg):
    """D-kernel calls of an enumeration that reads the bimodule-basis block
    off the ring test and decides each j by the square of the matrix it
    builds: for a kept f it evaluates every ring basis column at j = e_t
    for each free bimodule coordinate t, two calls each.  No kernel call
    is made per sign or per j."""
    n = alg.npairs
    f_ranges, i_ranges = _canonical_unit_ranges(alg)
    free = sum(len(r) > 1 for r in i_ranges)
    kept = sum(ring_block_squares_to_identity(alg, lam, IncFn(alg, fvals))
               for lam in alg.poset.involutions()
               for fvals in product(*f_ranges))
    return kept * 2 * n * free


@pytest.mark.parametrize("n, p, bottom_up", [
    (2, 2, True), (2, 3, True), (2, 3, False), (2, 5, True), (2, 5, False),
    (3, 2, True)])
def test_kernel_calls_are_counted_per_unit_and_sign(n, p, bottom_up,
                                                    monkeypatch):
    """The ring basis columns cost one evaluation per free coordinate per
    kept f, and each sign, the bimodule-basis block and each j cost no
    kernel call.  Outputs cannot see a block whose kernel test is added
    back (k^2 = 1, so the ring test implies it), a square form rebuilt from
    the kernels per sign, or columns rebuilt per k or per j, so the kernel
    calls are counted exactly."""
    alg = chain_algebra(n, p, bottom_up)
    calls, kernel = [], alg._dproduct

    def counting(*operands):
        calls.append(None)
        return kernel(*operands)

    monkeypatch.setattr(alg, "_dproduct", counting)
    invs = oracle.enumerate_involutions_D(alg)
    assert invs and len(calls) == expected_kernel_calls(alg)


ENUMERATION_CASES = [
    *((2, p, b) for p in (2, 3, 5, 7) for b in (True, False)),
    (3, 3, True), (3, 3, False), (3, 2, True),
    ("diamond", 2, True), ("crown", 2, True)]


def enumeration_algebra(poset, p, bottom_up, request):
    """A chain of that length, or the named connected poset fixture."""
    if isinstance(poset, int):
        return chain_algebra(poset, p, bottom_up)
    return IncidenceAlgebra(request.getfixturevalue(poset), PrimeField(p))


@pytest.mark.parametrize("poset, p, bottom_up", ENUMERATION_CASES)
def test_bimodule_block_is_read_off_the_ring_test(poset, p, bottom_up,
                                                  request):
    """For every ring unit f the ring test keeps, every sign k and every
    bimodule coordinate j, the ``DElem`` candidate of u = [f; j] sends the
    bimodule basis vector [0; e] to [0; k r], r = f sigma(e) f^-1 being the
    ring part the ring test returns for e, and squares it back to [0; e]:
    the identity that lets the oracle build the block with no kernel
    call and keep every sign."""
    alg = enumeration_algebra(poset, p, bottom_up, request)
    n, zeros = alg.npairs, alg.zero()
    bimodule_basis = d_basis(alg)[n:]
    _, i_ranges = _canonical_unit_ranges(alg)
    j_vals = [tuple(r[0] for r in i_ranges), tuple(r[-1] for r in i_ranges)]
    signs = dict.fromkeys((alg.field.one, alg.field.neg(alg.field.one)))
    tested = 0
    for lam in alg.poset.involutions():
        for fvals, _, ring in oracle._ring_involutive_units(
                alg, relabel_perm(alg, lam), ring_units(alg)):
            f = IncFn(alg, fvals)
            for k, ivals in product(signs, j_vals):
                phi = candidate(alg, lam, k, DElem(f, IncFn(alg, ivals)))
                for b, r in zip(bimodule_basis, ring):
                    image = phi(b)
                    assert image == DElem(zeros, IncFn(
                        alg, tuple(k * v % p for v in r)))
                    assert phi(image) == b
                    tested += 1
    assert tested


def built_matrix(alg, k, ring, images, j):
    """The matrix the oracle builds at the free bimodule coordinates j for
    a kept ring unit with ring parts ``ring``, the sign k and the
    ``oracle._column_images`` matrices ``images``: [[R, 0], [L(j), kR]],
    with column b of R the ring part ``ring[b]`` and L(j) the sum of j_t
    times the t-th of ``images``."""
    p, n = alg.field.modulus, alg.npairs
    return DLinearMap(alg, [
        r + tuple(sum(jt * l_t[b][x] for jt, l_t in zip(j, images)) % p
                  for x in range(n)) for b, r in enumerate(ring)] + [
        (0,) * n + tuple(k * v % p for v in r) for r in ring])


def kept_cases(alg):
    """(perm, k, fvals, f_inv, ring) for every poset involution, ring unit
    the ring test keeps and sign, in the order the enumeration takes them:
    involution, then unit, then sign."""
    signs = dict.fromkeys((alg.field.one, alg.field.neg(alg.field.one)))
    return [(perm, k, fvals, f_inv, ring)
            for perm in (relabel_perm(alg, lam)
                         for lam in alg.poset.involutions())
            for fvals, f_inv, ring in oracle._ring_involutive_units(
                alg, perm, ring_units(alg))
            for k in signs]


def recorded_forms(alg, monkeypatch):
    """The enumeration's list, and the forms it hands ``_solutions``, one
    per kept ring unit and sign, in call order."""
    forms, solve = [], oracle._solutions

    def recording(rows, ranges, p):
        forms.append(list(rows))
        return solve(rows, ranges, p)

    monkeypatch.setattr(oracle, "_solutions", recording)
    return oracle.enumerate_involutions_D(alg), forms


@pytest.mark.parametrize("n, p, bottom_up", [
    (2, 2, True), (2, 2, False), (2, 3, True), (2, 3, False), (2, 5, True),
    (2, 5, False), (2, 7, True), (2, 7, False), (3, 3, True)])
def test_linear_rejection_is_exact(n, p, bottom_up):
    """For every kept ring unit f, live sign k and bimodule coordinate j,
    the reference square form (``square_form``, built from the kernels at
    j = e_t) evaluated at j is the bimodule part of the square on every
    ring basis vector, in basis order, which ``DElem`` products compute,
    and it vanishes exactly when the square fixes every ring basis vector;
    and the ring parts plus the columns of the ``oracle._column_images``
    matrices weighted by j are the candidate's columns u beta(b) u^-1 on
    the ring basis."""
    alg = chain_algebra(n, p, bottom_up)
    basis = d_basis(alg)
    ring_basis = basis[:alg.npairs]
    f_ranges, i_ranges = _canonical_unit_ranges(alg)
    free = [t for t, r in enumerate(i_ranges) if len(r) > 1]
    signs = dict.fromkeys((alg.field.one, alg.field.neg(alg.field.one)))
    forms = accepted = rejected = 0
    for lam in alg.poset.involutions():
        perm = relabel_perm(alg, lam)
        sigmas = [tuple(b.f.vals[q] for q in perm) for b in ring_basis]
        for fvals in product(*f_ranges):
            f = IncFn(alg, fvals)
            if not ring_block_squares_to_identity(alg, lam, f):
                continue
            f_inv, ring = f.inverse().vals, ring_parts(alg, lam, f)
            images = oracle._column_images(alg, fvals, f_inv, sigmas, free)
            for k in signs:
                if not columns_tested(alg, lam, k, DElem(f, alg.zero()),
                                      basis[alg.npairs:])[1]:
                    continue
                form = square_form(alg, perm, k, fvals, f_inv, free, ring,
                                   images)
                forms += 1
                for ivals in product(*i_ranges):
                    j = [ivals[t] for t in free]
                    phi = candidate(alg, lam, k, DElem(f, IncFn(alg, ivals)))
                    columns = [phi(b) for b in ring_basis]
                    squares = [phi(c) for c in columns]
                    assert [s.f for s in squares] == [b.f for b in ring_basis]
                    value = tuple(sum(map(_mul, row, j)) % p for row in form)
                    assert value == sum((s.i.vals for s in squares), ())
                    assert (not any(value)) == (squares == ring_basis)
                    assert built_matrix(alg, k, ring, images, j).cols[
                        :alg.npairs] == tuple(coords(c) for c in columns)
                    accepted += not any(value)
                    rejected += any(value)
    assert forms and accepted and rejected


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


@pytest.mark.parametrize("poset, p, bottom_up", ENUMERATION_CASES)
def test_fast_enumeration_matches_the_kernel_reference(poset, p, bottom_up,
                                                       request):
    """The solved stacked-form acceptance lists the matrices that
    per-candidate kernel acceptance lists, in the same order, on chains (by
    length) and on two connected posets that are not chains."""
    alg = enumeration_algebra(poset, p, bottom_up, request)
    fast = oracle.enumerate_involutions_D(alg)
    assert fast and [m.cols for m in fast] == [
        m.cols for m in kernel_enumeration(alg)]


@pytest.mark.parametrize("poset, p, bottom_up", ENUMERATION_CASES)
def test_square_form_matches_the_per_sign_kernel_reference(
        poset, p, bottom_up, request, monkeypatch):
    """The stacked form sum_t j_t (L_t R + k R L_t), built from mod-p
    products once per kept ring unit, equals row for row the per-sign form
    it replaced, which squares every column at each j = e_t with two more
    kernel calls, for every kept ring unit and sign."""
    alg = enumeration_algebra(poset, p, bottom_up, request)
    _, forms = recorded_forms(alg, monkeypatch)
    _, i_ranges = _canonical_unit_ranges(alg)
    free = [t for t, r in enumerate(i_ranges) if len(r) > 1]
    basis = [alg.e(x, y).vals for x, y in alg.pairs]
    want = []
    for perm, k, fvals, f_inv, ring in kept_cases(alg):
        sigmas = [tuple(b[q] for q in perm) for b in basis]
        images = oracle._column_images(alg, fvals, f_inv, sigmas, free)
        want.append(square_form(alg, perm, k, fvals, f_inv, free, ring,
                                images))
    assert want and forms == want


@pytest.mark.parametrize("bottom_up", [True, False])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_form_vanishes_exactly_where_the_built_matrix_squares_to_one(
        p, bottom_up, monkeypatch):
    """At every j in the free ranges, for every kept ring unit and sign,
    the form the enumeration solves vanishes exactly when the matrix it
    builds at j satisfies M M = 1 under ``DLinearMap.compose``; and the
    enumeration lists exactly the matrices built where the form vanishes."""
    alg = chain_algebra(2, p, bottom_up)
    invs, forms = recorded_forms(alg, monkeypatch)
    identity = DLinearMap.identity(alg)
    _, i_ranges = _canonical_unit_ranges(alg)
    free = [t for t, r in enumerate(i_ranges) if len(r) > 1]
    basis = [alg.e(x, y).vals for x, y in alg.pairs]
    cases = kept_cases(alg)
    assert len(forms) == len(cases)
    accepted, rejected = set(), 0
    for form, (perm, k, fvals, f_inv, ring) in zip(forms, cases):
        sigmas = [tuple(b[q] for q in perm) for b in basis]
        images = oracle._column_images(alg, fvals, f_inv, sigmas, free)
        for j in product(*[i_ranges[t] for t in free]):
            m = built_matrix(alg, k, ring, images, j)
            vanishes = not any(sum(map(_mul, row, j)) % p for row in form)
            assert vanishes == (m.compose(m) == identity)
            if vanishes:
                accepted.add(m.cols)
            else:
                rejected += 1
    assert rejected and accepted == {m.cols for m in invs}


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


def through_corrections(corrections, m):
    """The same image built as ``orbit_partition`` builds it: a copy of the
    flattened ``m`` plus the corrections of its nonzero cells, reduced on
    the cells they touch only."""
    flat, d, p = sum(m.cols, ()), len(m.cols), m.alg.field.modulus
    image, touched = list(flat), set()
    for k, v in enumerate(flat):
        if v:
            for c, w in corrections[k]:
                image[c] += v * w
                touched.add(c)
    for c in touched if p else ():
        image[c] %= p
    return tuple(tuple(image[j * d:(j + 1) * d]) for j in range(d))


def through_moves(plan, m):
    """The image of the matrix ``m`` as ``orbit_partition`` builds it: a
    copy of the flattened ``m`` plus the terms of its nonzero listed cells,
    reduced on the cells they touch only."""
    flat, d, p = sum(m.cols, ()), len(m.cols), m.alg.field.modulus
    image, touched = list(flat), set()
    for k, terms in plan:
        if flat[k]:
            for c, w in terms:
                image[c] += flat[k] * w
                touched.add(c)
    for c in touched if p else ():
        image[c] %= p
    return tuple(tuple(image[j * d:(j + 1) * d]) for j in range(d))


def matrices_and_actions(alg, p):
    """Random matrices, often zero in a cell, with the identity, and
    (action, inverse) pairs: inner automorphisms of random units and of a
    central unit, and the lift [f; i] -> [f; 2i], which is not inner."""
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
    k = alg.field(2)
    actions.append((lift_scalar(alg, k), lift_scalar(alg, alg.field.inv(k))))
    return mats, actions


@pytest.mark.parametrize("p", [5, None], ids=["F5", "Q"])
def test_entry_plan_images_are_the_conjugates(p):
    """Each action's plan over every cell lists exactly the cells whose
    reference corrections are not empty, with those corrections, and sends
    a matrix to its conjugate, as the reference entry plan and corrections
    do."""
    alg = chain_algebra(3, p)
    every = range((2 * alg.npairs) ** 2)
    mats, actions = matrices_and_actions(alg, p)
    identity = DLinearMap.identity(alg)
    for psi, psi_inv in actions:
        assert psi.compose(psi_inv) == identity
        plan = entry_plan(psi.cols, psi_inv.cols)
        reference = corrections(plan, p)
        moves = oracle._action_plan(psi.cols, psi_inv.cols, p, every)
        assert moves == [(c, terms) for c, terms in enumerate(reference)
                         if terms]
        assert (moves == []) == (psi == identity)
        weights = [w for _, terms in moves for _, w in terms]
        assert all(0 < w < p for w in weights) if p else all(weights)
        for m in mats:
            image = psi.compose(m).compose(psi_inv).cols
            assert through_plan(plan, m) == image
            assert through_corrections(reference, m) == image
            assert through_moves(moves, m) == image
    assert not any(corrections(entry_plan(identity.cols, identity.cols), p))
    assert oracle._action_plan(identity.cols, identity.cols, p, every) == []


@pytest.mark.parametrize("p", [5, None], ids=["F5", "Q"])
def test_plan_on_some_cells_is_the_full_plan_restricted(p):
    """A plan over a list of cells is the plan over every cell restricted
    to those cells, in the same order; on a matrix zero outside them it
    still sends the matrix to its conjugate."""
    alg = chain_algebra(3, p)
    d = 2 * alg.npairs
    rng = random.Random(7)
    mats, actions = matrices_and_actions(alg, p)
    diagonal = [r * d + r for r in range(d)]
    samples = [[], diagonal, list(range(d * d))] + [
        sorted(rng.sample(range(d * d), t)) for t in (1, 5, d * d // 2)]
    for psi, psi_inv in actions:
        full = oracle._action_plan(psi.cols, psi_inv.cols, p, range(d * d))
        for cells in samples:
            moves = oracle._action_plan(psi.cols, psi_inv.cols, p, cells)
            assert moves == [(k, terms) for k, terms in full if k in cells]
            held = set(cells)
            for m in mats:
                m = DLinearMap(alg, [[v if r * d + s in held else 0
                                      for s, v in enumerate(col)]
                                     for r, col in enumerate(m.cols)])
                image = psi.compose(m).compose(psi_inv).cols
                assert through_moves(moves, m) == image


def test_orbit_partition_plans_each_action_ahead_of_its_inverse(monkeypatch):
    """Partitions cannot tell an action from its inverse (a finite set
    closed under one is closed under the other), so the order of the
    arguments ``orbit_partition`` hands ``_action_plan`` is checked here."""
    alg = chain_algebra(2, 5)
    gens = oracle.unit_group_generators(alg)
    sign, sign_inv = lift_scalar(alg, 2), lift_scalar(alg, 3)
    calls, plans, plan = [], [], oracle._action_plan

    def recording(psi, psi_inv, p, cells):
        calls.append((psi, psi_inv))
        plans.append(plan(psi, psi_inv, p, cells))
        return plans[-1]

    monkeypatch.setattr(oracle, "_action_plan", recording)
    identity = DLinearMap.identity(alg)
    # every involution, so that each moving action moves some held cell
    # (on the identity alone a scaling moves none)
    oracle.orbit_partition(oracle.enumerate_involutions_D(alg), gens,
                           [(sign, sign_inv), (identity, identity)])
    want = dict.fromkeys((inner_auto(g).cols, inner_auto(g.inverse()).cols)
                         for g in gens if inner_auto(g) != identity)
    want.setdefault((sign.cols, sign_inv.cols))
    want.setdefault((identity.cols, identity.cols))
    assert calls == list(want)
    # the two central generators act as the identity and are never
    # conjugated: the scaling at b, the cover shift, [delta; e_bb] and the
    # lift are planned, and the identity extra map gets an empty plan,
    # which is dropped
    assert len(gens) == 5 and len(want) == 5
    assert [psi for (psi, _), moves in zip(calls, plans) if not moves] == [
        identity.cols]


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


def test_breadth_first_partition_matches_the_union_find_reference():
    """Orbits are labelled by a breadth-first search from the smallest
    unlabelled item.  The items are shuffled, so that orbits interleave in
    index order, and the groups, each in increasing order, and their order
    must be the union-find reference's under every unit of chain2 over F3
    as a conjugator, with and without extra maps."""
    alg = chain_algebra(2, 3)
    items = oracle.enumerate_involutions_D(alg)
    random.Random(5).shuffle(items)
    units = list(enumerate_units(alg, "D"))
    sign = lift_scalar(alg, 2)  # its own inverse over GF(3)
    inner = (inner_auto(units[100]), inner_auto(units[100].inverse()))
    assert len(units) == 324
    for conjugators, extra in [(units, ()), (units, [(sign, sign)]),
                               ([], [inner]), ([], [inner, (sign, sign)])]:
        got = oracle.orbit_partition(items, conjugators, extra)
        assert got == orbit_partition(items, conjugators, extra)
        assert any(a[-1] > b[0] for a, b in zip(got, got[1:]))
    assert len(oracle.orbit_partition(items, units)) == 4


def test_an_image_off_the_held_cells_is_not_an_item(chain2):
    """The one item holds cell (0, 0) only, and the action sends it to
    itself plus a nonzero at (column 0, row 1), which no item holds.  The
    two agree on every held cell, so only the cells the plan writes to tell
    the image from the item."""
    alg = IncidenceAlgebra(chain2, PrimeField(5))
    d = 2 * alg.npairs

    def matrix(entries):  # {(column, row): value}
        return DLinearMap(alg, [[entries.get((r, s), 0) for s in range(d)]
                                for r in range(d)])

    eye = {(r, r): 1 for r in range(d)}
    item = matrix({(0, 0): 1})
    psi, psi_inv = matrix({**eye, (0, 1): 1}), matrix({**eye, (0, 1): 4})
    assert psi.compose(psi_inv) == DLinearMap.identity(alg)
    image = psi.compose(item).compose(psi_inv)
    assert image == matrix({(0, 0): 1, (0, 1): 1})
    with pytest.raises(WitnessFailed, match="not closed under conjugation"):
        oracle.orbit_partition([item], [], [(psi, psi_inv)])


def scan(rows, ranges, p):
    """Every point of product(*ranges) at which every row vanishes mod p,
    in ``product`` order."""
    return [j for j in product(*ranges)
            if all(sum(map(_mul, row, j)) % p == 0 for row in rows)]


@st.composite
def linear_systems(draw):
    """(p, m, rows): up to four rows of m <= 3 coefficients mod p, among
    them rows whose last coefficient is zero and rows that are all zero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(0, 3))
    coefficient = st.integers(0, p - 1)
    row = st.one_of(st.tuples(*[coefficient] * m),
                    st.tuples(*[coefficient] * (m - 1), st.just(0))
                    if m else st.just(()),
                    st.just((0,) * m))
    return p, m, draw(st.lists(row, max_size=4))


@settings(max_examples=300, deadline=None)
@given(linear_systems())
@example((7, 2, []))
@example((7, 2, [(3, 0)]))
@example((7, 2, [(0, 0)]))
@example((7, 0, []))
@example((2, 3, [(1, 1, 1), (0, 1, 1)]))
def test_solved_last_coordinate_matches_the_product_scan(system):
    """The solve lists exactly the points a plain scan accepts, in the same
    order, with one usable row, several, none, or no rows at all."""
    p, m, rows = system
    ranges = [tuple(range(p))] * m
    assert list(oracle._solutions(rows, ranges, p)) == scan(rows, ranges, p)


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
      *t.compare(t.chain_algebra(2, 5, bottom_up=False)),
      *t.compare(t.chain_algebra(3, 3)), *t.compare(t.chain_algebra(2, 2)),
      *t.compare(t.chain_algebra(2, 7)),
      *t.compare(t.chain_algebra(2, 7, bottom_up=False)))
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
    assert proc.stdout == "False" + " True" * 12 + "\n"
