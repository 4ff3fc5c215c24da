"""Smith normal form over the integers, with its column transform, and the
decision of both classification hypotheses that is read off it.

``smith_columns`` gives the padded diagonal and every column of the
transform V; the row transform is never needed, so it is not tracked.
``cocycle_obstruction`` takes one such form of the chain relations
(x,z) + (z,y) - (x,y) and reads off the invariant factors and free rank of
the group that measures cocycles modulo coboundaries.  Both hypotheses
depend only on that group and the field: ``check_hypotheses`` applies the
multiplicative rule (no nontrivial character into K*) and the additive one
(no nonzero K-linear functional).  The counterexample finders of
``morphisms`` and ``derivations`` read the same form's columns through
``_smith_reading``.  Nothing here needs the incidence algebra.

Sizes here are tiny (rows and columns bounded by the number of comparable
pairs of a desk-scale poset), so a straightforward pivot-and-reduce loop
with arbitrary-precision ints is plenty.
"""

from math import gcd

from .errors import ParseError
from .fields import PrimeField, RationalField


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (d, V) with U * mat * V = diag(d) for some unimodular U, each
    d[i] >= 0 and d[i] dividing d[i+1]; V is unimodular."""
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]

    t = 0
    while t < m and t < n:
        # find a pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if not done:
                continue
            # ensure the pivot divides the rest of the block
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    d = [a[i][i] for i in range(min(m, n))]
    return d, v


def smith_columns(mat, ncols):
    """The Smith diagonal padded to ``ncols`` with zeros, and every column
    of V, from U * mat * V = diag(d) (``smith_normal_form``).

    Row j of V^-1 maps to a generator of order d[j] in Z^ncols / rowspace
    (order infinite when d[j] == 0), and column j of V gives each unit
    vector's coordinate on it; the columns with d[j] == 0 are a lattice
    basis of {x : mat x = 0}.  With no rows V is the identity.
    """
    if not mat:
        return [0] * ncols, [list(row) for row in _identity(ncols)]
    d, v = smith_normal_form(mat)
    return (d + [0] * (ncols - len(d)),
            [[row[j] for row in v] for j in range(ncols)])


def _relation_rows(poset):
    pidx = {p: k for k, p in enumerate(poset.strict_pairs)}
    rows = []
    for x, z, y in poset.chains:
        row = [0] * len(pidx)
        row[pidx[(x, z)]] += 1
        row[pidx[(z, y)]] += 1
        row[pidx[(x, y)]] -= 1
        rows.append(row)
    return rows


def _smith_reading(poset):
    """One Smith normal form U R V = diag(d) of the chain relations R: the
    obstruction (invariant factors, free rank) read off d, and the pairs
    (d_j, column j of V) over the strict pairs."""
    d, columns = smith_columns(_relation_rows(poset), len(poset.strict_pairs))
    rank_d = len(poset.elements) - len(poset.components())
    return ([x for x in d if x > 1], d.count(0) - rank_d), zip(d, columns)


def cocycle_obstruction(poset):
    """Invariant factors and free rank of the group whose characters are
    exactly the multiplicative cocycles modulo the inner (coboundary) ones.

    That group is (kernel of the pair-difference map d) / (chain relations
    R).  The kernel is a direct summand of the free group on strict pairs,
    so the invariant factors of R are the same in either lattice, and one
    Smith normal form of the relation rows gives both readings: the
    factors d_i > 1, and the free rank #pairs - rank R - rank d, where
    rank d = #points - #components over every field (d is a signed graph
    incidence matrix).
    """
    return _smith_reading(poset)[0]


def _mult_inner_rule(factors, free_rank, field):
    """Whether the obstruction group has no nontrivial character into K*."""
    if isinstance(field, PrimeField):
        if free_rank and field.p != 2:
            return False
        return all(gcd(d, field.p - 1) == 1 for d in factors)
    if isinstance(field, RationalField):
        return free_rank == 0 and all(d % 2 == 1 for d in factors)
    raise ParseError(f"unsupported field {field!r}")


def _der_inner_rule(factors, free_rank, field):
    """Whether the obstruction group has no nonzero functional into K: the
    cocycles exceed the coboundaries by the free rank plus the number of
    invariant factors that the characteristic divides."""
    p = field.char
    return free_rank == 0 and (p == 0 or all(d % p for d in factors))


def check_hypotheses(poset, field):
    """Report on the two classification hypotheses over this field, both
    read off one cocycle obstruction."""
    factors, free_rank = cocycle_obstruction(poset)
    return {"mult_subset_inn": _mult_inner_rule(factors, free_rank, field),
            "der_equals_ider": _der_inner_rule(factors, free_rank, field)}
