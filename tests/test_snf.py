"""The Smith normal form.  The library's ``smith_normal_form`` tracks the
column transform V only; the version below, kept verbatim from before the
row transform U was dropped, tracks both, so ``check_snf`` can still verify
U * M * V = diag(d), and the library must return the same d and V as it."""

import random
from itertools import combinations
from math import gcd

import pytest

from incalg.errors import ParseError
from incalg.fields import Field
from incalg.posets import Poset
from incalg.snf import check_hypotheses, smith_columns, smith_normal_form


def invariant_factors(mat):
    """Nonzero diagonal entries of the Smith form other than 1, and the
    rank: the reading the reference routines compare against."""
    d, _ = smith_normal_form(mat)
    return [x for x in d if x not in (0, 1)], sum(1 for x in d if x != 0)


# -- reference: the U-tracking Smith normal form, verbatim -------------------


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form_with_u(mat):
    """Return (d, U, V) with U * mat * V = diag(d), each d[i] >= 0 and
    d[i] dividing d[i+1]; U, V are unimodular."""
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

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
    return d, u, v


def check_snf(mat, d, u, v):
    """Exact check that u * mat * v is diag(d) (used in tests)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    um = [[sum(u[i][k] * mat[k][j] for k in range(m)) for j in range(n)]
          for i in range(m)]
    umv = [[sum(um[i][k] * v[k][j] for k in range(n)) for j in range(n)]
           for i in range(m)]
    for i in range(m):
        for j in range(n):
            want = d[i] if i == j and i < len(d) else 0
            if umv[i][j] != want:
                return False
    return True


def checked_snf(mat):
    """(d, U, V) from the reference, after asserting that the library gives
    the same d and V."""
    d, u, v = smith_normal_form_with_u(mat)
    assert smith_normal_form(mat) == (d, v)
    return d, u, v


def minor_oracle(mat):
    """Invariant factors via gcd of k x k minors, independent of the
    elimination code."""
    m, n = len(mat), len(mat[0])

    def det(rs, cs):
        if len(rs) == 1:
            return mat[rs[0]][cs[0]]
        return sum((-1) ** i * mat[rs[0]][c] * det(rs[1:], cs[:i] + cs[i + 1:])
                   for i, c in enumerate(cs))

    ds, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det(rows, cols))
        if g == 0:
            ds.append(0)
        else:
            ds.append(g // prev)
            prev = g
    return ds


def test_known_form():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert minor_oracle(mat) == [2, 2, 156]
    d, u, v = checked_snf(mat)
    assert d == [2, 2, 156]
    assert check_snf(mat, d, u, v)


def test_against_minor_oracle_random():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        d, _, _ = checked_snf(mat)
        want = minor_oracle(mat)
        # trailing zeros of the oracle are zero diagonal entries
        assert d == want


def test_divisibility_and_transforms_random():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        d, u, v = checked_snf(mat)
        assert check_snf(mat, d, u, v)
        for a, b in zip(d, d[1:]):
            if b:
                assert a != 0 and b % a == 0
        assert all(x >= 0 for x in d)


def kernel_columns(mat, ncols):
    """The columns of V over a zero of the padded Smith diagonal."""
    d, columns = smith_columns(mat, ncols)
    return [col for dj, col in zip(d, columns) if dj == 0]


def test_kernel_basis_is_exact_kernel():
    rng = random.Random(6)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        basis = kernel_columns(mat, n)
        for vec in basis:
            assert all(sum(row[j] * vec[j] for j in range(n)) == 0 for row in mat)
        # rank of kernel + rank of matrix = n
        _, r = invariant_factors(mat)
        assert len(basis) == n - r


def test_kernel_of_zero_and_empty():
    assert kernel_columns([[0, 0], [0, 0]], 2) == [[1, 0], [0, 1]]
    assert kernel_columns([], 0) == []
    assert smith_columns([], 2) == ([0, 0], [[1, 0], [0, 1]])


def test_columns_are_the_column_transform():
    rng = random.Random(8)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        d, columns = smith_columns(mat, n)
        want, v = smith_normal_form(mat)
        assert d == want + [0] * (n - len(want))
        assert columns == [list(col) for col in zip(*v)]


def test_invariant_factors_filtering():
    factors, rank = invariant_factors([[1, 0], [0, 6]])
    assert factors == [6] and rank == 2
    factors, rank = invariant_factors([[2, 0, 0], [0, 0, 0]])
    assert factors == [2] and rank == 1


def _unimodular(rng, n, steps=12):
    """A random integer matrix of determinant +-1, from row operations on
    the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_against_sympy_random():
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(11)
    mats = []
    for _ in range(30):
        # entries like the chain-relation rows: 0 and +-1
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mats.append([[rng.choice((0, 0, 1, -1)) for _ in range(n)]
                     for _ in range(m)])
    for _ in range(30):
        # prescribed torsion: U diag(d) V with d = 1, 2, 6, 12, 0, ...
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        diag = sorted(rng.sample((1, 1, 2, 3, 6, 12, 0, 0), min(m, n)),
                      key=lambda d: (d == 0, d))
        d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)]
             for i in range(m)]
        mats.append(_mul(_mul(_unimodular(rng, m), d), _unimodular(rng, n)))
    torsion_seen = 0
    for mat in mats:
        want = [abs(int(x)) for x in sympy_factors(Matrix(mat), domain=ZZ)]
        factors, rank = invariant_factors(mat)
        assert factors == [x for x in want if x not in (0, 1)], mat
        assert rank == Matrix(mat).rank() == sum(1 for x in want if x)
        torsion_seen += bool(factors)
    assert torsion_seen >= 10


def test_hypotheses_refuse_a_field_of_no_known_kind():
    chain2 = Poset.from_covers(["a", "b"], [("a", "b")])
    with pytest.raises(ParseError, match="unsupported field"):
        check_hypotheses(chain2, Field())
