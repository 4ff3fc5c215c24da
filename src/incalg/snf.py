"""Smith normal form over the integers, with transform matrices, and
``smith_columns``, the reading of its column transform that the cocycle
counterexamples are built from.

Sizes here are tiny (rows and columns bounded by the number of comparable
pairs of a desk-scale poset), so a straightforward pivot-and-reduce loop
with arbitrary-precision ints is plenty.
"""


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
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


def invariant_factors(mat):
    """Nonzero diagonal entries of the Smith form."""
    d, _, _ = smith_normal_form(mat)
    return [x for x in d if x not in (0, 1)], sum(1 for x in d if x != 0)


def smith_columns(mat, ncols):
    """The Smith diagonal padded to ``ncols`` with zeros, and every column
    of V, from U * mat * V = diag(d).

    Row j of V^-1 maps to a generator of order d[j] in Z^ncols / rowspace
    (order infinite when d[j] == 0), and column j of V gives each unit
    vector's coordinate on it; the columns with d[j] == 0 are a lattice
    basis of {x : mat x = 0}.  With no rows V is the identity.
    """
    if not mat:
        return [0] * ncols, [list(row) for row in _identity(ncols)]
    d, _, v = smith_normal_form(mat)
    return (d + [0] * (ncols - len(d)),
            [[row[j] for row in v] for j in range(ncols)])


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
