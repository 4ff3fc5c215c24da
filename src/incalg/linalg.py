"""Exact row reduction over a Field (``rref``), kept for the tests'
reference routines; no library module calls it.  ``ColumnMap``, the
column-stored linear map, lives in ``fia``."""


def rref(field, rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != field.zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != field.zero:
                factor = m[i][c]
                m[i] = [field.sub(a, field.mul(factor, b))
                        for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots
