"""Small exact linear-algebra helpers over a Field: row reduction, and
``ColumnMap``, the column-stored linear map that both the algebra's and the
idealization's linear maps are built on."""

from .errors import ContextMismatch


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


class ColumnMap:
    """A K-linear endomorphism stored column-wise: ``cols[j]`` is the
    coordinate vector of the image of basis vector j.  Subclasses fix the
    element type through ``from_function`` (which basis) and ``apply``."""

    __slots__ = ("alg", "cols")

    def __init__(self, alg, cols):
        self.alg = alg
        self.cols = tuple(tuple(c) for c in cols)

    @classmethod
    def identity(cls, alg):
        return cls.from_function(alg, lambda v: v)

    def image(self, vec):
        """The coordinate vector of the image of ``vec``."""
        field = self.alg.field
        zero = field.zero
        acc = [zero] * len(self.cols)
        for c, col in zip(vec, self.cols):
            if c == zero:
                continue
            for r, v in enumerate(col):
                acc[r] += c * v
        p = field.modulus
        if p is not None:
            return tuple(v % p for v in acc)
        return tuple(acc)

    def compose(self, other):
        """self after other."""
        if other.alg != self.alg:
            raise ContextMismatch("maps over different contexts")
        return type(self)(self.alg, [self.image(col) for col in other.cols])

    def __eq__(self, other):
        return (type(other) is type(self) and self.alg == other.alg
                and self.cols == other.cols)

    def __hash__(self):
        return hash(self.cols)
