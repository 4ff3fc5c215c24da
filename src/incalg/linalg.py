"""Small exact linear-algebra helpers over a Field: row reduction, and
``ColumnMap``, the column-stored linear map that both the algebra's and the
idealization's linear maps are built on."""

from math import lcm

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
    """A K-linear endomorphism stored column-wise: column j, the image of
    basis vector j, is held in the stored form of ``fia.IncFn`` as the
    numerators ``nums[j]`` over ``dens[j]``, so images, composition and
    equality run on ints; ``cols`` gives the columns as field elements.
    Subclasses fix the element type through ``from_function`` (which basis)
    and ``apply``."""

    __slots__ = ("alg", "nums", "dens")

    def __init__(self, alg, cols):
        if alg.field.modulus is None:
            self._set(alg, [alg._lift(c) for c in cols])
        else:  # the residues are the stored form
            self.alg, self.nums = alg, tuple([tuple(c) for c in cols])
            self.dens = (1,) * len(self.nums)

    @classmethod
    def _of(cls, alg, vecs):
        """The map whose column j is vecs[j], a stored-form (num, den)."""
        m = object.__new__(cls)
        m._set(alg, vecs)
        return m

    def _set(self, alg, vecs):
        self.alg = alg
        self.nums = tuple([num for num, _ in vecs])
        self.dens = tuple([den for _, den in vecs])

    @classmethod
    def identity(cls, alg):
        return cls.from_function(alg, lambda v: v)

    @property
    def cols(self):
        """The columns as field elements."""
        if self.alg.field.modulus is not None:  # the residues themselves
            return self.nums
        return tuple([self.alg._values(num, den)
                      for num, den in zip(self.nums, self.dens)])

    def _image(self, num, den):
        """The stored-form image of the stored-form vector (num, den): the
        sum of num[j] col_j over the nonzero num[j], on integers over the
        lcm of those columns' denominators."""
        nums, dens = self.nums, self.dens
        used = [j for j, c in enumerate(num) if c]
        d = lcm(*[dens[j] for j in used])
        acc = [0] * len(nums)
        for j in used:
            c = num[j] * (d // dens[j])
            for r, v in enumerate(nums[j]):
                if v:
                    acc[r] += c * v
        return self.alg._normal(acc, d * den)

    def image(self, vec):
        """The coordinate vector of the image of ``vec`` (field elements)."""
        alg = self.alg
        return alg._values(*self._image(*alg._lift(vec)))

    def compose(self, other):
        """self after other."""
        if other.alg != self.alg:
            raise ContextMismatch("maps over different contexts")
        return self._of(self.alg, [self._image(num, den) for num, den
                                   in zip(other.nums, other.dens)])

    def __eq__(self, other):
        return (type(other) is type(self) and self.alg == other.alg
                and self.nums == other.nums and self.dens == other.dens)

    def __hash__(self):
        return hash((self.nums, self.dens))
