"""The incidence algebra of a finite poset over an exact field.

For a finite poset the finitary condition is vacuous, so the algebra and
the incidence space coincide: an element is just a function on the
comparable pairs.  Storage is a dense tuple over the canonical interval
basis, multiplication is the convolution

    (f g)(x, y) = sum over x <= z <= y of f(x, z) g(z, y),

and the diagonal-ones function is the unity.

The convolution is precomputed once per algebra as a flat term list: two
gathers pick f(x, z) and g(z, y) for every term of every entry, one ``map``
multiplies them pairwise, and each entry sums its slice.  Over a prime
field the sum takes one ``% p`` per entry.  Over Q the kernel runs on
integers: each operand is lifted to numerators over the lcm of its
denominators (``_numerators``), and each entry of the product is one
reduced ``Fraction(sum, da * db)``, so values stay ``Fraction`` and no
``Fraction`` arithmetic runs per term.  Every call multiplies all of its
terms; products that vanish by structure are skipped by the callers:
``idealization.DElem.__mul__`` forms only the coordinate products whose
operands are both nonzero, and ``morphisms.FiaMorphism.apply`` does not
conjugate by the unity.

On the interval basis the structure constants are 0 or 1 (e_xy e_zw is
e_xw when y = z and zero otherwise), so a product of two basis elements
needs no convolution at all: it is the lookup ``basis_product[(i, j)]``,
which misses when the product is zero.
"""

from fractions import Fraction
from math import lcm
from operator import itemgetter, mul

from .errors import ContextMismatch, NotAUnit, NotComparable


class IncidenceAlgebra:
    """Context object binding a poset and a field; builds IncFn values."""

    def __init__(self, poset, field):
        self.poset = poset
        self.field = field
        self.pairs = poset.pairs
        self.npairs = len(self.pairs)
        self.pair_index = poset.pair_index
        # conv[k] lists the index pairs (i, j) contributing f[i]*g[j] to
        # entry k of a product
        conv = []
        for x, y in self.pairs:
            terms = []
            for z in poset.between(x, y):
                terms.append((self.pair_index[(x, z)], self.pair_index[(z, y)]))
            conv.append(tuple(terms))
        self.conv = tuple(conv)
        # the same terms flattened: entry k of a product sums
        # f[_left][_bounds[k]] * g[_right][_bounds[k]] termwise
        self._left = _gather([i for terms in conv for i, _ in terms])
        self._right = _gather([j for terms in conv for _, j in terms])
        bounds, start = [], 0
        for terms in conv:
            bounds.append(slice(start, start + len(terms)))
            start += len(terms)
        self._bounds = tuple(bounds)
        # e_i e_j = e_k for each composable (i, j); absent pairs multiply to 0
        self.basis_product = {
            ij: k for k, terms in enumerate(conv) for ij in terms}
        self._diag = tuple(k for k, (x, y) in enumerate(self.pairs) if x == y)
        # pair indices ordered by interval size, for back-substitution
        self._by_interval = sorted(
            range(self.npairs), key=lambda k: len(self.conv[k]))

    # -- constructors -----------------------------------------------------

    def zero(self):
        return IncFn(self, (self.field.zero,) * self.npairs)

    def delta(self):
        """The unity: ones on the diagonal."""
        one, zero = self.field.one, self.field.zero
        return IncFn(self, tuple(
            one if x == y else zero for x, y in self.pairs))

    def e(self, x, y):
        """Indicator of the single comparable pair (x, y)."""
        if (x, y) not in self.pair_index:
            raise NotComparable(f"{x!r} is not below {y!r}")
        k = self.pair_index[(x, y)]
        zero = self.field.zero
        return IncFn(self, tuple(
            self.field.one if i == k else zero for i in range(self.npairs)))

    def zeta(self):
        """All ones; its inverse is the Mobius function."""
        return IncFn(self, (self.field.one,) * self.npairs)

    def mobius(self):
        return self.zeta().inverse()

    def element(self, entries):
        """Build from a {(x, y): value} dict; missing pairs are zero."""
        vals = [self.field.zero] * self.npairs
        for (x, y), v in entries.items():
            if (x, y) not in self.pair_index:
                raise NotComparable(f"{x!r} is not below {y!r}")
            vals[self.pair_index[(x, y)]] = self.field(v)
        return IncFn(self, tuple(vals))

    def diagonal(self, values):
        """Diagonal element from a {x: value} dict (missing points zero)."""
        return self.element({(x, x): v for x, v in values.items()})

    def from_json(self, obj):
        entries = {}
        for key, sval in obj.get("entries", {}).items():
            x, _, y = key.partition(",")
            entries[(x.strip(), y.strip())] = self.field.parse(sval)
        return self.element(entries)

    def random(self, rng):
        return IncFn(self, tuple(
            self.field.random(rng) for _ in range(self.npairs)))

    def random_unit(self, rng):
        f = self.field
        return IncFn(self, tuple(
            f.random_nonzero(rng) if x == y else f.random(rng)
            for x, y in self.pairs))

    def generator_indices(self):
        """Pair indices of the point idempotents e_xx and the cover
        elements e_xy (x covered by y): every basis element e_xy is the
        product of the cover elements along a maximal chain from x to y, so
        these generate the algebra."""
        covers = set(self.poset.covers)
        return [k for k, (x, y) in enumerate(self.pairs)
                if x == y or (x, y) in covers]

    def generators(self):
        """The basis elements at ``generator_indices``, in that order."""
        return [self.e(*self.pairs[k]) for k in self.generator_indices()]

    # -- structure ---------------------------------------------------------

    def center_basis(self):
        """One diagonal component-indicator per connected component."""
        out = []
        for comp in self.poset.components():
            out.append(self.element({(x, x): self.field.one for x in comp}))
        return out

    def is_central(self, f):
        """Central means diagonal and constant on each component."""
        if any(f.vals[k] != self.field.zero
               for k in range(self.npairs) if k not in self._diag):
            return False
        for comp in self.poset.components():
            vals = {f[x, x] for x in comp}
            if len(vals) > 1:
                return False
        return True

    def __eq__(self, other):
        return self is other or (isinstance(other, IncidenceAlgebra)
                                 and self.poset == other.poset
                                 and self.field == other.field)

    def __hash__(self):
        return hash((self.poset, self.field))

    def __repr__(self):
        return f"IncidenceAlgebra({self.poset!r}, {self.field!r})"


def _gather(indices):
    """vals -> the tuple of vals[i] for i in indices.  ``itemgetter`` does
    this in C, but returns a bare value for a single index and takes no
    empty index list, so those (the one-point and empty posets) fall back
    to a plain tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda vals: tuple(vals[i] for i in indices)


def _numerators(vals):
    """A common denominator d of rational vals (the lcm of theirs, 1 for no
    vals) and the integer numerators v * d."""
    d = lcm(*[v.denominator for v in vals])
    return d, [v.numerator * (d // v.denominator) for v in vals]


def _check_context(a, b):
    if a.alg != b.alg:
        raise ContextMismatch("operands over different posets or fields")


class IncFn:
    """An incidence function: dense values over the comparable-pair basis."""

    __slots__ = ("alg", "vals")

    def __init__(self, alg, vals):
        self.alg = alg
        self.vals = vals

    def __getitem__(self, xy):
        k = self.alg.pair_index.get(xy)
        return self.alg.field.zero if k is None else self.vals[k]

    def __add__(self, other):
        _check_context(self, other)
        add = self.alg.field.add
        return IncFn(self.alg, tuple(map(add, self.vals, other.vals)))

    def __sub__(self, other):
        _check_context(self, other)
        f = self.alg.field
        return IncFn(self.alg, tuple(
            f.sub(a, b) for a, b in zip(self.vals, other.vals)))

    def __neg__(self):
        neg = self.alg.field.neg
        return IncFn(self.alg, tuple(map(neg, self.vals)))

    def scale(self, k):
        mul = self.alg.field.mul
        return IncFn(self.alg, tuple(mul(k, v) for v in self.vals))

    def __mul__(self, other):
        _check_context(self, other)
        alg = self.alg
        p = alg.field.modulus
        a, b = self.vals, other.vals
        if p is None:
            (da, a), (db, b) = _numerators(a), _numerators(b)
        prods = list(map(mul, alg._left(a), alg._right(b)))
        if p is not None:
            return IncFn(alg, tuple([sum(prods[s]) % p for s in alg._bounds]))
        d = da * db
        return IncFn(alg, tuple([Fraction(sum(prods[s]), d)
                                 for s in alg._bounds]))

    def is_unit(self):
        zero = self.alg.field.zero
        return all(self.vals[k] != zero for k in self.alg._diag)

    def inverse(self):
        """Two-sided inverse by back-substitution along interval containment."""
        alg, f = self.alg, self.alg.field
        vals = self.vals
        for k in alg._diag:
            if vals[k] == f.zero:
                x = alg.pairs[k][0]
                raise NotAUnit(f"zero diagonal at {x!r}", x)
        inv = [None] * alg.npairs
        for k in alg._by_interval:
            x, y = alg.pairs[k]
            dx = f.inv(vals[alg.pair_index[(x, x)]])
            if x == y:
                inv[k] = dx
                continue
            acc = f.zero
            for i, j in alg.conv[k]:
                if alg.pairs[i] == (x, x):
                    continue
                acc = f.add(acc, f.mul(vals[i], inv[j]))
            inv[k] = f.neg(f.mul(dx, acc))
        return IncFn(alg, tuple(inv))

    def diagonal_values(self):
        return {x: self.vals[self.alg.pair_index[(x, x)]]
                for x in self.alg.poset.elements}

    def is_central(self):
        return self.alg.is_central(self)

    def to_json(self):
        f = self.alg.field
        return {"entries": {f"{x},{y}": f.format(v)
                            for (x, y), v in zip(self.alg.pairs, self.vals)
                            if v != f.zero}}

    def __eq__(self, other):
        return (isinstance(other, IncFn) and self.alg == other.alg
                and self.vals == other.vals)

    def __hash__(self):
        return hash(self.vals)

    def __repr__(self):
        parts = [f"{v}*e({x},{y})"
                 for (x, y), v in zip(self.alg.pairs, self.vals)
                 if v != self.alg.field.zero]
        return "IncFn(" + (" + ".join(parts) if parts else "0") + ")"


def center_basis(poset, field):
    return IncidenceAlgebra(poset, field).center_basis()
