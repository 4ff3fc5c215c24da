"""The idealization ring: pairs [f; i] with the bimodule coordinate
squaring to zero.

Multiplication is [f; m][g; n] = [f g; f n + m g], the unity is [delta; 0],
and a pair is a unit exactly when its ring coordinate is.  A product is one
call of the algebra's compiled idealization kernel
(``IncidenceAlgebra._dproduct``), which returns both coordinates at once;
no coordinate product, sum or zero test runs in Python.  Block-structured
lifts turn algebra data (automorphisms, anti-automorphisms, central units,
derivations) into (anti-)automorphisms of the big ring.  They are stored as
``DLinearMap``: a ``fia.ColumnMap`` over the doubled pair basis, ring
coordinates first, so its 2x2 blocks are maps of the algebra.
"""

from .errors import (
    ContextMismatch, NotADerivation, NotAMorphism, NotAUnit, ParseError,
)
from .fia import ColumnMap, IncidenceAlgebra, _check_context, _fn, _over_one
from .posets import _members


class DElem:
    """An element [f; i] of the idealization ring."""

    __slots__ = ("f", "i")

    def __init__(self, f, i):
        if f.alg is not i.alg and f.alg != i.alg:
            raise ContextMismatch("coordinates over different contexts")
        self.f = f
        self.i = i

    @property
    def alg(self):
        return self.f.alg

    def __add__(self, other):
        _check_context(self, other)
        return DElem(self.f + other.f, self.i + other.i)

    def __sub__(self, other):
        _check_context(self, other)
        return DElem(self.f - other.f, self.i - other.i)

    def __neg__(self):
        return DElem(-self.f, -self.i)

    def __mul__(self, other):
        """[f; m][g; n] = [fg; fn + mg], in one call of the algebra's
        compiled idealization kernel on the numerators.  Over Q each side's
        two coordinates are put over one denominator first (over a prime
        field it is 1 already), so both coordinates of the product have
        numerators over the product of the two, each reduced once."""
        _check_context(self, other)
        f, m, g, n = self.f, self.i, other.f, other.i
        alg = f.alg
        if f.den == m.den == g.den == n.den == 1:  # always over a prime field
            ring, bimodule = alg._dproduct(f.num, m.num, g.num, n.num)
            return DElem(_fn(alg, ring), _fn(alg, bimodule))
        a, c, da = _over_one(f, m)
        b, d, db = _over_one(g, n)
        ring, bimodule = alg._dproduct(a, c, b, d)
        den = da * db
        return DElem(alg._reduced(ring, den), alg._reduced(bimodule, den))

    def is_unit(self):
        return self.f.is_unit()

    def inverse(self):
        if not self.f.is_unit():
            raise NotAUnit("ring coordinate is not a unit")
        f_inv = self.f.inverse()
        return DElem(f_inv, -(f_inv * self.i * f_inv))

    def _vector(self):
        """The stored form (num, den) of the coordinate vector: over the
        lcm of two lowest-terms denominators it is in lowest terms."""
        f, i, den = _over_one(self.f, self.i)
        return f + i, den

    def is_central(self):
        alg = self.alg
        return alg.is_central(self.f) and alg.is_central(self.i)

    def to_json(self):
        return {"f": self.f.to_json(), "i": self.i.to_json()}

    def __eq__(self, other):
        return isinstance(other, DElem) and self.f == other.f and self.i == other.i

    def __hash__(self):
        return hash((self.f, self.i))

    def __repr__(self):
        return f"DElem({self.f!r}; {self.i!r})"


def d_one(alg):
    return DElem(alg.delta(), alg.zero())


def _split(alg, num, den):
    """The element whose stored-form coordinate vector is (num, den)."""
    n = alg.npairs
    return DElem(alg._reduced(num[:n], den), alg._reduced(num[n:], den))


def d_from_json(alg, obj):
    f, i = _members(obj, "idealization element", "f", "i")
    return DElem(alg.from_json(f), alg.from_json(i))


def d_basis(alg):
    """Ring-coordinate basis pairs first, then bimodule-coordinate ones."""
    out = []
    for x, y in alg.pairs:
        out.append(DElem(alg.e(x, y), alg.zero()))
    for x, y in alg.pairs:
        out.append(DElem(alg.zero(), alg.e(x, y)))
    return out


def d_center_basis(alg):
    """Pairs of per-component diagonal indicators in each coordinate."""
    out = []
    for c in alg.center_basis():
        out.append(DElem(c, alg.zero()))
        out.append(DElem(alg.zero(), c))
    return out


def central_pair(alg, k1, k2):
    """The central element [k1 delta; k2 delta]."""
    d = alg.delta()
    return DElem(d.scale(alg.field(k1)), d.scale(alg.field(k2)))


def random_delem(alg, rng):
    return DElem(alg.random(rng), alg.random(rng))


def random_d_unit(alg, rng):
    return DElem(alg.random_unit(rng), alg.random(rng))


class DLinearMap(ColumnMap):
    """A K-linear endomorphism of the idealization, stored column-wise over
    the doubled comparable-pair basis."""

    __slots__ = ()

    @classmethod
    def from_function(cls, alg, fn):
        return cls._of(alg, [fn(b)._vector() for b in d_basis(alg)])

    def apply(self, d):
        if d.alg != self.alg:
            raise ContextMismatch("map and argument over different contexts")
        return _split(self.alg, *self._image(*d._vector()))

    # bound here too, so that DLinearMap's own class dict holds it: the
    # benchmark tracer (bench/tracer.py) wraps methods through vars(cls)
    compose = ColumnMap.compose

    def columns(self):
        """The columns as elements of the idealization: the images of the
        ``d_basis`` elements."""
        return [_split(self.alg, num, den)
                for num, den in zip(self.nums, self.dens)]

    def is_involution(self):
        """Whether M(M(e_b)) == e_b for every basis vector e_b, decided
        column by column on the stored form, stopping at the first miss."""
        n = len(self.nums)
        return all(self._image(*col) == ((0,) * b + (1,) + (0,) * (n - b - 1), 1)
                   for b, col in enumerate(zip(self.nums, self.dens)))

    def to_json(self):
        fmt = self.alg.field.format
        return {"blocks": [[fmt(v) for v in col] for col in self.cols]}

    @classmethod
    def from_json(cls, alg, obj):
        (blocks,) = _members(obj, "linear map", "blocks")
        size = 2 * alg.npairs
        if not (isinstance(blocks, list) and len(blocks) == size
                and all(isinstance(c, list) and len(c) == size for c in blocks)):
            raise ParseError(f"blocks must be {size} lists of {size} values")
        parse = alg.field.parser()
        return cls(alg, [[parse(v) for v in col] for col in blocks])


# -- block lifts ------------------------------------------------------------


def lift_morphism(m):
    """Block-diagonal lift of a factored algebra (anti-)automorphism: the
    same factored action runs in both coordinates (for a finite poset the
    bimodule extension has the identical formula)."""
    return DLinearMap.from_function(
        m.alg, lambda d: DElem(m.apply(d.f), m.apply(d.i)))


def lift_anti(m):
    if not m.anti:
        raise NotAMorphism("expected an anti-automorphism")
    return lift_morphism(m)


def lift_derivation(alg, d):
    """Unitriangular lift [f; i] |-> [f; D(f) + i]."""
    from .derivations import DerivationSpec, leibniz_check
    if not isinstance(d, DerivationSpec) and not leibniz_check(alg, d):
        raise NotADerivation("lift requires a derivation")
    return DLinearMap.from_function(
        alg, lambda e: DElem(e.f, d.apply(e.f) + e.i))


def inner_auto(theta):
    """The inner automorphism of the idealization defined by a unit."""
    if not theta.is_unit():
        raise NotAUnit("inner automorphism needs a unit")
    inv = theta.inverse()
    return DLinearMap.from_function(
        theta.alg, lambda d: theta * d * inv)


def factor_inner(theta):
    """Split conjugation by [f; j] as the lifted ring conjugation followed
    by the derivation lift with -f^-1 j; returns (ring part, derivation)."""
    from .derivations import DerivationSpec
    from .morphisms import FiaMorphism
    if not theta.is_unit():
        raise NotAUnit("inner automorphism needs a unit")
    alg = theta.alg
    f, j = theta.f, theta.i
    ring_part = FiaMorphism.inner(alg, f)
    der = DerivationSpec(alg, inner=-(f.inverse() * j))
    return ring_part, der


# -- transfer along order-reversing poset maps ------------------------------


class CrossAntiMap:
    """The anti-isomorphism between idealization rings induced by an
    order-reversing poset bijection lam, over ``field``: both rings are
    built from lam, D(lam.src, field) onto D(lam.dst, field)."""

    def __init__(self, lam, field):
        self.src = IncidenceAlgebra(lam.src, field)
        self.dst = IncidenceAlgebra(lam.dst, field)
        self.lam = lam
        self._perm = lam.pair_permutation()

    def _move(self, f):
        return _fn(self.dst, tuple([f.num[i] for i in self._perm]), f.den)

    def apply(self, d):
        if d.alg != self.src:
            raise ContextMismatch("argument over the wrong source ring")
        return DElem(self._move(d.f), self._move(d.i))

    def inverse(self):
        return CrossAntiMap(self.lam.inverse(), self.src.field)


def d_anti_isomorphic(x_poset, y_poset, field):
    """An order-reversing bijection and the induced ring anti-isomorphism,
    or None when the posets admit no such bijection.  The bijection is the
    first the symmetry search finds, and the search stops there."""
    maps = x_poset.maps_to(y_poset, anti=True, _first=True)
    return (maps[0], CrossAntiMap(maps[0], field)) if maps else None
