"""(Anti-)automorphisms of the incidence algebra in factored form.

Every unital algebra (anti-)automorphism factors as

    inner conjugation  o  entrywise cocycle scaling  o  poset relabeling,

and ``decompose`` recovers that factorization from a raw matrix (a
``FiLinearMap``, the algebra's ``linalg.ColumnMap``), validating by exact
recomposition.  The relabeling is the poset map's ``pair_permutation``; the
scaling is a cocycle checked by ``validate_cocycle`` on every chain
x < z < y, the check the additive cocycles of ``derivations`` share; an
inner witness for a cocycle is propagated along ``Poset.spanning_tree``.

The module also holds ``cocycle_obstruction``: one Smith normal form of the
chain relations (x,z) + (z,y) - (x,y) gives the invariant factors and free
rank of the group that measures cocycles modulo coboundaries.  Both
hypotheses the involution classification needs are readings of it:
``mult_subset_inn`` here (no nontrivial character into K*) and
``derivations.der_equals_ider`` (no nonzero K-linear functional).
"""

from math import gcd

from .errors import (
    ContextMismatch, InvalidCocycle, NotAMorphism, NotUnital, ParseError,
)
from .fia import IncFn
from .fields import PrimeField, RationalField
from .linalg import ColumnMap, nullspace
from .posets import PosetMap, identity_map
from .snf import integer_kernel_basis, invariant_factors


class FiLinearMap(ColumnMap):
    """A K-linear endomorphism of the algebra, stored column-wise over the
    comparable-pair basis."""

    __slots__ = ()

    @classmethod
    def from_function(cls, alg, fn):
        return cls(alg, [fn(alg.e(x, y)).vals for x, y in alg.pairs])

    def apply(self, f):
        if f.alg != self.alg:
            raise ContextMismatch("map and argument over different contexts")
        return IncFn(self.alg, self.image(f.vals))

    def matrix_rows(self):
        return [list(row) for row in zip(*self.cols)]


def validate_cocycle(alg, values, combine, kind):
    """Check that values: strict-pair -> scalar is defined on every strict
    pair and satisfies combine(v(x,z), v(z,y)) = v(x,y) on every chain
    x < z < y; ``kind`` names that identity in the error.  Returns the
    values as field elements."""
    field = alg.field
    for p in alg.poset.strict_pairs:
        if p not in values:
            raise InvalidCocycle(f"missing value at {p}")
    full = {p: field(v) for p, v in values.items()}
    for x, z, y in alg.poset.chains:
        if combine(full[(x, z)], full[(z, y)]) != full[(x, y)]:
            raise InvalidCocycle(f"{kind} fails on {x},{z},{y}")
    return full


def validate_multiplicative_cocycle(alg, sigma):
    """sigma: strict-pair -> nonzero scalar with the chain identity
    sigma(x,y) sigma(y,z) = sigma(x,z)."""
    field = alg.field
    for p in alg.poset.strict_pairs:
        if p not in sigma:
            break  # validate_cocycle reports the first missing pair
        if field(sigma[p]) == field.zero:
            raise InvalidCocycle(f"zero value at {p}")
    return validate_cocycle(alg, sigma, field.mul, "chain identity")


class FiaMorphism:
    """Factored form: conjugation by ``u`` after cocycle scaling by
    ``sigma`` after the relabeling induced by ``posetmap``.

    ``anti`` follows the poset map: order-reversing maps act by
    f |-> f(map^-1(y), map^-1(x)) and give algebra anti-automorphisms.
    """

    def __init__(self, alg, u=None, sigma=None, posetmap=None, anti=False):
        self.alg = alg
        self.u = u if u is not None else alg.delta()
        if not self.u.is_unit():
            raise NotAMorphism("conjugator must be a unit")
        self.u_inv = self.u.inverse()
        self.posetmap = posetmap if posetmap is not None else identity_map(alg.poset)
        self.anti = bool(anti)
        if self.posetmap.anti != self.anti:
            raise NotAMorphism("poset map kind must match the anti flag")
        sigma = dict(sigma or {})
        for p in alg.poset.strict_pairs:
            sigma.setdefault(p, alg.field.one)
        self.sigma = validate_multiplicative_cocycle(alg, sigma)
        # scale vector over all pairs (1 on the diagonal)
        self._scale = tuple(
            self.sigma[p] if p[0] != p[1] else alg.field.one for p in alg.pairs)
        self._perm = self.posetmap.pair_permutation()

    @classmethod
    def identity(cls, alg):
        return cls(alg)

    @classmethod
    def inner(cls, alg, u):
        return cls(alg, u=u)

    @classmethod
    def multiplicative(cls, alg, sigma):
        return cls(alg, sigma=sigma)

    @classmethod
    def induced(cls, alg, posetmap):
        return cls(alg, posetmap=posetmap, anti=posetmap.anti)

    def apply(self, f):
        if f.alg != self.alg:
            raise ContextMismatch("morphism and argument over different contexts")
        field = self.alg.field
        vals = tuple(field.mul(s, f.vals[i])
                     for s, i in zip(self._scale, self._perm))
        return self.u * IncFn(self.alg, vals) * self.u_inv

    def to_linear(self):
        return FiLinearMap.from_function(self.alg, self.apply)

    def is_multiplicative_part_trivial(self):
        return all(v == self.alg.field.one for v in self.sigma.values())

    def to_json(self):
        field = self.alg.field
        return {
            "u": self.u.to_json(),
            "sigma": {f"{x},{y}": field.format(v)
                      for (x, y), v in sorted(self.sigma.items())},
            "map": self.posetmap.to_json(),
            "anti": self.anti,
        }

    def __repr__(self):
        kind = "anti" if self.anti else "auto"
        return (f"FiaMorphism({kind}, map={self.posetmap.mapping}, "
                f"u={self.u!r})")


def fia_morphism_from_json(alg, obj):
    mapping = {str(k): str(v) for k, v in obj["map"].items()}
    anti = bool(obj.get("anti", False))
    posetmap = PosetMap(alg.poset, alg.poset, mapping, anti)
    sigma = {}
    for key, sval in obj.get("sigma", {}).items():
        x, _, y = key.partition(",")
        sigma[(x.strip(), y.strip())] = alg.field.parse(sval)
    return FiaMorphism(alg, u=alg.from_json(obj["u"]), sigma=sigma,
                       posetmap=posetmap, anti=anti)


def compose(m1, m2):
    """m1 after m2, re-factored and validated by recomposition."""
    return decompose(m1.to_linear().compose(m2.to_linear()),
                     anti=m1.anti != m2.anti)


def decompose(raw, anti=False):
    """Factor a raw matrix as inner o multiplicative o relabeling.

    Validates unitality and (anti-)multiplicativity on the basis, recovers
    the induced poset map from diagonal idempotent images, peels the
    conjugator off with g = sum of raw'(e_x) e_x, reads the cocycle from
    what remains, and finally recomposes to check exact equality.
    """
    alg = raw.alg
    field = alg.field
    delta = alg.delta()
    if raw.apply(delta) != delta:
        raise NotUnital("map does not fix the unity")
    basis = [alg.e(x, y) for x, y in alg.pairs]
    images = [raw.apply(b) for b in basis]
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            lhs = raw.apply(ei * ej)
            rhs = images[j] * images[i] if anti else images[i] * images[j]
            if lhs != rhs:
                kind = "anti-multiplicativity" if anti else "multiplicativity"
                raise NotAMorphism(
                    f"{kind} fails on basis pair {alg.pairs[i]}, {alg.pairs[j]}")
    # induced poset map: the image of a point idempotent is a conjugate of a
    # point idempotent, so its diagonal is an exact indicator
    mapping = {}
    for x in alg.poset.elements:
        img = raw.apply(alg.e(x, x))
        hits = [y for y in alg.poset.elements if img[y, y] == field.one]
        zeros = [y for y in alg.poset.elements
                 if img[y, y] != field.one and img[y, y] != field.zero]
        if len(hits) != 1 or zeros:
            raise NotAMorphism(f"image of point {x!r} is not conjugate to a point")
        mapping[x] = hits[0]
    try:
        mu = PosetMap(alg.poset, alg.poset, mapping, anti)
    except ParseError as exc:
        raise NotAMorphism(f"induced point map is not an order map: {exc}") from exc

    stripped = raw.compose(FiaMorphism.induced(alg, mu.inverse()).to_linear())
    g = alg.zero()
    for x in alg.poset.elements:
        g = g + stripped.apply(alg.e(x, x)) * alg.e(x, x)
    if not g.is_unit():
        raise NotAMorphism("conjugator recovery produced a non-unit")
    g_inv = g.inverse()
    sigma = {}
    for x, y in alg.poset.strict_pairs:
        img = g_inv * stripped.apply(alg.e(x, y)) * g
        val = img[x, y]
        if val == field.zero or img != alg.e(x, y).scale(val):
            raise NotAMorphism(f"residual map is not a cocycle scaling at {(x, y)}")
        sigma[(x, y)] = val
    result = FiaMorphism(alg, u=g, sigma=sigma, posetmap=mu, anti=anti)
    if result.to_linear() != raw:
        raise NotAMorphism("recomposition does not reproduce the input")
    return result


def multiplicative_is_inner(alg, sigma):
    """A diagonal witness eta with sigma(x,y) = eta(x) / eta(y), or None.

    Found by propagating along a spanning tree of the comparability graph
    and checking the non-tree comparable pairs.
    """
    field = alg.field
    poset = alg.poset
    sigma = validate_multiplicative_cocycle(alg, sigma)
    eta = {}
    for v, w in poset.spanning_tree():
        if v is None:
            eta[w] = field.one
        elif poset.leq(v, w):
            eta[w] = field.div(eta[v], sigma[(v, w)])
        else:
            eta[w] = field.mul(sigma[(w, v)], eta[v])
    for (x, y), val in sigma.items():
        if field.div(eta[x], eta[y]) != val:
            return None
    return eta


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
    factors, rnk = invariant_factors(_relation_rows(poset))
    rank_d = len(poset.elements) - len(poset.components())
    return factors, len(poset.strict_pairs) - rnk - rank_d


def mult_subset_inn(poset, field):
    """Whether every multiplicative automorphism over this field is inner:
    the obstruction group must have no characters into K*."""
    return _mult_inner_rule(*cocycle_obstruction(poset), field)


def _mult_inner_rule(factors, free_rank, field):
    if isinstance(field, PrimeField):
        if free_rank and field.p != 2:
            return False
        return all(gcd(d, field.p - 1) == 1 for d in factors)
    if isinstance(field, RationalField):
        return free_rank == 0 and all(d % 2 == 1 for d in factors)
    raise ParseError(f"unsupported field {field!r}")


def _primitive_root(p):
    if p == 2:
        return 1
    for t in range(2, p):
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = v * t % p
            seen.add(v)
        if len(seen) == p - 1:
            return t
    raise AssertionError("prime field has a primitive root")


def find_non_inner_cocycle(alg):
    """Search for a concrete multiplicative cocycle with no inner witness.

    Candidates are built from integer exponent vectors orthogonal to the
    chain relations (powers of a fixed base), plus sign patterns from the
    mod-2 relation kernel.  Returns a sigma dict or None.
    """
    poset, field = alg.poset, alg.field
    pairs = poset.strict_pairs
    if not pairs:
        return None
    rel = _relation_rows(poset)
    exps = integer_kernel_basis(rel, ncols=len(pairs))
    if isinstance(field, PrimeField):
        base = _primitive_root(field.p)
    else:
        base = field(2)
    candidates = []
    for v in exps:
        candidates.append(v)
    for i in range(len(exps)):
        for j in range(i + 1, len(exps)):
            candidates.append([a + b for a, b in zip(exps[i], exps[j])])
    for v in candidates:
        sigma = {}
        for p, e in zip(pairs, v):
            val = field.one
            for _ in range(abs(e)):
                val = field.mul(val, base)
            sigma[p] = val if e >= 0 else field.inv(val)
        try:
            if multiplicative_is_inner(alg, sigma) is None:
                return sigma
        except InvalidCocycle:
            continue
    if field.char != 2:
        # sign patterns: solutions of the relations over GF(2)
        rel2 = [[v % 2 for v in row] for row in rel]
        for v in nullspace(PrimeField(2), rel2, ncols=len(pairs)):
            if all(x == 0 for x in v):
                continue
            minus_one = field.neg(field.one)
            sigma = {p: (minus_one if e else field.one)
                     for p, e in zip(pairs, v)}
            try:
                if multiplicative_is_inner(alg, sigma) is None:
                    return sigma
            except InvalidCocycle:
                continue
    return None
