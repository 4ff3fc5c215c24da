"""(Anti-)automorphisms of the incidence algebra in factored form.

Every unital algebra (anti-)automorphism factors as

    inner conjugation  o  entrywise cocycle scaling  o  poset relabeling,

and ``decompose`` recovers that factorization from a raw matrix (a
``FiLinearMap``, the algebra's ``fia.ColumnMap``), certified by exact
recomposition on the whole basis.  The relabeling is the poset map's
``pair_permutation``; the scaling is a cocycle, held as the entrywise
scaling it defines (an ``IncFn``, one on the diagonal) and checked on every
chain x < z < y by ``_check_chains`` over the pair-index triples
``IncidenceAlgebra._chains``, and an inner witness for it is found by
``_coboundary`` along the pair-index spanning tree
``IncidenceAlgebra._tree``; the additive cocycles of ``derivations`` share
both, over K in place of K*.

``mult_subset_inn`` decides whether every multiplicative automorphism is
inner by the rule ``snf.check_hypotheses`` applies to
``snf.cocycle_obstruction``, the Smith normal form of the chain relations
of the poset's core.  When it fails, the columns of the transform V of
the whole poset's form give the candidate characters, and
``find_non_inner_cocycle`` returns the first one that no diagonal witness
produces.
"""

from math import gcd

from .errors import (
    ContextMismatch, InvalidCocycle, NotAMorphism, NotUnital, ParseError,
    WitnessFailed,
)
from .fia import ColumnMap, IncFn
from .fields import _primitive_root
from .posets import PosetMap, identity_map
from .snf import _mult_inner_rule, _smith_reading, cocycle_obstruction


class FiLinearMap(ColumnMap):
    """A K-linear endomorphism of the algebra, stored column-wise over the
    comparable-pair basis."""

    __slots__ = ()

    @classmethod
    def from_function(cls, alg, fn):
        return cls._of(alg, [fn(alg.e(x, y))._vector() for x, y in alg.pairs])

    def apply(self, f):
        if f.alg != self.alg:
            raise ContextMismatch("map and argument over different contexts")
        return self.alg._reduced(*self._image(f.num, f.den))


def validate_cocycle(alg, values, combine, kind):
    """Check that values: strict-pair -> scalar is defined on every strict
    pair and on nothing else, and satisfies combine(v(x,z), v(z,y)) =
    v(x,y) on every chain x < z < y; ``kind`` names that identity in the
    error.  A missing strict pair, or the first key that is not one, raises
    InvalidCocycle.  Returns the values as field elements."""
    field = alg.field
    for p in alg.poset.strict_pairs:
        if p not in values:
            raise InvalidCocycle(f"missing value at {p}")
    for p in values:
        if p not in alg.pair_index or p[0] == p[1]:
            raise InvalidCocycle(f"value at {p!r}, which is not a strict pair")
    full = {p: field(v) for p, v in values.items()}
    _check_chains(alg, [full.get(p) for p in alg.pairs], combine, kind)
    return full


def _check_chains(alg, vals, combine, kind):
    """Raise InvalidCocycle at the first chain x < z < y, in the order of
    ``Poset.chains``, with combine(v(x,z), v(z,y)) != v(x,y), for the
    values ``vals`` on pair indices; ``kind`` names that identity."""
    for (i, j, k), (x, z, y) in zip(alg._chains, alg.poset.chains):
        if combine(vals[i], vals[j]) != vals[k]:
            raise InvalidCocycle(f"{kind} fails on {x},{z},{y}")


def _coboundary(alg, vals, additive):
    """A potential phi with div(phi(x), phi(y)) = vals[k] at the index k of
    every strict pair (x, y), or None, where div is the field's division,
    or its subtraction when ``additive``: propagated along
    ``IncidenceAlgebra._tree`` from one (zero) at each root, then checked
    as phi(x) = mul(vals[k], phi(y)), mul the field's multiplication (its
    addition), with no division: a multiplicative phi is nonzero, since
    the cocycle is.  phi is a list on pair indices, phi(x) at (x, x) and
    zero off the diagonal, so ``IncFn`` lifts it to the diagonal element
    of phi."""
    field = alg.field
    div, mul, one = ((field.sub, field.add, field.zero) if additive
                     else (field.div, field.mul, field.one))
    phi = [field.zero] * alg.npairs
    for w, v, k, below in alg._tree:
        phi[w] = (one if v is None else div(phi[v], vals[k]) if below
                  else mul(vals[k], phi[v]))
    return phi if all(mul(s, phi[y]) == phi[x]
                      for (x, y), s in zip(alg._ends, vals) if x != y) else None


def _complete_cocycle(alg, values, default, validate):
    """The entrywise scaling by ``values`` with ``default`` on each strict
    pair it omits, checked by ``validate``: an IncFn that is ``default``
    on the diagonal."""
    full = dict(values or {})
    full = validate(alg, full | {p: default for p in alg.poset.strict_pairs
                                 if p not in full})
    return IncFn(alg, tuple(full.get(p, default) for p in alg.pairs))


def _strict_values(scale):
    """The {strict pair: value} dict of a scaling's off-diagonal entries."""
    return {p: v for p, v in zip(scale.alg.pairs, scale.vals) if p[0] != p[1]}


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

    ``anti`` is read off the poset map: order-reversing maps act by
    f |-> f(map^-1(y), map^-1(x)) and give algebra anti-automorphisms.
    A unit over another algebra, or a poset map not from and onto the
    algebra's poset, raises ContextMismatch.  The cocycle is kept as the
    entrywise scaling it defines; ``sigma`` reads it back as a dict when
    asked.  ``_scale``, a scaling whose cocycle the caller has checked,
    stands in for ``sigma``.
    """

    def __init__(self, alg, u=None, sigma=None, posetmap=None, _scale=None):
        self.alg = alg
        self.u = u if u is not None else alg.delta()
        if self.u.alg != alg:
            raise ContextMismatch("unit over a different context")
        if not self.u.is_unit():
            raise NotAMorphism("conjugator must be a unit")
        self.u_inv = self.u.inverse()
        self.posetmap = posetmap if posetmap is not None else identity_map(alg.poset)
        if not self.posetmap.src == self.posetmap.dst == alg.poset:
            raise ContextMismatch("poset map over a different poset")
        self.anti = self.posetmap.anti
        self._scale = _scale if _scale is not None else _complete_cocycle(
            alg, sigma, alg.field.one, validate_multiplicative_cocycle)
        self._perm = self.posetmap.pair_permutation()

    sigma = property(lambda self: _strict_values(self._scale))

    @classmethod
    def inner(cls, alg, u):
        return cls(alg, u=u)

    @classmethod
    def induced(cls, alg, posetmap):
        return cls(alg, posetmap=posetmap)

    def apply(self, f):
        """u (sigma o relabel(f)) u^-1 on the stored form, with no element
        built between the steps (``_image``), reduced once over the product
        of the four denominators (over F_p the kernel's residues are the
        result)."""
        if f.alg != self.alg:
            raise ContextMismatch("morphism and argument over different contexts")
        return self.alg._reduced(*self._image(f.num, f.den))

    def _image(self, num, den):
        """The image of the stored-form vector (num, den), unreduced: one
        pass gathers the numerators along the pair permutation and scales
        them by the scaling's, and two kernel calls multiply numerators,
        over the product of the four denominators."""
        alg, u, v = self.alg, self.u, self.u_inv
        moved = [s * num[i] for s, i in zip(self._scale.num, self._perm)]
        return (alg._product(alg._product(u.num, moved), v.num),
                u.den * self._scale.den * den * v.den)

    def to_linear(self):
        """The matrix of the map, each column in closed form.  The scaled
        relabel sends e_pq to sigma(a, b) e_ab, where (a, b) is the pair it
        carries (p, q) onto, so column e_pq is sigma(a, b) u e_ab u^-1,
        written by one ``IncidenceAlgebra.rank_one`` pass on the numerators
        of u and u^-1 with the middle factor scaled by the numerator of
        sigma(a, b) in the stored scaling.  No element is built per column:
        over F_p the residues are the stored form, and over Q each column
        takes one ``_normal`` over the product of the denominators of u,
        u^-1 and the scaling."""
        alg, scale = self.alg, self._scale
        a, b = self.u.num, self.u_inv.num
        # the pair permutation of the inverse map: t ordered by _perm[t]
        cols = [alg.rank_one(t, a, b, s=scale.num[t])
                for t in sorted(range(alg.npairs), key=self._perm.__getitem__)]
        return FiLinearMap(alg, cols,
                           _den=self.u.den * self.u_inv.den * scale.den)

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


def compose(m1, m2):
    """m1 after m2, re-factored and validated by recomposition."""
    return decompose(m1.to_linear().compose(m2.to_linear()),
                     anti=m1.anti != m2.anti)


def decompose(raw, anti=False):
    """Factor a raw matrix as inner o multiplicative o relabeling,
    certified: the form ``_read_morphism`` reads off raw is an
    (anti-)automorphism by construction (a unit conjugator, a validated
    cocycle, a poset (anti-)automorphism), so accepting only when it equals
    the input on every basis column certifies that the input is one too; no
    identity is checked on the input itself, nor on the entries the reading
    skips.  Every rejection is NotUnital (the gate) or NotAMorphism.
    """
    result = _read_morphism(raw, anti)
    if result.to_linear() != raw:
        raise NotAMorphism("recomposition does not reproduce the input")
    return result


def _read_morphism(raw, anti):
    """The factored form ``decompose`` reads off raw, uncertified: for a
    genuine (anti-)automorphism it equals raw, and on any other input it
    raises NotUnital or NotAMorphism or returns a form that differs from
    raw.

    After the unitality gate it recovers the induced poset map mu from the
    diagonals of the point idempotents' images.  Everything else is read off
    raw's columns: raw after the relabel by mu^-1 (call it raw') has column
    k equal to raw's column ``mu.pair_permutation()[k]``, so no matrix is
    composed.  Column x of the conjugator g is column x of raw'(e_xx), whose
    (x, x) entry is the one mu is read from, so g is a unit with unit
    diagonal; sigma(x,y) is the (x,y) entry of raw'(e_xy), which for a
    genuine raw is sigma(x,y) g(x,x) / g(y,y), and the same read at (x, x)
    is that unit entry, so the reads give the whole scaling.  Both are
    gathered on the stored form (``ColumnMap._gather``), and the cocycle is
    checked once, here.
    """
    alg = raw.alg
    delta = alg.delta()
    if raw.apply(delta) != delta:
        raise NotUnital("map does not fix the unity")
    # induced poset map: the image of a point idempotent is a conjugate of a
    # point idempotent, so its diagonal is an exact indicator, read off the
    # stored form: a value is zero when its numerator is, one when it is
    # the denominator
    elements, points = alg.poset.elements, alg._diag
    mapping = {}
    for x, k in zip(elements, points):  # the point pairs are in element order
        num, den = raw.nums[k], raw.dens[k]
        diag = [num[j] for j in points]
        if diag.count(0) != len(diag) - 1 or den not in diag:
            raise NotAMorphism(f"image of point {x!r} is not conjugate to a point")
        mapping[x] = elements[diag.index(den)]
    try:
        mu = PosetMap(alg.poset, alg.poset, mapping, anti)
    except ParseError as exc:
        raise NotAMorphism(f"induced point map is not an order map: {exc}") from exc

    # raw after the relabel by mu^-1: column k is raw's column perm[k]
    perm = mu.pair_permutation()
    g = raw._gather([perm[y] for _, y in alg._ends])
    scale = raw._gather(perm)
    for p, v in zip(alg.pairs, scale.num):
        if not v:
            raise NotAMorphism(f"residual map is not a cocycle scaling at {p}")
    try:
        _check_chains(alg, scale.vals, alg.field.mul, "chain identity")
    except InvalidCocycle as exc:
        raise NotAMorphism(f"residual scaling is not a cocycle: {exc}") from exc
    return FiaMorphism(alg, u=g, posetmap=mu, _scale=scale)


def multiplicative_is_inner(alg, sigma):
    """A diagonal witness eta with sigma(x,y) = eta(x) / eta(y), or None,
    as a {point: value} dict in ``Poset.spanning_tree`` order."""
    sigma = validate_multiplicative_cocycle(alg, sigma)
    eta = _coboundary(alg, [sigma.get(p) for p in alg.pairs], False)
    return None if eta is None else {alg.pairs[w][0]: eta[w]
                                     for w, *_ in alg._tree}


def mult_subset_inn(poset, field):
    """Whether every multiplicative automorphism over this field is inner:
    the obstruction group must have no characters into K*."""
    return _mult_inner_rule(*cocycle_obstruction(poset), field)


def find_non_inner_cocycle(alg):
    """A multiplicative cocycle with no inner witness, or None exactly when
    ``mult_subset_inn`` holds.

    Both are read off one Smith normal form U R V = diag(d) of the chain
    relations R.  In the basis of the rows of V^-1, Z^pairs / R is the sum
    of the cyclic groups Z/d_j, and cocycles are its characters into K*.
    Column j of V gives the character that sends generator j to zeta_j and
    the others to 1: sigma_j(x,y) = zeta_j^V[(x,y)][j], where zeta_j
    generates the gcd(d_j, p - 1)-torsion of F_p* (a primitive root when
    d_j = 0); over Q, zeta_j is -1 for even d_j and 2 for d_j = 0.

    A character is inner exactly when it is trivial on ker d / R, where d
    is the pair-difference map.  When the rule fails, some sigma_j is not:
    torsion lies in ker d / R (the quotient by it embeds in the free group
    on points), so a character nontrivial on a torsion column is never
    inner; and ker d / R is a direct summand whose free part holds a
    primitive vector, whose free-column coordinates have gcd 1, so some
    free-column character is nontrivial on it.  Each candidate is certified
    by ``multiplicative_is_inner``; if none is non-inner, WitnessFailed.
    """
    poset, field = alg.poset, alg.field
    obstruction, columns = _smith_reading(poset)
    if _mult_inner_rule(*obstruction, field):
        return None
    p = field.modulus
    g = _primitive_root(p) if p else None
    for dj, col in columns:
        if p:
            zeta = pow(g, (p - 1) // gcd(dj, p - 1), p)
        else:
            zeta = field(2 if dj == 0 else -1 if dj % 2 == 0 else 1)
        if zeta == field.one:
            continue
        sigma = {pair: pow(zeta, e, p) if p else zeta ** e
                 for pair, e in zip(poset.strict_pairs, col)}
        if multiplicative_is_inner(alg, sigma) is None:
            return sigma
    raise WitnessFailed("no Smith-form character is a non-inner cocycle")
