"""Involutions on the idealization ring: construction, recognition,
invariants, constructive equivalence, and classification.

Every involution here is kept in the factored normal form

    conjugation by a unit  o  lifted order-reversing relabel  o  sign lift,

written InvolutionSpec(theta, lam, k).  The classification work runs under
three standing hypotheses, checked up front: the poset is connected, the
field has characteristic other than 2, and both "multiplicative implies
inner" and "derivations are inner" hold.  Every internal check on a
returned witness, count or normal form raises WitnessFailed.
"""

import itertools
from collections import Counter
from functools import cached_property

from .errors import (
    BadSign, Char2Unsupported, ContextMismatch, FixedPointsPresent,
    HypothesisFailed, NotADerivation, NotAMorphism, NotAnInvolution, NotAUnit,
    NotConnected, NotInvolutive, NotSymmetric, NotASquare, NotUnital,
    ParseError, UpperRightNonzero, WitnessFailed, ZeroEpsilon,
)
from .fia import IncFn, IncidenceAlgebra, _over_one
from .idealization import (
    DElem, DLinearMap, central_pair, d_from_json, d_one,
)
from .posets import PosetMap, _members, lambda_decomposition
from .snf import check_hypotheses


def require_classifiable(poset, field):
    if field.char == 2:
        raise Char2Unsupported("classification assumes characteristic != 2")
    if not poset.is_connected():
        raise NotConnected("classification assumes a connected poset")
    report = check_hypotheses(poset, field)
    failed = [name for name, ok in report.items() if not ok]
    if failed:
        raise HypothesisFailed(", ".join(failed))


class InvolutionSpec:
    """A validated involution in factored normal form phi = conj(theta) o
    base, where ``base`` relabels both coordinates by the poset involution
    and scales the bimodule one by the sign.

    ``base`` is an anti-automorphism with base o base = id, so phi o phi is
    conjugation by theta base(theta)^-1.  The map is therefore an involution
    exactly when the ratio r = base(theta) theta^-1 is central; the
    constructor forms r once and raises NotInvolutive when it is not (unless
    ``_validated``), and ``central_ratio`` reads it.
    """

    def __init__(self, alg, theta, lam, k, _validated=False):
        self.alg = alg
        self.theta = theta
        self.lam = lam
        self.k = alg.field(k)
        if not theta.is_unit():
            raise NotAUnit("factored form needs a unit")
        if theta.alg != alg:
            raise ContextMismatch("unit over a different context")
        if not (lam.src == alg.poset and lam.is_involution()):
            raise ParseError("the poset map must be an order-reversing "
                             "involution of the algebra's poset")
        if alg.field.mul(self.k, self.k) != alg.field.one:
            raise BadSign("sign must square to one")
        self._theta_inv = theta.inverse()
        self._perm = lam.pair_permutation()
        self._negates = self.k != alg.field.one
        self._ratio = self.base_apply(theta) * self._theta_inv
        if not (_validated or self._ratio.is_central()):
            raise NotInvolutive("square of the map is conjugation by the "
                                "non-central unit base(theta) theta^-1")

    # -- actions -----------------------------------------------------------

    def base_apply(self, d):
        """The conjugation-free part: relabel both coordinates, scale the
        bimodule one by the sign."""
        i = d.i.permuted(self._perm)
        return DElem(d.f.permuted(self._perm), -i if self._negates else i)

    def apply(self, d):
        if d.alg != self.alg:
            raise ContextMismatch("involution and argument over different contexts")
        return self.theta * self.base_apply(d) * self._theta_inv

    def to_linear(self):
        """The matrix of the map, each column in closed form.  ``base``
        sends [e_pq; 0] to [e_ab; 0] and [0; e_pq] to [0; k e_ab], where
        (a, b) = self._perm[pq] is the pair the relabel carries (p, q) onto
        (the pair permutation of an involution is its own inverse).  With
        theta = [f; m] and theta^-1 = [f'; m'] the two columns are
        [f e_ab f'; m e_ab f' + f e_ab m'] and [0; k f e_ab f'], each
        written by one ``IncidenceAlgebra.rank_one`` pass on the numerators
        of theta and theta^-1, each over its one denominator: the doubled
        form for the first, the single one with the middle factor scaled by
        k (1 or -1) for the second.  Over F_p the residues are the stored
        form; over Q each column takes one ``_normal`` over the product of
        the two denominators."""
        alg, k = self.alg, self.sign_int()
        a, c, da = _over_one(self.theta.f, self.theta.i)
        b, d, db = _over_one(self._theta_inv.f, self._theta_inv.i)
        ring = [alg.rank_one(t, a, b, c, d) for t in self._perm]
        zeros = [0] * alg.npairs
        bimodule = [zeros + alg.rank_one(t, a, b, s=k) for t in self._perm]
        return DLinearMap(alg, ring + bimodule, _den=da * db)

    # -- invariants ---------------------------------------------------------

    def decomposition(self):
        return lambda_decomposition(self.alg.poset, self.lam)

    @cached_property
    def _gamma_table(self):
        """The pair indices of the classes of ``symmetric_decompose``'s table
        on this spec's split, read once per spec: (x, y) from the lower part
        to the upper part; (x, y) from a fixed point or the upper part to
        the upper part; x = y fixed.  Every other pair x <= y starts in the
        lower part and ends in it or at a fixed point (the lower part is
        down-closed, the upper part up-closed, and no two fixed points are
        comparable), where gamma takes the unity's entry."""
        side = self.decomposition().side
        sides = [(side(x), side(y)) for x, y in self.alg.pairs]
        return tuple([k for k, s in enumerate(sides) if s in c]
                     for c in ({(-1, 1)}, {(0, 1), (1, 1)}, {(0, 0)}))

    def central_ratio(self):
        """(k0, k1) with base(theta) = [k0 delta; k1 delta] theta.  r base(r)
        = 1 gives k0^2 = 1, and k1 = 0 for the positive sign except over F2.
        Computed once per spec; a spec that fails a check raises on every
        call."""
        return self._central_ratio

    @cached_property
    def _central_ratio(self):
        alg = self.alg
        c = self._ratio
        if not c.is_central():
            raise NotAnInvolution("unit is not symmetric up to the center")
        x0 = alg.poset.elements[0]
        k0, k1 = c.f[x0, x0], c.i[x0, x0]
        if c != central_pair(alg, k0, k1):
            raise NotAnInvolution("central ratio is not a scalar pair")
        if self.k == alg.field.one and k1 != alg.field.zero:
            raise NotAnInvolution("positive sign forces a plain ratio")
        return k0, k1

    def symmetric_form(self):
        """(theta', k0) with theta' defining the same involution and
        base(theta') = k0 theta': theta for the positive sign, else
        [k0 delta; k1/2 delta] theta.  k0 = -1 is the skew (sigma-type)
        branch, possible only without fixed points."""
        field = self.alg.field
        k0, k1 = self.central_ratio()
        if self.k == field.one:
            return self.theta, k0
        return central_pair(self.alg, k0, field.div(k1, field(2))) * self.theta, k0

    def _reduce(self, base=None):
        """(base, gamma) with conj(gamma^-1) o self = base o conj(gamma^-1),
        where base is the representative of the spec's inner class, the
        involution ``classify`` lists for it: the given one, which another
        spec of the class holds (``_shared_gamma``), or else one built by
        ``_representative``.  ``_reduction`` stores it once per spec.  With
        fixed points the symmetric form is first divided by its ring entry
        at the first one, a central scalar that leaves the involution
        unchanged; its entry at each fixed point x is then eps(x) times a
        square, whose root ``symmetric_decompose`` takes."""
        alg = self.alg
        field = alg.field
        theta_sym, _ = self.symmetric_form()
        fixed = self.lam.fixed_points()
        if fixed:  # then k0 = 1
            head = field.inv(theta_sym.f[fixed[0], fixed[0]])
            theta_sym = central_pair(alg, head, field.zero) * theta_sym
        base = base or _representative(alg, self.lam, self.k,
                                       self.invariant().key())
        return base, symmetric_decompose(theta_sym * base._theta_inv, base)

    _reduction = cached_property(_reduce)

    def invariant(self):
        """The inner-equivalence invariant: induced map, sign, and either
        the fixed-point square-class tuple (up to one global shift) or the
        plain/skew type tag.  With a fixed point k0 = 1, so the symmetric
        form has theta's ring diagonal, and chi is read off theta.  Built
        once per spec."""
        return self._invariant

    @cached_property
    def _invariant(self):
        fixed = self.lam.fixed_points()
        k0, _ = self.central_ratio()
        field = self.alg.field
        if not fixed:
            kind = "plain" if k0 == field.one else "skew"
            return ClassInvariant(self.lam, self.k, kind=kind)
        chi = {x: field.square_class(self.theta.f[x, x]) for x in fixed}
        return ClassInvariant(self.lam, self.k, chi=chi)

    def sign_int(self):
        return 1 if self.k == self.alg.field.one else -1

    def to_json(self):
        return {"theta": self.theta.to_json(),
                "lambda": self.lam.to_json(),
                "k": self.sign_int()}

    def __repr__(self):
        return (f"InvolutionSpec(lam={self.lam.mapping}, "
                f"k={self.sign_int()}, theta={self.theta!r})")


class ClassInvariant:
    """What survives inner equivalence: the induced involution, the sign
    (the field's 1 or -1), and the square-class data (or the plain/skew
    tag when there are no fixed points)."""

    def __init__(self, lam, sign, kind=None, chi=None):
        self.lam = lam
        self.sign = sign
        self.kind = kind
        self.chi = dict(chi) if chi else None

    def key(self):
        """The plain/skew tag, or ``_chi_key`` of chi."""
        return self.kind or _chi_key(self.chi)

    def same_inner_class(self, other):
        return (self.lam == other.lam and self.sign == other.sign
                and self.key() == other.key())

    def to_json(self):
        out = {"lambda": self.lam.to_json(),
               "sign": 1 if self.sign == 1 else -1}
        if self.kind is not None:
            out["kind"] = self.kind
        if self.chi is not None:
            out["chi"] = {str(x): _class_json(c) for x, c in self.chi.items()}
        return out


def _chi_key(chi):
    """chi on the fixed points in element order, divided by its value at
    the first: equal exactly for chi up to one global shift."""
    head = next(iter(chi.values())).inverse()
    return tuple(c * head for c in chi.values())


def _class_json(cls):
    if cls.kind == "F":
        return "square" if cls.rep else "nonsquare"
    return str(cls.rep)


# -- constructions -----------------------------------------------------------


def build(alg, theta, lam, k):
    """Validated involution from factored data; refuses characteristic 2,
    disconnected posets, non-units, bad signs, and maps whose square is
    not the identity."""
    if alg.field.char == 2:
        raise Char2Unsupported("characteristic 2 is construction-only "
                               "and not accepted here")
    if not alg.poset.is_connected():
        raise NotConnected("involution specs assume a connected poset")
    return InvolutionSpec(alg, theta, lam, k)


def base_involution(alg, lam, k=1):
    """The reference involution with trivial conjugator."""
    return build(alg, d_one(alg), lam, k)


def rho_eps(alg, lam, eps, k=1):
    """The involution conjugated by the diagonal unit that is eps(x) at
    each fixed point x of lam and one elsewhere; an eps(x) that is missing
    raises ParseError, and a zero one ZeroEpsilon.  Without fixed points
    the unit is the unity, and rho_eps is ``base_involution``."""
    field = alg.field
    vals = dict.fromkeys(alg.poset.elements, field.one)
    fixed = lam.fixed_points()
    for x, v in zip(fixed, _members(eps, "scaling eps", *fixed)):
        vals[x] = field(v)
        if vals[x] == field.zero:
            raise ZeroEpsilon(f"scaling must be nonzero at {x!r}")
    return build(alg, DElem(alg.diagonal(vals), alg.zero()), lam, k)


def sigma_lambda(alg, lam, k=1):
    """The sign-split involution, conjugated by the diagonal unit that is
    one on the lower part of lam's split and -1 on the upper part; a fixed
    point raises FixedPointsPresent."""
    decomp = lambda_decomposition(alg.poset, lam)
    if decomp.fixed:
        raise FixedPointsPresent(
            f"fixed points {list(decomp.fixed)} block the sign-split form")
    w = alg.diagonal({x: alg.field(-decomp.side(x)) for x in alg.poset.elements})
    return build(alg, DElem(w, alg.zero()), lam, k)


def _representative(alg, lam, k, key):
    """The involution ``classify`` lists for the inner class (lam, k, key),
    key as ``ClassInvariant.key`` gives it: sigma_lambda for "skew", else
    rho_eps with eps(x) read off the class of x in the chi key, the signed
    squarefree integer over Q and the listed ``square_class_reps`` entry
    over F_p.  "plain" comes with no fixed points, so its rho_eps is the
    base involution."""
    if key == "skew":
        return sigma_lambda(alg, lam, k)
    field = alg.field
    eps = {x: field(c.rep) if c.kind == "Q"
           else field.square_class_reps()[0 if c.rep else 1]
           for x, c in zip(lam.fixed_points(), key)}
    return rho_eps(alg, lam, eps, k)


def symmetric_decompose(theta, base):
    """Express a base-symmetric unit theta = [f; i] as gamma * base(gamma).

    Entry (x, y) of gamma is read off the sides of x and y in the
    lower/upper/fixed split: half of theta's entry from the lower to the
    upper part; the unity's entry and zero from the lower part to the
    lower part or a fixed point; theta's entry from a fixed point or the
    upper part to the upper part.  What is left is x = y fixed, where the
    ring coordinate is an exact square root of f(x, x), and otherwise
    NotASquare lists the offenders.  The classes are the pair-index lists
    of ``base._gamma_table``: gamma starts as the unity and zero, its
    entries are written on them, one list per coordinate, and ``IncFn``
    lifts each list to the stored form.
    """
    alg = base.alg
    field = alg.field
    if theta.alg != alg:
        raise ContextMismatch("unit over a different context")
    if base.apply(theta) != theta:
        raise NotSymmetric("unit is not symmetric for the base involution")
    halves, copies, fixed = base._gamma_table
    f, i = theta.f.vals, theta.i.vals
    roots = {k: field.sqrt(f[k]) for k in fixed}
    offenders = [alg.pairs[k][0] for k, r in roots.items() if r is None]
    if offenders:
        raise NotASquare(f"non-square ring diagonal at {offenders}", offenders)
    mul, half = field.mul, field.inv(field(2))
    v, j = list(alg.delta().vals), [field.zero] * alg.npairs
    for ks, c in ((halves, half), (copies, field.one)):
        for k in ks:
            v[k], j[k] = mul(f[k], c), mul(i[k], c)
    for k, r in roots.items():
        v[k], j[k] = r, mul(mul(i[k], half), field.inv(r))
    gamma = DElem(IncFn(alg, v), IncFn(alg, j))
    if gamma * base.apply(gamma) != theta:  # only a library defect gets here
        raise WitnessFailed("symmetric table does not factor the unit")
    return gamma


# -- recognition -------------------------------------------------------------


def recognize(raw):
    """Factor a raw matrix ring involution into the normal form.

    Pipeline: gate on the structure (the bimodule-to-ring block vanishes and
    the unity is fixed), decompose the ring-coordinate block, read the
    central scalar and the derivation off the other columns through that
    decomposition, and absorb everything into one conjugating unit.  The
    two blocks are read by the uncertified readers of ``decompose`` and
    ``split_raw_derivation``.  The normal form is an involution by
    construction (``build`` decides its square from the centrality of one
    element), so the one check that decides the answer is that it equals
    ``raw`` on every basis column, with the form's columns written in
    closed form by ``to_linear``.  That check implies the two the readers
    skip: where raw equals the form, its ring block is an anti-automorphism
    and its derivation block a derivation.  The input is never checked for
    anti-multiplicativity itself.  A rejection from any factoring step, or
    from that certificate, is NotAnInvolution.
    """
    alg = raw.alg
    require_classifiable(alg.poset, alg.field)
    n = alg.npairs
    if any(any(num[:n]) for num in raw.nums[n:]):  # read on the stored form
        raise UpperRightNonzero("bimodule-to-ring block must vanish")
    one = d_one(alg)
    if raw.apply(one) != one:
        raise NotAnInvolution("map does not fix the unity")
    try:
        spec = _factor(raw)
    except (NotAMorphism, NotUnital, NotADerivation, NotAUnit, BadSign,
            NotInvolutive) as exc:
        raise NotAnInvolution(f"map is not an involution: {exc}") from exc
    if spec.to_linear() != raw:
        raise NotAnInvolution("normal form does not reproduce the input")
    return spec


def _factor(raw):
    """The normal form ``recognize`` reads off raw, uncertified, which for
    a genuine involution equals it; on any other input a step may raise a
    typed rejection or return a form that differs from raw.  Neither block
    is certified on its own (``recognize`` certifies the whole form), and
    both witness searches run on cocycles the readers have validated,
    which the classification gate makes inner.

    raw's images of the ring basis elements [e_k; 0] are its first columns:
    their ring coordinates form the ring block b11 and their bimodule ones
    the block b21, each read off the stored form as a slice of the
    numerators over the column's denominator.  b11 decomposes as m11.  For
    an involution with vanishing b12, b11 is its own inverse, and the
    block-diagonal lift of m11 after raw is [[id, 0], [g D, g .]] for a
    central unit g and a derivation D.  Both are read off raw's columns: g
    is the bimodule image of [0; delta], k delta on the connected poset (so
    m11 fixes it), and column t of g D is m11(b21[t]); the split and
    witness of k D are k times those of D.
    The two witnesses are solved by ``morphisms._coboundary`` on the
    scalings the readers checked, and lifted to diagonal elements on the
    stored form.
    """
    from .derivations import _read_derivation
    from .morphisms import FiLinearMap, _coboundary, _read_morphism
    alg, n = raw.alg, raw.alg.npairs
    columns = list(zip(raw.nums[:n], raw.dens))
    m11 = _read_morphism(
        FiLinearMap._of(alg, [(num[:n], den) for num, den in columns]), True)
    if not m11.posetmap.is_involution():
        raise NotAnInvolution("induced poset map is not an involution")
    g = raw.apply(DElem(alg.zero(), alg.delta())).i
    if not (g.is_unit() and alg.is_central(g)):
        raise NotAnInvolution("residual bimodule action is not central")
    k = g.vals[alg._diag[0]]  # g = k delta
    spec_d = _read_derivation(FiLinearMap._of(
        alg, [m11._image(num[n:], den) for num, den in columns]))
    phi = _coboundary(alg, spec_d._tau_scale.vals, True)
    if phi is None:
        raise WitnessFailed("hypothesis check admitted a bad poset: no "
                            "additive witness")
    j = spec_d.inner - IncFn(alg, phi)  # the witness is -phi
    eta = _coboundary(alg, m11._scale.vals, False)
    if eta is None:
        raise WitnessFailed("hypothesis check admitted a bad poset: no "
                            "multiplicative witness")
    m = m11.u * IncFn(alg, eta)
    return build(alg, DElem(m, m * j.permuted(m11._perm)), m11.posetmap, k)


def involution_from_json(alg, obj):
    """The involution in the shape ``InvolutionSpec.to_json`` writes."""
    lam, theta, k = _members(obj, "involution", "lambda", "theta", "k")
    lam = PosetMap.from_json(alg.poset, alg.poset, lam, anti=True)
    return build(alg, d_from_json(alg, theta), lam, alg.field.parse(str(k)))


# -- equivalence -------------------------------------------------------------


class Verdict:
    """Outcome of an equivalence query: either a verified witness (a
    conjugator, after the relabel by the poset automorphism ``alpha`` for
    a general one) or the name of a distinguishing invariant."""

    def __init__(self, equivalent, conjugator=None, distinguisher=None,
                 alpha=None):
        self.equivalent = equivalent
        self.conjugator = conjugator
        self.distinguisher = distinguisher
        self.alpha = alpha

    def to_json(self):
        out = {"equivalent": self.equivalent}
        if self.equivalent:
            witness = {"kind": "inner", "conjugator": self.conjugator.to_json()}
            if self.alpha is not None:
                # a relabel needs no bimodule scaling, so k is always 1
                witness.update(kind="general", alpha=self.alpha.to_json(), k="1")
            out["witness"] = witness
        else:
            out["distinguisher"] = self.distinguisher
        return out

    def __repr__(self):
        if self.equivalent:
            return "Verdict(equivalent)"
        return f"Verdict(not equivalent: {self.distinguisher})"


def _check_same_context(s1, s2):
    if s1.alg != s2.alg:
        raise ContextMismatch("involutions over different contexts")


def _verify_intertwiner(s1, s2, conjugator):
    """Whether conj(c) o s1 = s2 o conj(c) for the unit c = conjugator and
    two InvolutionSpecs.

    Inner conjugation keeps the poset involution and the sign a map
    induces, so the two sides differ when ``lam`` or ``k`` do.  When both
    agree, s1 and s2 share one ``base``, and base o conj(c) =
    conj(base(c)^-1) o base since base is an anti-automorphism.  So the
    sides are conj(c theta1) o base and conj(theta2 base(c)^-1) o base,
    equal exactly when base(c) theta2^-1 c theta1 is central."""
    if s1.lam != s2.lam or s1.k != s2.k or not conjugator.is_unit():
        return False
    w = s1.base_apply(conjugator) * s2._theta_inv * conjugator * s1.theta
    return w.is_central()


def _relabelled_spec(spec, alpha):
    """spec conjugated by the ring lift L of the relabeling induced by the
    poset automorphism alpha, in factored form: L o conj(theta) o base o
    L^-1 is conj(L(theta)) after the relabel by alpha lam alpha^-1 with
    the same sign.  Entry t of L(f) is entry ``alpha.pair_permutation()[t]``
    of f: the induced relabel has no cocycle scaling and no conjugator."""
    perm = alpha.pair_permutation()
    moved = DElem(spec.theta.f.permuted(perm), spec.theta.i.permuted(perm))
    lam = alpha.compose(spec.lam).compose(alpha.inverse())
    return InvolutionSpec(spec.alg, moved, lam, spec.k, _validated=True)


def _carriers(lam1, lam2, chi1=None, chi2=None, first=False):
    """The automorphisms alpha of lam1's poset with alpha o lam2 =
    lam1 o alpha (which carry lam2 to lam1 by conjugation), in the order
    ``automorphisms`` lists them, found by the search itself; with
    ``first``, only the first of them.  Placing alpha(k) = j, with
    m = lam2(k) <= k, needs alpha(m) = lam1(j) (so lam1(j) = j when
    m = k); when m > k the placement of m checks the same equation, since
    lam1 and lam2 are involutions.

    Given the χ maps chi1 of lam1 and chi2 of lam2, only the carriers
    that move chi2's key onto chi1's are kept: placing a fixed point k of
    lam2 at j also needs chi2(k) chi1(j)^-1 to equal that ratio at h,
    lam2's first fixed point, which the search places first.  Square
    classes form an abelian group, so this holds on every prefix of a
    carrier exactly when chi2 moved by alpha (the class chi2(x) at
    alpha(x)) has chi1's key.  No search runs, and the answer is [], when
    the square-class multisets cannot meet (``_chi_multisets_meet``),
    since every such carrier meets them."""
    if not _chi_multisets_meet(chi1, chi2):
        return []
    poset = lam1.src
    on1, on2 = ([poset.index[lam(x)] for x in poset.elements] for lam in (lam1, lam2))
    c1, c2 = ([chi.get(x) for x in poset.elements] if chi else None for chi in (chi1, chi2))
    h = chi2 and poset.index[next(iter(chi2))]
    return poset.maps_to(poset, _first=first, _accept=lambda k, j, image: (
        on2[k] > k or image[on2[k]] == 1 << on1[j] and (on2[k] < k or c2 is None or (
            c2[k] * c1[image[h].bit_length() - 1] == c2[h] * c1[j]))))


def _chi_multisets_meet(chi1, chi2):
    """Whether some class c makes the multiset of c chi2(x) that of
    chi1(y), a condition every carrier under the χ rule of ``_carriers``
    meets: it maps lam2's fixed points onto lam1's with chi1(alpha(x)) =
    c chi2(x) for one c, so c is chi1(y) chi2(h)^-1 for some y, h being
    lam2's first fixed point.  False when just one of them is None."""
    if chi1 is None or chi2 is None:
        return chi1 is chi2
    want = Counter(chi1.values())
    return any(Counter(c * v for v in _chi_key(chi2)) == want for c in want)


def _relabel_by_pairs(spec, alpha):
    """The pair permutation of spec conjugated by the relabel L by alpha,
    read off pair permutations alone: with (L f)[t] = f[pa[t]] and
    (L^-1 f)[t] = f[pb[t]], L o conj(theta) o base o L^-1 relabels along
    t |-> pb[perm[pa[t]]].  ``equivalent`` holds ``_relabelled_spec``'s
    permutation, built from the composed poset maps, to it; its unit
    L(theta) is held to ``FiaMorphism.induced`` by the test
    ``test_relabelled_theta_is_the_induced_morphism_image``."""
    pa = alpha.pair_permutation()
    pb = alpha.inverse().pair_permutation()
    return tuple([pb[spec._perm[i]] for i in pa])


def verify_witness(s1, s2, verdict):
    """Re-check a positive verdict's witness from scratch: the conjugator
    must intertwine s1 with s2, relabelled first for a general verdict.
    Raises WitnessFailed when it does not."""
    target = (s2 if verdict.alpha is None
              else _relabelled_spec(s2, verdict.alpha))
    if not _verify_intertwiner(s1, target, verdict.conjugator):
        raise WitnessFailed("witness failed re-verification")


def _shared_gamma(spec, other):
    """gamma of spec's ``_reduction``, for ``other`` a spec of its inner
    class.  When spec has no reduction stored yet and other has, spec is
    reduced against a copy of other's base, the class's representative,
    instead of building and validating its own; the copy holds the base's
    attributes under a new object, so the reduction spec stores dies with
    spec."""
    if "_reduction" not in vars(spec) and "_reduction" in vars(other):
        twin = object.__new__(InvolutionSpec)
        vars(twin).update(vars(other._reduction[0]))
        spec._reduction = spec._reduce(twin)
    return spec._reduction[1]


def equivalent_inner(s1, s2):
    """Decide inner equivalence; emit a verified conjugator or name the
    distinguishing invariant ("lambda", "sign" or "chi")."""
    _check_same_context(s1, s2)
    require_classifiable(s1.alg.poset, s1.alg.field)
    return _equivalent_inner(s1, s2)


def _equivalent_inner(s1, s2):
    """``equivalent_inner`` after its context check and classification
    gate, which the caller has run.  The witness is gamma2 gamma1^-1 for
    the gammas of the two reductions, s2's taken first: whichever spec has
    no reduction stored yet is reduced against the representative the
    other already holds (``_shared_gamma``), and the class's
    representative is built and validated only when neither has one."""
    if s1.lam != s2.lam:
        return Verdict(False, distinguisher="lambda")
    if s1.k != s2.k:
        return Verdict(False, distinguisher="sign")
    inv1, inv2 = s1.invariant(), s2.invariant()
    if not inv1.same_inner_class(inv2):
        return Verdict(False, distinguisher="chi")
    conjugator = _shared_gamma(s2, s1) * _shared_gamma(s1, s2).inverse()
    if not _verify_intertwiner(s1, s2, conjugator):
        raise WitnessFailed("constructed witness fails to intertwine")
    return Verdict(True, conjugator=conjugator)


def equivalent(s1, s2):
    """Decide equivalence under all ring automorphisms: the signs must
    agree and some poset automorphism must carry one induced involution to
    the other with matching square-class data.

    The classification gate runs once.  Relabelling s2 by a carrier
    alpha moves its key by alpha, so one search under the χ rule of
    ``_carriers`` stops at the first carrier whose moved key matches
    s1's, the first the full list would give (none, without a search,
    when the square-class multisets cannot meet).  A second search, for
    any carrier, runs only on a miss, to tell "chi" from "lambda".  The
    one carrier found is built into a relabelled normal form, whose inner
    witness must then exist.  Before a positive verdict, that form's pair
    permutation is held to ``_relabel_by_pairs``, a second route on pair
    permutations alone; a mismatch raises WitnessFailed."""
    _check_same_context(s1, s2)
    require_classifiable(s1.alg.poset, s1.alg.field)
    if s1.k != s2.k:
        return Verdict(False, distinguisher="sign")
    inv1, inv2 = s1.invariant(), s2.invariant()
    found = _carriers(s1.lam, s2.lam, inv1.chi, inv2.chi, first=True)
    if not found or inv1.kind != inv2.kind:
        carried = found or _carriers(s1.lam, s2.lam, first=True)
        return Verdict(False, distinguisher="chi" if carried else "lambda")
    alpha = found[0]
    conjugated = _relabelled_spec(s2, alpha)
    inner = _equivalent_inner(s1, conjugated)
    if not inner.equivalent:
        raise WitnessFailed("matching carrier key gives no inner witness")
    if _relabel_by_pairs(s2, alpha) != conjugated._perm:
        raise WitnessFailed("relabel conjugation mismatch")
    return Verdict(True, conjugator=inner.conjugator, alpha=alpha)


# -- classification ----------------------------------------------------------


class Classification:
    """Classification outcome: representatives with their invariants, or a
    finitely-described family when the square-class group is infinite.
    The poset, the fixed points and the count are read off lam and the
    representatives (no count for a family)."""

    def __init__(self, field, lam, representatives, general, family=None):
        self.poset = lam.src
        self.field = field
        self.lam = lam
        self.fixed = lam.fixed_points()
        self.representatives = representatives
        self.count = None if representatives is None else len(representatives)
        self.general = general
        self.family = family

    @property
    def infinite(self):
        return self.count is None

    def invariants(self):
        if self.representatives is None:
            return None
        return [s.invariant() for s in self.representatives]

    def to_json(self):
        out = {
            "poset": self.poset.to_json(),
            "field": self.field.name,
            "lambda": self.lam.to_json(),
            "fixed_points": [str(x) for x in self.fixed],
            "mode": "general" if self.general else "inner",
            "count": self.count if self.count is not None else "infinite",
        }
        if self.representatives is not None:
            out["representatives"] = [s.to_json() for s in self.representatives]
            out["invariants"] = [i.to_json() for i in self.invariants()]
        if self.family is not None:
            out["family"] = self.family
        return out


def _chi_orbit_fold(lam, keys):
    """Fold chi keys, one class per fixed point of lam in element order,
    by the automorphisms commuting with lam, keeping the first of each
    orbit: a key is kept unless the first-hit search under the χ rule of
    ``_carriers`` finds an automorphism commuting with lam that moves it
    onto an earlier kept key.  These automorphisms form a group, so that
    relation is symmetric, and no group is listed."""
    fixed = lam.fixed_points()
    kept = []  # the χ maps of the kept keys
    for chi in (dict(zip(fixed, key)) for key in keys):
        if not any(_carriers(lam, lam, r, chi, first=True) for r in kept):
            kept.append(chi)
    return [tuple(chi.values()) for chi in kept]


def classify(poset, lam, field, general=False):
    """Representatives of the involutions inducing the given poset
    involution, up to inner (default) or general equivalence.

    Each class is named by its key, as ``ClassInvariant.key`` gives it:
    "plain" and "skew" without fixed points; with them, the identity class
    at the first fixed point followed by any listed square class at each
    other one.  ``_representative`` builds each key's involution for both
    signs.  Over Q two or more fixed points give infinitely many keys, so
    the answer is a finitely described family instead."""
    require_classifiable(poset, field)
    return _classify(IncidenceAlgebra(poset, field), lam, general)


def _classify(alg, lam, general):
    """``classify`` on a built algebra, after its gate."""
    poset, field = alg.poset, alg.field
    fixed = lambda_decomposition(poset, lam).fixed
    if len(fixed) > 1 and field.square_class_count is None:
        family = {
            "shape": "rho_eps with sign +1 or -1",
            "eps": "signed squarefree integers on the fixed points, "
                   "first one normalized to 1, modulo one global shift",
            "fixed_points": [str(x) for x in fixed],
        }
        if general:
            family["general"] = ("tuples further identified under poset "
                                 "automorphisms commuting with the involution")
        return Classification(field, lam, None, general, family=family)
    keys = ["plain", "skew"]
    if fixed:
        # Q has no list of classes; one fixed point needs none
        classes = [field.square_class(v) for v in
                   (field.square_class_reps() if len(fixed) > 1 else ())]
        keys = [(field.square_class(field.one),) + rest for rest in
                itertools.product(classes, repeat=len(fixed) - 1)]
        if general and len(keys) > 1:
            keys = _chi_orbit_fold(lam, keys)
    reps = [_representative(alg, lam, k, key) for key in keys for k in (1, -1)]
    if len(fixed) > 1 and not general:
        expected = 2 * field.square_class_count ** (len(fixed) - 1)
        if len(reps) != expected:
            raise WitnessFailed("representative count disagrees with theory")
    return Classification(field, lam, reps, general)
