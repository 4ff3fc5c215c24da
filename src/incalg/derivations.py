"""Derivations from the algebra to the incidence space.

A derivation is a K-linear map D with D(fg) = D(f) g + f D(g).  Two
families span them all: inner derivations f |-> f i - i f, and additive
ones that scale each entry by an additive cocycle.  ``split_raw_derivation``
recovers such a presentation from a raw matrix and accepts it only when the
presentation reproduces the matrix on the whole basis, and
``leibniz_check`` decides the rule for a map not known to be a derivation
by that same certificate.  ``der_equals_ider`` decides whether the
additive family adds anything beyond the inner one, reading the answer off
``snf.cocycle_obstruction`` (the same reading that decides
``mult_subset_inn``), and ``find_non_inner_additive`` reads a counterexample
off the column transform of the whole poset's Smith form.
"""

from .errors import (
    ContextMismatch, InvalidCocycle, NotADerivation, WitnessFailed,
)
from .fia import _over_one
from .morphisms import (
    FiLinearMap, coboundary, _complete_cocycle, validate_cocycle,
)
from .snf import _der_inner_rule, _smith_reading, cocycle_obstruction


def validate_additive_cocycle(alg, tau):
    """tau: strict-pair -> scalar with tau(x,y) + tau(y,z) = tau(x,z)."""
    return validate_cocycle(alg, tau, alg.field.add, "additive chain identity")


class DerivationSpec:
    """A derivation presented as inner part plus additive part."""

    def __init__(self, alg, inner=None, tau=None):
        self.alg = alg
        self.inner = inner if inner is not None else alg.zero()
        if self.inner.alg != alg:
            raise ContextMismatch("inner part over a different context")
        self.tau, self._tau_scale = _complete_cocycle(
            alg, tau, alg.field.zero, validate_additive_cocycle)

    def apply(self, f):
        if f.alg != self.alg:
            raise ContextMismatch("derivation and argument over different contexts")
        commutator = f * self.inner - self.inner * f
        return commutator + self._tau_scale.entrywise(f)

    def to_linear(self):
        """The matrix of the map, each column in closed form: column e_pq is
        e_pq i - i e_pq + tau(p, q) e_pq, that is row q of i moved to row
        p, minus column p of i moved to column q, plus the tau entry.  The
        columns are written on the numerators of i and tau over one
        denominator."""
        alg = self.alg
        poset, index = alg.poset, alg.pair_index
        i, tau, den = _over_one(self.inner, self._tau_scale)
        cols = []
        for k, (p, q) in enumerate(alg.pairs):
            col = [0] * alg.npairs
            for y in poset.up(q):
                col[index[(p, y)]] = i[index[(q, y)]]
            for x in poset.down(p):
                col[index[(x, q)]] -= i[index[(x, p)]]
            col[k] += tau[k]
            cols.append(alg._normal(col, den))
        return FiLinearMap._of(alg, cols)

    def __repr__(self):
        return f"DerivationSpec(inner={self.inner!r}, tau={self.tau})"


def leibniz_check(alg, d):
    """Whether D(fg) = D(f) g + f D(g) on the whole algebra, decided by
    ``split_raw_derivation`` on the matrix of d.

    That split accepts only a presentation that is a derivation by
    construction and equals the matrix on every basis column, so it never
    accepts a non-derivation; and every derivation of a finite incidence
    algebra is inner plus additive (Baclawski, Proc. AMS 36, 1972), so it
    accepts every derivation.  ``d`` may be a DerivationSpec or any object
    with an ``apply`` method (e.g. a raw FiLinearMap).
    """
    try:
        split_raw_derivation(FiLinearMap.from_function(alg, d.apply))
    except NotADerivation:
        return False
    return True


def additive_is_inner(alg, tau):
    """A diagonal witness f with tau(x,y) = f(y,y) - f(x,x), or None: f is
    -phi for the ``morphisms.coboundary`` phi of tau over K, so f is zero
    at the first element of each component of the comparability graph."""
    field = alg.field
    tau = validate_additive_cocycle(alg, tau)
    phi = coboundary(alg.poset, tau, field.sub, field.add, field.zero)
    if phi is None:
        return None
    return alg.diagonal({x: field.neg(v) for x, v in phi.items()})


def der_equals_ider(poset, field):
    """Whether every derivation is inner, i.e. every additive cocycle is a
    diagonal coboundary, by the rule ``snf.check_hypotheses`` applies."""
    return _der_inner_rule(*cocycle_obstruction(poset), field)


def find_non_inner_additive(alg):
    """An additive cocycle with no inner witness, or None exactly when
    ``der_equals_ider`` holds.

    The argument of ``morphisms.find_non_inner_cocycle`` with K in place of
    K*: on one Smith normal form U R V = diag(d) of the chain relations,
    column j of V gives the functional tau_j(x,y) = V[(x,y)][j], which is
    a cocycle when d_j = 0 or the characteristic divides d_j.  A torsion
    column lies in ker d / R, so its tau_j is never inner; and some
    free-column coordinate of a primitive vector of ker d / R is nonzero in
    K, since those coordinates have gcd 1.  Each candidate is certified by
    ``additive_is_inner``; if none is non-inner, WitnessFailed.
    """
    poset, field = alg.poset, alg.field
    obstruction, columns = _smith_reading(poset)
    if _der_inner_rule(*obstruction, field):
        return None
    p = field.char
    for dj, col in columns:
        if dj == 0 or (p and dj % p == 0):
            tau = {pair: field(e) for pair, e in zip(poset.strict_pairs, col)}
            if additive_is_inner(alg, tau) is None:
                return tau
    raise WitnessFailed("no Smith-form functional is a non-inner cocycle")


def split_raw_derivation(raw):
    """Present a raw derivation matrix as inner part plus additive part,
    certified: the presentation ``_read_derivation`` reads off raw is a
    derivation by construction, so accepting only when it equals the input
    on every basis column certifies that the input is one; the Leibniz rule
    is never checked on the input.  Every rejection is NotADerivation.
    """
    spec = _read_derivation(raw)
    if spec.to_linear() != raw:
        raise NotADerivation("recomposition does not reproduce the input")
    return spec


def _read_derivation(raw):
    """The presentation ``split_raw_derivation`` reads off raw's columns,
    uncertified: for a derivation it equals raw, and on any other input it
    raises NotADerivation or returns a presentation that differs from raw.

    The additive cocycle is tau(x,y) = D(e_xy)(x,y).  For a derivation the
    residual D - tau is ad_i: f |-> f i - i f.  Its (x,y) entry at e_xy is
    i(y,y) - i(x,x) and vanishes, so the diagonal of i is constant on each
    component and is normalized to zero.  Its (x,y) entry at e_xx is
    i(x,y) for x < y, and tau is zero on e_xx, so i(x,y) = D(e_xx)(x,y).
    """
    alg = raw.alg
    index = alg.pair_index
    tau = {p: raw._entry(index[p], index[p]) for p in alg.poset.strict_pairs}
    inner = alg.element({(x, y): raw._entry(index[(x, x)], index[(x, y)])
                         for x, y in alg.poset.strict_pairs})
    try:
        return DerivationSpec(alg, inner=inner, tau=tau)
    except InvalidCocycle as exc:
        raise NotADerivation(f"entry scaling is not a cocycle: {exc}") from exc
