"""Derivations from the algebra to the incidence space.

A derivation is a K-linear map D with D(fg) = D(f) g + f D(g).  Two
families span them all: inner derivations f |-> f i - i f, and additive
ones that scale each entry by an additive cocycle.  ``split_raw_derivation``
recovers such a presentation from a raw matrix, after ``leibniz_check`` has
checked the rule exactly on every basis pair.  ``der_equals_ider`` decides
whether the additive family adds anything beyond the inner one, reading the
answer off ``morphisms.cocycle_obstruction`` (the same Smith normal form
that decides ``mult_subset_inn``).
"""

from .errors import ContextMismatch, NotADerivation, SplitFailed
from .fia import IncFn
from .linalg import nullspace, solve
from .morphisms import (
    FiLinearMap, _relation_rows, cocycle_obstruction, validate_cocycle,
)


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
        tau = dict(tau or {})
        for p in alg.poset.strict_pairs:
            tau.setdefault(p, alg.field.zero)
        self.tau = validate_additive_cocycle(alg, tau)
        self._tau_scale = tuple(
            self.tau[p] if p[0] != p[1] else alg.field.zero for p in alg.pairs)

    def apply(self, f):
        if f.alg != self.alg:
            raise ContextMismatch("derivation and argument over different contexts")
        field = self.alg.field
        commutator = f * self.inner - self.inner * f
        scaled = IncFn(self.alg, tuple(
            field.mul(t, v) for t, v in zip(self._tau_scale, f.vals)))
        return commutator + scaled

    def to_linear(self):
        return FiLinearMap.from_function(self.alg, self.apply)

    def __repr__(self):
        return f"DerivationSpec(inner={self.inner!r}, tau={self.tau})"


def leibniz_check(alg, d):
    """Exact Leibniz check on every pair of basis elements; ``d`` is linear
    and the product bilinear, so this decides the rule on the whole algebra.

    ``d`` may be a DerivationSpec or any object with an ``apply`` method
    (e.g. a raw FiLinearMap).
    """
    basis = [alg.e(x, y) for x, y in alg.pairs]
    for f in basis:
        for g in basis:
            if d.apply(f * g) != d.apply(f) * g + f * d.apply(g):
                return False
    return True


def additive_is_inner(alg, tau):
    """A diagonal witness f with tau(x,y) = f(y,y) - f(x,x), or None.

    When some point is comparable with everything, the witness is explicit:
    -tau(x, x0) below the first such point x0 (in element order) and
    tau(x0, x) above it.  Otherwise the diagonal is propagated along a
    spanning tree of the comparability graph and the remaining pairs are
    checked.
    """
    field = alg.field
    tau = validate_additive_cocycle(alg, tau)
    poset = alg.poset
    anchors = poset.all_comparable_elements()
    diag = {}
    if anchors:
        x0 = min(anchors, key=poset.index.get)
        for x in poset.elements:
            if poset.leq(x, x0):
                diag[x] = field.neg(tau.get((x, x0), field.zero))
            else:
                diag[x] = tau.get((x0, x), field.zero)
    else:
        for v, w in poset.spanning_tree():
            if v is None:
                diag[w] = field.zero
            elif poset.leq(v, w):
                diag[w] = field.add(diag[v], tau[(v, w)])
            else:
                diag[w] = field.sub(diag[v], tau[(w, v)])
    for (x, y), v in tau.items():
        if field.sub(diag[y], diag[x]) != v:
            return None
    return alg.diagonal(diag)


def der_equals_ider(poset, field):
    """Whether every derivation is inner, i.e. every additive cocycle is a
    diagonal coboundary.  Over K the cocycles exceed the coboundaries by
    the free rank plus the number of invariant factors of the cocycle
    obstruction group that the characteristic divides, so both must be
    zero."""
    return _der_inner_rule(*cocycle_obstruction(poset), field)


def _der_inner_rule(factors, free_rank, field):
    p = field.char
    return free_rank == 0 and (p == 0 or all(d % p for d in factors))


def find_non_inner_additive(alg):
    """A concrete additive cocycle with no inner witness, or None.

    Picks a basis vector of the cocycle solution space that the coboundary
    test rejects; one exists exactly when der_equals_ider fails.
    """
    poset, field = alg.poset, alg.field
    npairs = len(poset.strict_pairs)
    if npairs == 0:
        return None
    rel = [[field(v) for v in row] for row in _relation_rows(poset)]
    basis = nullspace(field, rel, ncols=npairs) if rel else nullspace(
        field, [], ncols=npairs)
    for vec in basis:
        tau = dict(zip(poset.strict_pairs, vec))
        if additive_is_inner(alg, tau) is None:
            return tau
    return None


def split_raw_derivation(raw):
    """Present a raw derivation matrix as inner part plus additive part.

    The additive cocycle is read off the basis images; the residual is an
    inner derivation found by exact linear solve and normalized by zeroing
    the diagonal at the first element of each component.
    """
    alg = raw.alg
    field = alg.field
    if not leibniz_check(alg, raw):
        raise NotADerivation("map fails the Leibniz rule")
    tau = {}
    for x, y in alg.poset.strict_pairs:
        tau[(x, y)] = raw.apply(alg.e(x, y))[x, y]
    additive = DerivationSpec(alg, tau=tau)
    # solve (e_p i - i e_p) = residual(e_p) for the entries of i
    npairs = alg.npairs
    rows, rhs = [], []
    basis = [alg.e(x, y) for x, y in alg.pairs]
    for b in basis:
        target = raw.apply(b) - additive.apply(b)
        commutators = [(b * ej - ej * b).vals for ej in basis]
        for k in range(npairs):
            rows.append([commutators[j][k] for j in range(npairs)])
            rhs.append(target.vals[k])
    sol = solve(field, rows, rhs)
    if sol is None:
        raise SplitFailed("residual is not an inner derivation")
    inner = IncFn(alg, tuple(sol))
    # zero the diagonal entry at the head of each component
    shift = {}
    for comp in alg.poset.components():
        head = comp[0]
        for x in comp:
            shift[x] = inner[head, head]
    inner = inner - alg.diagonal(shift)
    spec = DerivationSpec(alg, inner=inner, tau=tau)
    if spec.to_linear() != raw:
        raise SplitFailed("recomposition does not reproduce the input")
    return spec
