"""Differential tests for the exact checks against exhaustive references.

``recognize``, ``decompose`` and ``split_raw_derivation`` accept a raw
matrix only when the form they factor it into reproduces it on the whole
basis.  ``recognize`` certifies only its whole normal form, reading the
two blocks with the uncertified readers; ``ref_recognize`` keeps the route
through the certified ``decompose`` and ``split_raw_derivation``, and both
must give the same spec or the same rejection, up to one message.  The
three ``to_linear`` methods that write that form's matrix build
each column in closed form from rank-one products
(``IncidenceAlgebra.rank_one``).  ``leibniz_check`` is the certificate of
``split_raw_derivation`` on the map's matrix.  The square test of
``InvolutionSpec`` and ``_verify_intertwiner`` each decide theirs by the
centrality of one element: base(theta) theta^-1, and base(c) theta2^-1 c
theta1.  The routines below are the exhaustive basis-pair and whole-matrix
versions those replaced, kept verbatim as the reference, with the generator
square check as a second reference and ``from_function`` of ``apply`` as
the reference matrix.  Both paths must accept and reject the same inputs
with the same exception type (``recognize`` against the old ring-involution
validation, with NotAnInvolution or UpperRightNonzero as its rejection), on
every involution of the small fixtures, on perturbed copies of them and on
Hypothesis-drawn matrices and units; an accepted ``decompose`` must also
give the reference's factors.  ``InvolutionSpec.invariant`` reads chi off
theta's own ring diagonal; ``ref_invariant`` is the version that built the
symmetric form first, and both must give the same invariant or refusal.
"""

import functools
import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from incalg.derivations import (
    DerivationSpec, additive_is_inner, leibniz_check, split_raw_derivation,
)
from incalg.errors import (
    BadSign, IncalgError, NotADerivation, NotAMorphism, NotAnInvolution,
    NotAUnit, NotInvolutive, NotUnital, ParseError, UpperRightNonzero,
    WitnessFailed,
)
from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import (
    DElem, DLinearMap, _split, central_pair, d_basis, d_one, inner_auto,
    lift_morphism,
)
from incalg.involutions import (
    ClassInvariant, InvolutionSpec, _verify_intertwiner, build, classify,
    equivalent_inner, recognize, require_classifiable, rho_eps,
)
from incalg.morphisms import (
    FiaMorphism, FiLinearMap, decompose, multiplicative_is_inner,
)
from incalg.posets import PosetMap, Poset, lambda_decomposition

from conftest import blocks, chain, coords
from test_fia_kernel import EDGE, ref_d_generators
from test_hypotheses_reference import solve
from test_linalg import d_from_coords

F3 = PrimeField(3)
F5 = PrimeField(5)
FIELDS = (F3, F5, QQ)

DIAMOND = Poset.from_covers(["0", "a", "b", "1"],
                            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
WIDE_DIAMOND = Poset.from_covers(
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
POSETS = {"chain3": chain(3), "chain4": chain(4), "diamond": DIAMOND,
          "wide-diamond": WIDE_DIAMOND}


# -- reference: the exhaustive checks, verbatim ------------------------------


class SplitFailed(IncalgError):
    """The error ``ref_split_raw_derivation`` raised; the library now raises
    NotADerivation there instead."""


def ref_validate_ring_involution(raw):
    alg = raw.alg
    if raw.apply(d_one(alg)) != d_one(alg):
        raise NotAnInvolution("map does not fix the unity")
    basis = d_basis(alg)
    images = [raw.apply(b) for b in basis]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            if raw.apply(bi * bj) != images[j] * images[i]:
                raise NotAnInvolution("map is not anti-multiplicative")
    for b, img in zip(basis, images):
        if raw.apply(img) != b:
            raise NotAnInvolution("map does not square to the identity")


def ref_decompose(raw, anti=False):
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

    stripped = raw.compose(ref_matrix(FiaMorphism.induced(alg, mu.inverse())))
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
    result = FiaMorphism(alg, u=g, sigma=sigma, posetmap=mu)
    if ref_matrix(result) != raw:
        raise NotAMorphism("recomposition does not reproduce the input")
    return result


def ref_leibniz_check(alg, d):
    basis = [alg.e(x, y) for x, y in alg.pairs]
    for f in basis:
        for g in basis:
            if d.apply(f * g) != d.apply(f) * g + f * d.apply(g):
                return False
    return True


def ref_split_raw_derivation(raw):
    alg = raw.alg
    field = alg.field
    if not ref_leibniz_check(alg, raw):
        raise NotADerivation("map fails the Leibniz rule")
    tau = {}
    for x, y in alg.poset.strict_pairs:
        tau[(x, y)] = raw.apply(alg.e(x, y))[x, y]
    additive = DerivationSpec(alg, tau=tau)
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
    shift = {}
    for comp in alg.poset.components():
        head = comp[0]
        for x in comp:
            shift[x] = inner[head, head]
    inner = inner - alg.diagonal(shift)
    spec = DerivationSpec(alg, inner=inner, tau=tau)
    if ref_matrix(spec) != raw:
        raise SplitFailed("recomposition does not reproduce the input")
    return spec


def ref_central_ratio(spec):
    """``central_ratio`` before it took over the positive-sign check."""
    alg = spec.alg
    c = spec._ratio
    if not c.is_central():
        raise NotAnInvolution("unit is not symmetric up to the center")
    x0 = alg.poset.elements[0]
    k0, k1 = c.f[x0, x0], c.i[x0, x0]
    if c != central_pair(alg, k0, k1):
        raise NotAnInvolution("central ratio is not a scalar pair")
    if alg.field.mul(k0, k0) != alg.field.one:
        raise NotAnInvolution("central ratio has a bad ring part")
    return k0, k1


def ref_symmetric_form(spec):
    """``symmetric_form`` with its own positive-sign check."""
    field = spec.alg.field
    k0, k1 = ref_central_ratio(spec)
    if spec.k == field.one:
        if k1 != field.zero:
            raise NotAnInvolution("positive sign forces a plain ratio")
        return spec.theta, k0
    half = field.inv(field(2))
    gamma = central_pair(spec.alg, k0, field.mul(k1, half)) * spec.theta
    return gamma, k0


def ref_invariant(spec):
    """``InvolutionSpec.invariant`` when it read chi off the symmetric
    form, verbatim."""
    fixed = spec.lam.fixed_points()
    theta_sym, k0 = ref_symmetric_form(spec)
    field = spec.alg.field
    if not fixed:
        kind = "plain" if k0 == field.one else "skew"
        return ClassInvariant(spec.lam, spec.k, kind=kind)
    if k0 != field.one:
        raise NotAnInvolution("skew units cannot occur with fixed points")
    chi = {x: field.square_class(theta_sym.f[x, x]) for x in fixed}
    return ClassInvariant(spec.lam, spec.k, chi=chi)


def ref_find_involution_failure(spec):
    for b in d_basis(spec.alg):
        if spec.apply(spec.apply(b)) != b:
            return b
    return None


def ref_generator_involution_failure(spec):
    """The generator square check ``InvolutionSpec`` ran before the closed
    form (``_find_involution_failure``), verbatim, on the test-side
    generators."""
    for g in ref_d_generators(spec.alg):
        if spec.apply(spec.apply(g)) != g:
            return g
    return None


def ref_verify_intertwiner(s1, target, conjugator):
    psi = inner_auto(conjugator)
    return psi.compose(ref_matrix(s1)) == target.compose(psi)


def ref_matrix(x):
    """The matrix of an InvolutionSpec, FiaMorphism or DerivationSpec by
    applying it to every basis element: the reference for ``to_linear``."""
    if isinstance(x, InvolutionSpec):
        return DLinearMap.from_function(x.alg, x.apply)
    return FiLinearMap.from_function(x.alg, x.apply)


def ref_recognize(raw):
    """``recognize`` when its factoring route (``ref_factor``) called the
    certified ``decompose`` and ``split_raw_derivation``, verbatim: three
    whole-matrix certificates per accepted input instead of one."""
    alg = raw.alg
    require_classifiable(alg.poset, alg.field)
    n = alg.npairs
    if any(any(num[:n]) for num in raw.nums[n:]):  # read on the stored form
        raise UpperRightNonzero("bimodule-to-ring block must vanish")
    one = d_one(alg)
    if raw.apply(one) != one:
        raise NotAnInvolution("map does not fix the unity")
    try:
        spec = ref_factor(raw, [_split(alg, *col)
                                for col in zip(raw.nums[:n], raw.dens)])
    except (NotAMorphism, NotUnital, NotADerivation, NotAUnit, BadSign,
            NotInvolutive) as exc:
        raise NotAnInvolution(f"map is not an involution: {exc}") from exc
    if spec.to_linear() != raw:
        raise NotAnInvolution("normal form does not reproduce the input")
    return spec


def ref_factor(raw, ring_columns):
    """``involutions._factor`` on the certified ``decompose`` and
    ``split_raw_derivation``, verbatim."""
    alg = raw.alg
    m11 = decompose(FiLinearMap._of(alg, [c.f._vector() for c in ring_columns]),
                    anti=True)
    lam = m11.posetmap
    if not lam.is_involution():
        raise NotAnInvolution("induced poset map is not an involution")
    g = raw.apply(DElem(alg.zero(), alg.delta())).i
    if not (g.is_unit() and alg.is_central(g)):
        raise NotAnInvolution("residual bimodule action is not central")
    x0 = alg.poset.elements[0]
    k = g[x0, x0]
    der_map = FiLinearMap._of(alg, [m11.apply(c.i)._vector()
                                    for c in ring_columns])
    spec_d = split_raw_derivation(der_map)
    diag_witness = additive_is_inner(alg, spec_d.tau)
    if diag_witness is None:
        raise WitnessFailed("hypothesis check admitted a bad poset: no "
                            "additive witness")
    j = spec_d.inner + diag_witness
    eta = multiplicative_is_inner(alg, m11.sigma)
    if eta is None:
        raise WitnessFailed("hypothesis check admitted a bad poset: no "
                            "multiplicative witness")
    m = m11.u * alg.diagonal(eta)
    theta = DElem(m, m * j.permuted(lam.pair_permutation()))
    return build(alg, theta, lam, k)


# -- helpers -----------------------------------------------------------------


def involutive(spec):
    """The closed-form square test: whether the constructor, run without
    ``_validated``, accepts the spec's data.  It raises NotInvolutive
    exactly when base(theta) theta^-1 is not central."""
    kind, value = outcome(InvolutionSpec, spec.alg, spec.theta, spec.lam,
                          spec.k)
    assert kind == "ok" or value is NotInvolutive, value
    return kind == "ok"


def outcome(fn, *args):
    """("ok", value) or ("raise", exception type)."""
    try:
        return "ok", fn(*args)
    except IncalgError as exc:
        return "raise", type(exc)


def same_outcome(new, ref, *args, compare=None):
    got, want = outcome(new, *args), outcome(ref, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1] is want[1], (got, want)
    elif compare is not None:
        assert compare(got[1]) == compare(want[1])


def to_json(m):
    return m.to_json()


def same_verdict_as_reference(raw):
    """recognize accepts exactly when the exhaustive validation does, with a
    normal form that reproduces raw; otherwise it raises UpperRightNonzero
    when that block is nonzero and NotAnInvolution when it is not."""
    got = outcome(recognize, raw)
    if outcome(ref_validate_ring_involution, raw)[0] == "ok":
        assert got[0] == "ok", got
        assert got[1].to_linear() == raw
        return
    zero = raw.alg.field.zero
    upper = any(v != zero for col in blocks(raw)[1] for v in col)
    assert got == ("raise", UpperRightNonzero if upper else NotAnInvolution)


def perturbed(m, i, j):
    """A copy of a column map with entry j of column i moved by one."""
    field = m.alg.field
    cols = [list(c) for c in m.cols]
    cols[i][j] = field.add(cols[i][j], field.one)
    return type(m)(m.alg, cols)


def small_unit(alg, rng):
    """A random unit [f; i] with entries in -2..2 and diagonal +-1, so that
    over Q its inverse and the conjugates it makes stay integral."""
    f = {(x, y): rng.choice((1, -1)) if x == y else rng.randint(-2, 2)
         for x, y in alg.pairs}
    i = {p: rng.randint(-2, 2) for p in alg.pairs}
    return DElem(alg.element(f), alg.element(i))


def conjugated(raw, u):
    return inner_auto(u).compose(raw).compose(inner_auto(u.inverse()))


def involutions_of(alg):
    """Every class representative of every poset involution; over Q with
    several fixed points (an infinite family) a few rho_eps members."""
    out = []
    for lam in alg.poset.involutions():
        res = classify(alg.poset, lam, alg.field)
        if res.representatives is not None:
            out.append(res.representatives)
            continue
        fixed = res.fixed
        specs = []
        for eps in ([1] * len(fixed), [1, 2] + [3] * (len(fixed) - 2)):
            for k in (1, -1):
                specs.append(rho_eps(alg, lam, dict(zip(fixed, eps)), k))
        out.append(specs)
    return out


CONTEXTS = [pytest.param(name, field, id=f"{name}-{getattr(field, 'name', 'Q')}")
            for name in POSETS for field in FIELDS]


# -- the differential test ---------------------------------------------------


@pytest.mark.parametrize("name, field", CONTEXTS)
def test_generator_checks_match_reference(name, field):
    alg = IncidenceAlgebra(POSETS[name], field)
    rng = random.Random(f"{name}:{field!r}")
    # Over Q exact arithmetic is about ten times slower, so there the
    # comparisons that run a reference loop over every basis pair of D (an
    # accepted or perturbed ring involution) are made on the first
    # representative of the first poset involution only; every
    # representative still goes through the rest, the ring block's
    # decomposition among them.
    finite = field.order is not None
    for l_index, specs in enumerate(involutions_of(alg)):
        for s_index, spec in enumerate(specs):
            full = finite or (l_index == 0 and s_index == 0)
            heavy = full and s_index == 0
            raw = conjugated(spec.to_linear(), small_unit(alg, rng))
            # recognize against ring-involution validation: accepted,
            # perturbed, not involutive
            n = len(raw.cols)
            bad = perturbed(raw, rng.randrange(n), rng.randrange(n))
            if full:
                same_verdict_as_reference(raw)
                same_verdict_as_reference(bad)
            if heavy:
                twisted = inner_auto(small_unit(alg, rng)).compose(raw)
                same_verdict_as_reference(twisted)
            # decompose on the ring block (an anti-automorphism), on a
            # perturbed copy, and with the wrong kind
            b11 = FiLinearMap(alg, blocks(raw)[0])
            same_outcome(decompose, ref_decompose, b11, True,
                         compare=to_json)
            npairs = alg.npairs
            same_outcome(decompose, ref_decompose,
                         perturbed(b11, rng.randrange(npairs),
                                   rng.randrange(npairs)), True,
                         compare=to_json)
            if heavy:
                same_outcome(decompose, ref_decompose, b11, False,
                             compare=to_json)
            # the square test, on the spec and on a non-symmetric unit
            assert involutive(spec)
            assert ref_find_involution_failure(spec) is None
            other = InvolutionSpec(alg, small_unit(alg, rng), spec.lam,
                                   spec.k, _validated=True)
            assert (involutive(other)
                    == (ref_find_involution_failure(other) is None))
            # intertwiners: the identity, and a witness when one exists
            target = specs[(s_index + 1) % len(specs)]
            if not heavy:
                continue
            for conj in (d_one(alg), small_unit(alg, rng)):
                assert (_verify_intertwiner(spec, target, conj)
                        == ref_verify_intertwiner(spec, ref_matrix(target),
                                                  conj))
            verdict = equivalent_inner(spec, target)
            if verdict.equivalent:
                assert _verify_intertwiner(spec, target, verdict.conjugator)
                assert ref_verify_intertwiner(spec, ref_matrix(target),
                                              verdict.conjugator)
    # derivations: a random one, a perturbed one
    d = DerivationSpec(alg, inner=alg.random(rng),
                       tau=_random_cocycle(alg, rng)).to_linear()
    assert leibniz_check(alg, d) and ref_leibniz_check(alg, d)
    same_outcome(split_raw_derivation, ref_split_raw_derivation, d,
                 compare=lambda s: (s.inner, sorted(s.tau.items())))
    npairs = alg.npairs
    bad = perturbed(d, rng.randrange(npairs), rng.randrange(npairs))
    assert leibniz_check(alg, bad) == ref_leibniz_check(alg, bad)
    same_outcome(split_raw_derivation, ref_split_raw_derivation, bad)


def _random_cocycle(alg, rng):
    c = {x: alg.field.random(rng) for x in alg.poset.elements}
    return {(x, y): alg.field.sub(c[y], c[x]) for x, y in alg.poset.strict_pairs}


# -- Hypothesis-drawn matrices -------------------------------------------------


@functools.cache
def _genuine(name, field_index):
    """The involutions of ``involutions_of``, built once per context."""
    alg = IncidenceAlgebra(POSETS[name], FIELDS[field_index])
    return [s for specs in involutions_of(alg) for s in specs]


@st.composite
def gated_matrices(draw):
    """A matrix on chain3 or the diamond over F3, F5 or Q that passes the
    structural gates of ``recognize`` (a vanishing bimodule-to-ring block,
    the unity fixed): random entries, or a conjugated genuine involution
    with up to three entries changed."""
    name = draw(st.sampled_from(("chain3", "diamond")))
    field_index = draw(st.sampled_from(range(len(FIELDS))))
    field = FIELDS[field_index]
    alg = IncidenceAlgebra(POSETS[name], field)
    n = alg.npairs
    entry = st.integers(-2, 2).map(field)
    if draw(st.booleans()):
        spec = draw(st.sampled_from(_genuine(name, field_index)))
        u = small_unit(alg, random.Random(draw(st.integers(0, 2 ** 16))))
        raw = conjugated(spec.to_linear(), u)
        cols = [list(c) for c in raw.cols]
        for _ in range(draw(st.integers(0, 3))):
            c = draw(st.integers(0, 2 * n - 1))
            cols[c][draw(st.integers(0, 2 * n - 1))] = draw(entry)
    else:
        cols = [draw(st.lists(entry, min_size=2 * n, max_size=2 * n))
                for _ in range(2 * n)]
    for col in cols[n:]:
        col[:n] = [field.zero] * n
    # the diagonal ring columns must sum to the unity's coordinates
    diag = [k for k, (x, y) in enumerate(alg.pairs) if x == y]
    rest = [cols[k] for k in diag[1:]]
    cols[diag[0]] = [field.sub(one, sum(vals, field.zero)) for one, *vals
                     in zip(coords(d_one(alg)), *rest)]
    return DLinearMap(alg, cols)


@settings(max_examples=80, deadline=None)
@given(gated_matrices())
def test_recognize_matches_reference_on_drawn_matrices(raw):
    same_verdict_as_reference(raw)


# -- recognize against its certified factoring route ---------------------------


# The one message the single certificate changes: an input whose ring or
# derivation block the certified route rejected at its own recomposition is
# now rejected at the normal form's.
RECOMPOSITION = ("map is not an involution: recomposition does not "
                 "reproduce the input")
NORMAL_FORM = "normal form does not reproduce the input"


def recognition(fn, raw):
    """("ok", the spec's JSON) or (exception type, message)."""
    try:
        return "ok", fn(raw).to_json()
    except IncalgError as exc:
        return type(exc), str(exc)


def same_recognition_as_route(raw):
    """recognize and ref_recognize accept the same input with the same
    spec, or reject it with the same exception type and the same message
    up to the one change; returns whether the message changed."""
    got, want = recognition(recognize, raw), recognition(ref_recognize, raw)
    if got == want:
        return False
    assert got[0] is want[0] is NotAnInvolution, (got, want)
    assert (got[1], want[1]) == (NORMAL_FORM, RECOMPOSITION), (got, want)
    return True


@pytest.mark.parametrize("name, field", CONTEXTS)
def test_recognize_matches_certified_route(name, field):
    """Every representative of every poset involution, both signs, under
    seeded conjugators: the same spec as the certified route."""
    alg = IncidenceAlgebra(POSETS[name], field)
    rng = random.Random(f"route:{name}:{field!r}")
    for specs in involutions_of(alg):
        assert {spec.sign_int() for spec in specs} == {1, -1}
        for spec in specs:
            for _ in range(2):
                raw = conjugated(spec.to_linear(), small_unit(alg, rng))
                assert recognition(recognize, raw)[0] == "ok"
                assert not same_recognition_as_route(raw)


@pytest.mark.parametrize("name, field", [("chain3", F3), ("diamond", F5),
                                         ("wide-diamond", QQ)],
                         ids=["chain3-F3", "diamond-F5", "wide-diamond-Q"])
def test_every_perturbation_matches_certified_route(name, field):
    """Every one-entry perturbation of one involution: the same outcome as
    the certified route, and some rejections take the changed message."""
    alg = IncidenceAlgebra(POSETS[name], field)
    spec = involutions_of(alg)[0][-1]
    raw = conjugated(spec.to_linear(), small_unit(alg, random.Random(7)))
    assert recognition(recognize, raw)[0] == "ok"
    n = len(raw.cols)
    changed = sum(same_recognition_as_route(perturbed(raw, i, j))
                  for i in range(n) for j in range(n))
    assert changed


# -- the closed forms: square, intertwiner, certificate columns ---------------


def inner_conjugate(spec, u, k=None, lam=None):
    """The factored data of conj(u) o spec o conj(u)^-1, unvalidated, so
    that it need not be an involution; ``k`` and ``lam`` replace the sign
    and the poset involution (which makes a different map)."""
    theta = u * spec.theta * spec.base_apply(u)
    return InvolutionSpec(spec.alg, theta, spec.lam if lam is None else lam,
                          spec.k if k is None else k, _validated=True)


def same_closed_forms(spec, conjugators, targets):
    """The square test and the matrix of one spec, and the intertwiner check
    from it to each target under each conjugator, against the references."""
    ok = ref_find_involution_failure(spec) is None
    assert involutive(spec) == ok
    assert (ref_generator_involution_failure(spec) is None) == ok
    assert spec.to_linear() == ref_matrix(spec)
    for target in targets:
        matrix = ref_matrix(target)
        for conj in conjugators:
            assert (_verify_intertwiner(spec, target, conj)
                    == ref_verify_intertwiner(spec, matrix, conj))


def nudged(d, k):
    """A copy of a pair with coordinate k (ring first) moved by one."""
    field = d.alg.field
    vals = list(coords(d))
    vals[k] = field.add(vals[k], field.one)
    return d_from_coords(d.alg, vals)


def morphisms_of(alg, rng):
    """For every poset automorphism and anti-automorphism, the plain
    relabel and one with a random unit and a cocycle sigma = eta(x)/eta(y)
    that is not identically one."""
    field = alg.field
    poset = alg.poset
    out = []
    for alpha in poset.automorphisms() + poset.anti_automorphisms():
        out.append(FiaMorphism.induced(alg, alpha))
        sigma = {}
        while all(v == field.one for v in sigma.values()):
            eta = {x: field.random_nonzero(rng) for x in poset.elements}
            sigma = {(x, y): field.div(eta[x], eta[y])
                     for x, y in poset.strict_pairs}
        out.append(FiaMorphism(alg, u=alg.random_unit(rng), sigma=sigma,
                               posetmap=alpha))
    return out


@pytest.mark.parametrize("name, field", CONTEXTS)
def test_closed_forms_match_reference(name, field):
    alg = IncidenceAlgebra(POSETS[name], field)
    rng = random.Random(f"closed:{name}:{field!r}")
    specs = [s for group in involutions_of(alg) for s in group]
    for spec in specs:
        u = small_unit(alg, rng)
        near = u + DElem(alg.e(*alg.poset.strict_pairs[0]), alg.zero())
        flipped = field.neg(spec.k)
        others = [s for s in specs if s.lam != spec.lam]
        targets = [spec, inner_conjugate(spec, u),
                   inner_conjugate(spec, u, k=flipped)]
        targets += [inner_conjugate(spec, u, lam=o.lam) for o in others[:1]]
        same_closed_forms(spec, (d_one(alg), u, near), targets)
        # a unit that is not symmetric up to the centre
        other = InvolutionSpec(alg, small_unit(alg, rng), spec.lam, spec.k,
                               _validated=True)
        same_closed_forms(other, (d_one(alg), u), (spec,))
    for m in morphisms_of(alg, rng):
        assert m.to_linear() == ref_matrix(m)
    tau = {}
    while all(v == field.zero for v in tau.values()):
        tau = _random_cocycle(alg, rng)
    for d in (DerivationSpec(alg, inner=alg.random(rng), tau=tau),
              DerivationSpec(alg, tau=tau),
              DerivationSpec(alg, inner=alg.random(rng))):
        assert d.to_linear() == ref_matrix(d)


@pytest.mark.parametrize("field", FIELDS, ids=("F3", "F5", "Q"))
@pytest.mark.parametrize("name", ("chain3", "diamond"))
def test_every_theta_perturbation_matches_reference(name, field):
    """Every one-entry change of every representative's theta: the square
    test, the matrix and the intertwiner from the representative agree
    with the references, and a change that kills a diagonal entry is
    refused as a non-unit."""
    alg = IncidenceAlgebra(POSETS[name], field)
    for spec in (s for group in involutions_of(alg) for s in group):
        for k in range(2 * alg.npairs):
            theta = nudged(spec.theta, k)
            if not theta.is_unit():
                assert (outcome(InvolutionSpec, alg, theta, spec.lam, spec.k)
                        == ("raise", NotAUnit))
                continue
            moved = InvolutionSpec(alg, theta, spec.lam, spec.k,
                                   _validated=True)
            same_closed_forms(moved, (d_one(alg),), ())
            assert (_verify_intertwiner(spec, moved, d_one(alg))
                    == ref_verify_intertwiner(spec, ref_matrix(moved),
                                              d_one(alg)))


@st.composite
def drawn_specs(draw):
    """An unvalidated spec on chain3 or the diamond over F3, F5 or Q and a
    unit: theta is either drawn entry by entry, or an inner conjugate of a
    genuine involution's theta with up to two coordinates moved by one."""
    name = draw(st.sampled_from(("chain3", "diamond")))
    field_index = draw(st.sampled_from(range(len(FIELDS))))
    field = FIELDS[field_index]
    alg = IncidenceAlgebra(POSETS[name], field)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    u = small_unit(alg, rng)
    if draw(st.booleans()):
        entry = st.integers(-2, 2).map(field)
        unit = st.sampled_from((1, -1, 2)).map(field)
        f = {(x, y): draw(unit if x == y else entry) for x, y in alg.pairs}
        i = {p: draw(entry) for p in alg.pairs}
        theta = DElem(alg.element(f), alg.element(i))
        lam = draw(st.sampled_from(alg.poset.involutions()))
        k = draw(st.sampled_from((1, -1)))
    else:
        genuine = draw(st.sampled_from(_genuine(name, field_index)))
        theta = u * genuine.theta * genuine.base_apply(u)
        for _ in range(draw(st.integers(0, 2))):
            theta = nudged(theta, draw(st.integers(0, 2 * alg.npairs - 1)))
        lam, k = genuine.lam, genuine.k
    assume(theta.is_unit())
    return InvolutionSpec(alg, theta, lam, k, _validated=True), u


@settings(max_examples=60, deadline=None)
@given(drawn_specs())
def test_closed_forms_match_reference_on_drawn_units(drawn):
    spec, u = drawn
    alg = spec.alg
    near = u + DElem(alg.zero(), alg.e(*alg.pairs[-1]))
    same_closed_forms(spec, (d_one(alg), u, near),
                      (spec, inner_conjugate(spec, u)))
    assert _verify_intertwiner(spec, inner_conjugate(spec, u), u)


# -- the invariant -------------------------------------------------------------


# the conftest fixtures that carry an involution (the vee and the wedge
# are each other's duals, and have none)
INVARIANT_FIXTURES = ["chain2", "chain3", "diamond", "fence", "crown",
                      "two_chains", "wide_diamond"]


def invariant_outcome(read, spec):
    """The invariant's JSON and chi key, or the exception type and message."""
    try:
        inv = read(spec)
    except IncalgError as exc:
        return type(exc), str(exc)
    return inv.to_json(), inv.key()


def invariant_specs(alg, lam, k, rng):
    """Specs inducing lam with sign k, built without the classification
    gate (which refuses disconnected posets): diagonal units with drawn
    values at the fixed points, or the sign-split unit without fixed
    points; an inner conjugate and a central multiple [+-1; t] of each;
    and an unvalidated unit that is not symmetric up to the centre."""
    field = alg.field
    fixed = lam.fixed_points()
    units = [d_one(alg)]
    if fixed:
        units.append(DElem(alg.diagonal(
            {x: field.random_nonzero(rng) if x in fixed else field.one
             for x in alg.poset.elements}), alg.zero()))
    elif alg.poset.is_connected():
        side = lambda_decomposition(alg.poset, lam).side
        units.append(DElem(alg.diagonal(
            {x: field(-side(x)) for x in alg.poset.elements}), alg.zero()))
    specs = []
    for theta in units:
        u = small_unit(alg, rng)
        c = central_pair(alg, rng.choice((1, -1)), field.random_nonzero(rng))
        spec = InvolutionSpec(alg, theta, lam, k)
        specs += [spec, InvolutionSpec(alg, u * theta * spec.base_apply(u),
                                       lam, k),
                  InvolutionSpec(alg, c * theta, lam, k)]
    specs.append(InvolutionSpec(alg, small_unit(alg, rng), lam, k,
                                _validated=True))
    return specs


@pytest.mark.parametrize("field", FIELDS, ids=("F3", "F5", "Q"))
@pytest.mark.parametrize("name", INVARIANT_FIXTURES)
def test_invariant_matches_reference(request, name, field):
    """``invariant`` reads k0 off the central ratio and chi off theta's
    own ring diagonal; the reference built the symmetric form and read
    both off it.  Same JSON, same key, same refusal, for both signs."""
    poset = request.getfixturevalue(name)
    alg = IncidenceAlgebra(poset, field)
    rng = random.Random(f"invariant:{name}:{field!r}")
    lams = poset.involutions()
    assert lams
    for lam in lams:
        for k in (1, -1):
            for spec in invariant_specs(alg, lam, k, rng):
                assert (invariant_outcome(InvolutionSpec.invariant, spec)
                        == invariant_outcome(ref_invariant, spec))


# -- negative controls ---------------------------------------------------------


def _one_involution(poset, field):
    alg = IncidenceAlgebra(poset, field)
    lam = poset.involutions()[0]
    spec = classify(poset, lam, field).representatives[-1]
    rng = random.Random(7)
    return alg, conjugated(spec.to_linear(), small_unit(alg, rng))


def _rejects_perturbation(raw, i, j):
    bad = perturbed(raw, i, j)
    with pytest.raises(NotAnInvolution):
        ref_validate_ring_involution(bad)
    # column i, row j lies in the bimodule-to-ring block
    upper = i >= raw.alg.npairs > j
    with pytest.raises(UpperRightNonzero if upper else NotAnInvolution):
        recognize(bad)


def test_every_perturbation_rejected_chain3():
    alg, raw = _one_involution(chain(3), F3)
    ref_validate_ring_involution(raw)
    assert recognize(raw).to_linear() == raw
    n = len(raw.cols)
    for i in range(n):
        for j in range(n):
            _rejects_perturbation(raw, i, j)


def test_sampled_perturbations_rejected_diamond():
    alg, raw = _one_involution(DIAMOND, F5)
    ref_validate_ring_involution(raw)
    assert recognize(raw).to_linear() == raw
    rng = random.Random(11)
    n = len(raw.cols)
    for _ in range(40):
        _rejects_perturbation(raw, rng.randrange(n), rng.randrange(n))


def test_order_four_relabel_rejected():
    # 0, 1 < 2 < 3, 4 has the anti-automorphism 0 -> 3 -> 1 -> 4 -> 0; its
    # lift is a ring anti-automorphism that every factoring step accepts,
    # but the poset map it induces is not an involution
    poset = Poset.from_covers(["0", "1", "2", "3", "4"],
                              [("0", "2"), ("1", "2"), ("2", "3"), ("2", "4")])
    alg = IncidenceAlgebra(poset, F5)
    alpha = PosetMap(poset, poset, {"0": "3", "3": "1", "1": "4", "4": "0",
                                    "2": "2"}, anti=True)
    raw = lift_morphism(FiaMorphism.induced(alg, alpha))
    for m in (raw, conjugated(raw, small_unit(alg, random.Random(23)))):
        with pytest.raises(NotAnInvolution, match="poset map is not an"):
            recognize(m)
        same_verdict_as_reference(m)


def test_perturbed_automorphism_fails_decompose():
    # decompose reads the relabel off raw's columns, so besides an inner
    # automorphism of the diamond (trivial relabel) it sees one whose
    # relabel has order three and so differs from its inverse
    rng = random.Random(13)
    rotate = PosetMap(WIDE_DIAMOND, WIDE_DIAMOND,
                      {"0": "0", "a": "b", "b": "c", "c": "a", "1": "1"}, False)
    for poset, relabel in ((DIAMOND, None), (WIDE_DIAMOND, rotate)):
        alg = IncidenceAlgebra(poset, F5)
        raw = FiaMorphism(alg, u=alg.random_unit(rng),
                          posetmap=relabel).to_linear()
        same_outcome(decompose, ref_decompose, raw,
                     compare=to_json)
        for c, (x, y) in enumerate(alg.pairs):
            for r in range(alg.npairs):
                bad = perturbed(raw, c, r)
                # a diagonal column moves the image of the unity
                expected = NotUnital if x == y else NotAMorphism
                with pytest.raises(expected):
                    decompose(bad)
                with pytest.raises(expected):
                    ref_decompose(bad)


def test_decompose_matches_reference_on_unity_preserving_edits():
    # moving one entry between two diagonal columns keeps the unity fixed;
    # the factoring steps never read some of those entries, so a few edits
    # are caught only by the final recomposition check, and a few give an
    # automorphism again
    alg = IncidenceAlgebra(DIAMOND, F5)
    rng = random.Random(29)
    raw = FiaMorphism.inner(alg, alg.random_unit(rng)).to_linear()
    diag = [k for k, (x, y) in enumerate(alg.pairs) if x == y]
    for c1, c2 in itertools.permutations(diag, 2):
        for r in range(alg.npairs):
            cols = [list(c) for c in raw.cols]
            cols[c1][r] = alg.field.add(cols[c1][r], 1)
            cols[c2][r] = alg.field.sub(cols[c2][r], 1)
            same_outcome(decompose, ref_decompose, FiLinearMap(alg, cols),
                         compare=to_json)


# chain3 has a chain through every strict pair; in the crown and the two
# components (height one) no strict pair lies on a chain
LEIBNIZ_POSETS = {
    "chain3": chain(3),
    "crown": Poset.from_covers(["a", "b", "c", "d"], [("a", "c"), ("a", "d"),
                                                      ("b", "c"), ("b", "d")]),
    **EDGE,
}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: getattr(f, "name", "Q"))
@pytest.mark.parametrize("name", sorted(LEIBNIZ_POSETS))
def test_perturbed_derivation_fails_leibniz(name, field):
    """A derivation moved by one in one matrix entry is a derivation exactly
    when the entry is the diagonal one of a strict pair that lies on no
    chain x < z < y: the moved map adds the additive cocycle that is one on
    that pair alone.  ``leibniz_check`` (the split's certificate) must say
    so, with the exhaustive references."""
    alg = IncidenceAlgebra(LEIBNIZ_POSETS[name], field)
    rng = random.Random(17)
    d = DerivationSpec(alg, inner=alg.random(rng),
                       tau=_random_cocycle(alg, rng)).to_linear()
    assert leibniz_check(alg, d) and ref_leibniz_check(alg, d)
    split = split_raw_derivation(d)
    if alg.poset.strict_pairs:
        assert split.inner != alg.zero()  # else the read entries go unseen
    same_outcome(split_raw_derivation, ref_split_raw_derivation, d,
                 compare=lambda s: (s.inner, sorted(s.tau.items())))
    on_chains = {p for x, z, y in alg.poset.chains
                 for p in ((x, z), (z, y), (x, y))}
    lone = set(alg.poset.strict_pairs) - on_chains
    for c in range(alg.npairs):
        for r in range(alg.npairs):
            bad = perturbed(d, c, r)
            expected = c == r and alg.pairs[c] in lone
            assert leibniz_check(alg, bad) == expected
            assert ref_leibniz_check(alg, bad) == expected
            same_outcome(split_raw_derivation, ref_split_raw_derivation, bad)


def test_non_symmetric_theta_not_involutive():
    alg = IncidenceAlgebra(DIAMOND, F5)
    lam = DIAMOND.involutions()[0]
    # [1 + e_0a; 0] is not symmetric: the relabel moves e_0a to e_(lam a)1
    theta = DElem(alg.delta() + alg.e("0", "a"), alg.zero())
    with pytest.raises(NotInvolutive):
        build(alg, theta, lam, 1)
    spec = InvolutionSpec(alg, theta, lam, 1, _validated=True)
    assert ref_find_involution_failure(spec) is not None


def test_wrong_conjugator_fails_intertwiner():
    alg = IncidenceAlgebra(DIAMOND, F5)
    lam = next(m for m in DIAMOND.involutions() if m("a") == "b")
    rng = random.Random(19)
    s1 = classify(DIAMOND, lam, F5).representatives[0]
    u = small_unit(alg, rng)
    s2 = build(alg, u * s1.theta * s1.base_apply(u), lam, s1.k)
    verdict = equivalent_inner(s1, s2)
    assert verdict.equivalent
    assert _verify_intertwiner(s1, s2, verdict.conjugator)
    wrong = verdict.conjugator + DElem(alg.e("0", "a"), alg.zero())
    assert not _verify_intertwiner(s1, s2, wrong)
    assert not ref_verify_intertwiner(s1, ref_matrix(s2), wrong)
    assert not _verify_intertwiner(s1, s2, d_one(alg))
    assert not ref_verify_intertwiner(s1, ref_matrix(s2), d_one(alg))


# -- the generator lemma -------------------------------------------------------


def _ladder():
    path = Path(__file__).resolve().parents[1] / "bench" / "shared.py"
    spec = importlib.util.spec_from_file_location("bench_shared", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LADDER


LADDER = _ladder()


def product_closure(gens):
    """Everything reachable from the generators by left multiplication by a
    generator: every product of generators."""
    zero = DElem(gens[0].f.alg.zero(), gens[0].f.alg.zero())
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for g in gens:
            for a in frontier:
                p = g * a
                if p != zero and p not in reached:
                    reached.add(p)
                    new.append(p)
        frontier = new
    return reached


@pytest.mark.parametrize("name", sorted(LADDER))
def test_generators_reach_every_basis_element(name):
    elements, covers = LADDER[name]
    poset = Poset.from_covers(elements, covers)
    alg = IncidenceAlgebra(poset, F3)
    gens = ref_d_generators(alg)
    assert len(gens) == 2 * len(elements) + len(poset.covers)
    assert set(d_basis(alg)) <= product_closure(gens)
    # dropping a cover loses its basis element: covers are indecomposable
    dropped = DElem(alg.e(*poset.covers[0]), alg.zero())
    short = [g for g in gens if g != dropped]
    assert dropped not in product_closure(short)
