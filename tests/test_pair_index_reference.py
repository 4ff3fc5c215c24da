"""The factoring path on pair indices against the label-keyed code it
replaced.

``recognize`` reads its scalars off the stored form: ``_read_morphism``
gathers the conjugator g and the cocycle scaling sigma, ``_read_derivation``
the additive cocycle tau and the inner part, each cocycle is checked once
over the pair-index chain triples, the witnesses eta and -phi are solved
along the pair-index spanning tree (``morphisms._coboundary``), and
``symmetric_decompose`` writes gamma from the pair-index classes of
``InvolutionSpec._gamma_table``.  The ``ref_*`` routines below are the
label-keyed versions those replaced, kept verbatim, with two edits: the
column-entry read ``ColumnMap._entry``, gone from the library, is the local
``entry``; and the readers run the old chain loop (``ref_validate_cocycle``)
before the constructor that used to run it, so that no reference shares
the library's chain check.  On every fixture and on every connected poset of at most 5
points, over F3, F5 and Q, the stored-form results must equal them
exactly: the same g, sigma and induced map, the same tau and inner part,
the same eta and additive witness (in the same point order), the same
gamma, and on a rejected input the same exception type and message, with
the same offenders for NotASquare.

Time budget: about 3 s for the whole module on a 2-core x86-64 machine.
"""

import random

import pytest

from incalg.derivations import (
    DerivationSpec, _read_derivation, additive_is_inner,
    find_non_inner_additive,
)
from incalg.errors import (
    ContextMismatch, IncalgError, InvalidCocycle, NotADerivation,
    NotAMorphism, NotASquare, NotSymmetric, NotUnital, ParseError,
    WitnessFailed,
)
from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import DElem, central_pair
from incalg.involutions import base_involution, symmetric_decompose
from incalg.morphisms import (
    FiaMorphism, _coboundary, _read_morphism, find_non_inner_cocycle,
    multiplicative_is_inner, validate_cocycle,
)
from incalg.posets import PosetMap
from incalg.snf import check_hypotheses

from test_exact_checks_reference import involutions_of
from test_exhaustive_small_posets import as_poset, small_posets
from test_involutions import random_symmetric_theta

FIELDS = (PrimeField(3), PrimeField(5), QQ)
FIXTURES = ("chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond")


# -- reference: the label-keyed code, verbatim ---------------------------------


def entry(raw, j, t):
    """Entry t of column j of a column map, as a field element."""
    return raw.alg._values((raw.nums[j][t],), raw.dens[j])[0]


def ref_validate_cocycle(alg, values, combine, kind):
    field = alg.field
    for p in alg.poset.strict_pairs:
        if p not in values:
            raise InvalidCocycle(f"missing value at {p}")
    for p in values:
        if p not in alg.pair_index or p[0] == p[1]:
            raise InvalidCocycle(f"value at {p!r}, which is not a strict pair")
    full = {p: field(v) for p, v in values.items()}
    for x, z, y in alg.poset.chains:
        if combine(full[(x, z)], full[(z, y)]) != full[(x, y)]:
            raise InvalidCocycle(f"{kind} fails on {x},{z},{y}")
    return full


def ref_read_morphism(raw, anti):
    alg = raw.alg
    field = alg.field
    delta = alg.delta()
    if raw.apply(delta) != delta:
        raise NotUnital("map does not fix the unity")
    index, elements, points = alg.pair_index, alg.poset.elements, alg._diag
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
    g = IncFn(alg, tuple([entry(raw, perm[index[(x, x)]], index[(a, x)])
                          for a, x in alg.pairs]))
    sigma = {}
    for x, y in alg.poset.strict_pairs:
        val = entry(raw, perm[index[(x, y)]], index[(x, y)])
        if val == field.zero:
            raise NotAMorphism(f"residual map is not a cocycle scaling at {(x, y)}")
        sigma[(x, y)] = val
    try:
        ref_validate_cocycle(alg, sigma, field.mul, "chain identity")
        return FiaMorphism(alg, u=g, sigma=sigma, posetmap=mu)
    except InvalidCocycle as exc:
        raise NotAMorphism(f"residual scaling is not a cocycle: {exc}") from exc


def ref_read_derivation(raw):
    alg = raw.alg
    index = alg.pair_index
    tau = {p: entry(raw, index[p], index[p]) for p in alg.poset.strict_pairs}
    inner = alg.element({(x, y): entry(raw, index[(x, x)], index[(x, y)])
                         for x, y in alg.poset.strict_pairs})
    try:
        ref_validate_cocycle(alg, tau, alg.field.add, "additive chain identity")
        return DerivationSpec(alg, inner=inner, tau=tau)
    except InvalidCocycle as exc:
        raise NotADerivation(f"entry scaling is not a cocycle: {exc}") from exc


def ref_coboundary(poset, values, div, mul, one):
    phi = {}
    for v, w in poset.spanning_tree():
        if v is None:
            phi[w] = one
        elif poset.leq(v, w):
            phi[w] = div(phi[v], values[(v, w)])
        else:
            phi[w] = mul(values[(w, v)], phi[v])
    for x, y in poset.strict_pairs:
        if div(phi[x], phi[y]) != values[(x, y)]:
            return None
    return phi


def ref_symmetric_decompose(theta, base):
    alg = base.alg
    field = alg.field
    if theta.alg != alg:
        raise ContextMismatch("unit over a different context")
    if base.apply(theta) != theta:
        raise NotSymmetric("unit is not symmetric for the base involution")
    decomp = base.decomposition()
    f, i = theta.f, theta.i
    offenders = [x for x in decomp.fixed if not field.is_square(f[x, x])]
    if offenders:
        raise NotASquare(f"non-square ring diagonal at {offenders}", offenders)
    half = field.inv(field(2))
    side = decomp.side
    v_vals, j_vals = {}, {}
    for x, y in alg.pairs:
        sx, sy = side(x), side(y)
        if sx == -1 and sy == 1:
            v, j = field.mul(f[x, y], half), field.mul(i[x, y], half)
        elif sx == -1:
            v, j = field.one if x == y else field.zero, field.zero
        elif sy == 1:
            v, j = f[x, y], i[x, y]
        else:  # x == y in the fixed part
            v = field.sqrt(f[x, x])
            j = field.mul(i[x, x], field.inv(field.mul(field(2), v)))
        v_vals[(x, y)], j_vals[(x, y)] = v, j
    gamma = DElem(alg.element(v_vals), alg.element(j_vals))
    if gamma * base.apply(gamma) != theta:  # only a library defect gets here
        raise WitnessFailed("symmetric table does not factor the unit")
    return gamma


# -- comparison ----------------------------------------------------------------


def outcome(fn, *args, read=lambda value: value):
    """("ok", read(value)) or (exception type, message, further args)."""
    try:
        return "ok", read(fn(*args))
    except IncalgError as exc:
        return type(exc), str(exc), exc.args[1:]


def same(fn, ref, *args, read=lambda value: value):
    got = outcome(fn, *args, read=read)
    assert got == outcome(ref, *args, read=read), args
    return got


def morphism_data(m):
    return m.posetmap, m.u, m.sigma, list(m.sigma.items())


def derivation_data(d):
    return d.inner, d.tau, d._tau_scale


def perturbed(m, rng, count):
    """``count`` copies of a column map, each with one random entry moved
    by one."""
    field, n = m.alg.field, len(m.nums)
    out = []
    for _ in range(count):
        cols = [list(c) for c in m.cols]
        i, j = rng.randrange(n), rng.randrange(n)
        cols[i][j] = field.add(cols[i][j], field.one)
        out.append(type(m)(m.alg, cols))
    return out


def coboundaries(alg, rng, mult):
    """A random multiplicative (eta(x)/eta(y)) or additive (f(y) - f(x))
    coboundary on the strict pairs."""
    field = alg.field
    pot = {x: field.random_nonzero(rng) for x in alg.poset.elements}
    if mult:
        return {(x, y): field.div(pot[x], pot[y]) for x, y in alg.poset.strict_pairs}
    return {(x, y): field.sub(pot[y], pot[x]) for x, y in alg.poset.strict_pairs}


def cocycles(alg, rng, mult):
    """Two coboundaries, and (where the poset has one) a non-inner cocycle
    and its product (sum) with a coboundary."""
    field = alg.field
    combine = field.mul if mult else field.add
    out = [coboundaries(alg, rng, mult) for _ in range(2)]
    bad = find_non_inner_cocycle(alg) if mult else find_non_inner_additive(alg)
    if bad is not None:
        bad = {p: field(v) for p, v in bad.items()}
        shift = coboundaries(alg, rng, mult)
        out += [bad, {p: combine(v, shift[p]) for p, v in bad.items()}]
    return out


def check_context(alg, rng):
    """The readers on morphisms, derivations and their perturbations; the
    cocycle check on cocycles and on copies with one value moved; both
    witness solves on inner and non-inner cocycles."""
    poset, field = alg.poset, alg.field
    for mult, combine, kind in ((True, field.mul, "chain identity"),
                                (False, field.add, "additive chain identity")):
        for values in cocycles(alg, rng, mult):
            moved = [{**values, p: field.add(v, field.one)}
                     for p, v in list(values.items())[-2:]]
            for case in [values] + moved:
                same(validate_cocycle, ref_validate_cocycle, alg, case,
                     combine, kind)
    maps = poset.automorphisms()[:3] + poset.anti_automorphisms()[:3]
    for posetmap in maps:
        m = FiaMorphism(alg, u=alg.random_unit(rng),
                        sigma=coboundaries(alg, rng, True), posetmap=posetmap)
        raw = m.to_linear()
        assert same(_read_morphism, ref_read_morphism, raw, posetmap.anti,
                    read=morphism_data)[0] == "ok"
        for bad in perturbed(raw, rng, 4):
            same(_read_morphism, ref_read_morphism, bad, posetmap.anti,
                 read=morphism_data)
    for tau in cocycles(alg, rng, False):
        raw = DerivationSpec(alg, inner=alg.random(rng), tau=tau).to_linear()
        assert same(_read_derivation, ref_read_derivation, raw,
                    read=derivation_data)[0] == "ok"
        for bad in perturbed(raw, rng, 3):
            same(_read_derivation, ref_read_derivation, bad,
                 read=derivation_data)
    for sigma in cocycles(alg, rng, True):
        want = ref_coboundary(poset, sigma, field.div, field.mul, field.one)
        got = multiplicative_is_inner(alg, sigma)
        assert got == want and list((got or {}).items()) == list((want or {}).items())
        vals = [sigma.get(p) for p in alg.pairs]
        eta = _coboundary(alg, vals, False)
        assert (eta and IncFn(alg, eta)) == (want and alg.diagonal(want))
    for tau in cocycles(alg, rng, False):
        want = ref_coboundary(poset, tau, field.sub, field.add, field.zero)
        witness = want and alg.diagonal({x: field.neg(v) for x, v in want.items()})
        assert additive_is_inner(alg, tau) == witness
        phi = _coboundary(alg, [tau.get(p) for p in alg.pairs], True)
        assert (phi and -IncFn(alg, phi)) == witness


def check_gamma(alg, specs, rng):
    """gamma against the reference on symmetric units of every base, the
    representatives of one lambda (``involutions_of``) and its base
    involutions for both signs: gamma base(gamma) for a random unit gamma; that times a central
    scalar, a square or not; a symmetric unit for the base involution with
    a random ring diagonal at the fixed points (some of them non-squares);
    the symmetric form of each other base of the same sign over this
    base's unit; and a random unit, which is not symmetric."""
    field, lam = alg.field, specs[0].lam
    specs = specs + [base_involution(alg, lam, k) for k in (1, -1)]
    seen = set()
    for base in specs:
        unit = DElem(alg.random_unit(rng), alg.random(rng))
        theta = unit * base.apply(unit)
        thetas = [theta, DElem(alg.random_unit(rng), alg.random(rng))]
        thetas += [central_pair(alg, c, field.zero) * theta
                   for c in (field(2), field(4))]
        if base.theta == DElem(alg.delta(), alg.zero()):
            diag = {x: rng.choice((1, 2, 3, 4)) for x in lam.fixed_points()}
            thetas.append(random_symmetric_theta(alg, lam, base.k, rng, diag))
        thetas += [other.symmetric_form()[0] * base._theta_inv
                   for other in specs if other.k == base.k]
        for theta in thetas:
            if not theta.is_unit():
                continue
            got = same(symmetric_decompose, ref_symmetric_decompose, theta, base)
            seen.add(got[0])
    return seen


def connected_census():
    return [poset for n in range(1, 6) for rel in small_posets(n)
            for poset in [as_poset(n, rel)] if poset.is_connected()]


def check_poset(poset, field, rng):
    alg = IncidenceAlgebra(poset, field)
    check_context(alg, rng)
    seen = set()
    if poset.is_connected() and all(check_hypotheses(poset, field).values()):
        for specs in involutions_of(alg):
            seen |= check_gamma(alg, specs, rng)
    return seen


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_fixture_matches_label_reference(request, name, field):
    check_poset(request.getfixturevalue(name), field,
                random.Random(f"pairs:{name}:{field.name}"))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_connected_census_matches_label_reference(field):
    """Every connected poset of at most 5 points (59 of them, OEIS
    A000608): the readers and the witness solves, and gamma on every
    involution of every poset that passes the gate, with successes,
    NotASquare (with its offenders) and NotSymmetric all reached."""
    census = connected_census()
    assert len(census) == 59
    rng = random.Random(f"pairs:census:{field.name}")
    seen = set()
    for poset in census:
        seen |= check_poset(poset, field, rng)
    assert {"ok", NotASquare, NotSymmetric} <= seen
