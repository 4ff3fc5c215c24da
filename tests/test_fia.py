import random
from fractions import Fraction

import pytest

from incalg.errors import ContextMismatch, NotAUnit, NotComparable, ParseError
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_basis_products_chain(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    e = alg.e
    assert e("a", "b") * e("a", "b") == alg.zero()
    assert e("a", "b") * e("b", "c") == e("a", "c")
    assert e("b", "c") * e("a", "b") == alg.zero()
    assert e("a", "a") * e("a", "b") == e("a", "b")
    assert e("a", "a") * e("b", "b") == alg.zero()


def test_delta_is_unity(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    rng = random.Random(0)
    d = alg.delta()
    assert sum((alg.e(x, x) for x in diamond.elements), alg.zero()) == d
    for _ in range(20):
        f = alg.random(rng)
        assert f * d == f and d * f == f


def test_all_ones_product_on_diamond(diamond):
    alg = IncidenceAlgebra(diamond, QQ)
    z = alg.zeta()
    assert (z * z)["0", "1"] == Fraction(4)  # one term per middle point plus ends


def test_zeta_inverse_is_mobius_on_diamond(diamond):
    alg = IncidenceAlgebra(diamond, QQ)
    mu = alg.mobius()
    assert mu["0", "a"] == mu["0", "b"] == mu["a", "1"] == mu["b", "1"] == Fraction(-1)
    assert mu["0", "1"] == Fraction(1)
    assert mu * alg.zeta() == alg.delta()
    assert alg.zeta() * mu == alg.delta()


def test_inverse_examples(chain2):
    alg = IncidenceAlgebra(chain2, QQ)
    d = alg.delta()
    assert d.inverse() == d
    n = alg.e("a", "b")
    assert (d + n).inverse() == d - n


def test_inverse_random(diamond, chain3):
    rng = random.Random(1)
    for poset in (diamond, chain3):
        for field in (F5, QQ):
            alg = IncidenceAlgebra(poset, field)
            for _ in range(25):
                f = alg.random_unit(rng)
                g = f.inverse()
                assert f * g == alg.delta()
                assert g * f == alg.delta()


def test_not_a_unit(chain2):
    alg = IncidenceAlgebra(chain2, F5)
    f = alg.element({("a", "a"): 0, ("b", "b"): 2, ("a", "b"): 1})
    assert not f.is_unit()
    with pytest.raises(NotAUnit) as err:
        f.inverse()
    assert err.value.args[1] == "a"


def test_ring_axioms_randomized(diamond):
    rng = random.Random(2)
    for field in (F5, QQ):
        alg = IncidenceAlgebra(diamond, field)
        for _ in range(50):
            f, g, h = (alg.random(rng) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h


def test_center_chain3_is_spanned_by_delta(chain3):
    alg = IncidenceAlgebra(chain3, F5)
    assert alg.center_basis() == [alg.delta()]
    assert alg.delta().is_central()
    assert not alg.e("a", "b").is_central()


def test_center_two_components(two_chains):
    alg = IncidenceAlgebra(two_chains, F5)
    basis = alg.center_basis()
    assert len(basis) == 2
    assert sum(basis[1:], basis[0]) == alg.delta()
    rng = random.Random(3)
    for b in basis:
        for _ in range(10):
            f = alg.random(rng)
            assert b * f == f * b


def test_center_diamond(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    assert alg.center_basis() == [alg.delta()]


def test_centrality_brute_force(chain2):
    # every element commuting with the whole algebra is a delta multiple
    alg = IncidenceAlgebra(chain2, F3)
    import itertools
    all_elems = [
        alg.element({("a", "a"): x, ("b", "b"): y, ("a", "b"): z})
        for x, y, z in itertools.product(range(3), repeat=3)]
    central = [f for f in all_elems
               if all(f * g == g * f for g in all_elems)]
    assert sorted(f.vals for f in central) == sorted(
        alg.delta().scale(k).vals for k in range(3))
    assert all(alg.is_central(f) for f in central)


def test_corner_subspace_is_one_dimensional(diamond):
    # e_x * f * e_y lands in the span of the single pair indicator
    alg = IncidenceAlgebra(diamond, F5)
    rng = random.Random(4)
    for x, y in diamond.pairs:
        for _ in range(5):
            f = alg.random(rng)
            g = alg.e(x, x) * f * alg.e(y, y)
            assert g == alg.e(x, y).scale(f[x, y])


def test_context_mismatch(chain2, chain3):
    a2 = IncidenceAlgebra(chain2, F5)
    a3 = IncidenceAlgebra(chain3, F5)
    aq = IncidenceAlgebra(chain2, QQ)
    with pytest.raises(ContextMismatch):
        a2.delta() * a3.delta()
    with pytest.raises(ContextMismatch):
        a2.delta() + aq.delta()


def test_element_and_json_round_trip(diamond):
    alg = IncidenceAlgebra(diamond, F5)
    f = alg.element({("0", "1"): 3, ("a", "a"): 2})
    assert alg.from_json(f.to_json()) == f
    with pytest.raises(NotComparable):
        alg.element({("a", "b"): 1})
    with pytest.raises(NotComparable):
        alg.e("1", "0")
    assert f["a", "b"] == 0  # incomparable reads as zero


@pytest.mark.parametrize("field", [F5, QQ])
def test_from_json_refuses_lists_and_repeated_bad_strings(diamond, field):
    """Entries share one parse per distinct string; a list value is still
    a ParseError, and so is a bad string met twice."""
    alg = IncidenceAlgebra(diamond, field)
    assert alg.from_json({"entries": {"0,1": "3", "a,a": "3", "0,a": "2"}}) \
        == alg.element({("0", "1"): 3, ("a", "a"): 3, ("0", "a"): 2})
    for entries in ({"0,1": "3", "a,a": ["3"]}, {"0,1": "y", "a,a": "y"}):
        with pytest.raises(ParseError, match="is not a string|^bad "):
            alg.from_json({"entries": entries})


# -- the centre read off index lists, against the component walk it replaced


def ref_components(poset):
    """Connected components of the comparability graph, in element order."""
    comps = []
    for v, w in poset.spanning_tree():
        if v is None:
            comps.append([])
        comps[-1].append(w)
    return [sorted(comp, key=poset.index.get) for comp in comps]


def ref_center_basis(alg):
    """One diagonal component-indicator per connected component."""
    out = []
    for comp in ref_components(alg.poset):
        out.append(alg.element({(x, x): alg.field.one for x in comp}))
    return out


def ref_is_central(alg, f):
    """Central means diagonal and constant on each component."""
    diag = tuple(k for k, (x, y) in enumerate(alg.pairs) if x == y)
    if any(f.vals[k] != alg.field.zero
           for k in range(alg.npairs) if k not in diag):
        return False
    for comp in ref_components(alg.poset):
        vals = {f[x, x] for x in comp}
        if len(vals) > 1:
            return False
    return True


CENTRE_POSETS = ("chain2", "chain3", "diamond", "vee", "wedge", "fence",
                 "crown", "two_chains", "wide_diamond")


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
@pytest.mark.parametrize("name", CENTRE_POSETS + ("antichain", "empty"))
def test_centre_matches_component_walk(request, name, field):
    """components(), center_basis and is_central agree with the walk on
    every fixture, disconnected ones included; components() is walked
    once and returns tuples, which a caller cannot mutate."""
    from incalg.posets import Poset
    poset = {"antichain": Poset.from_covers(["a", "b", "c"], []),
             "empty": Poset([], [])}.get(name) or request.getfixturevalue(name)
    assert [list(c) for c in poset.components()] == ref_components(poset)
    assert poset.components() is poset.components()
    assert isinstance(poset.components(), tuple)
    assert all(isinstance(c, tuple) for c in poset.components())
    alg = IncidenceAlgebra(poset, field)
    # built on first use, so a large algebra never used for this pays nothing
    assert "_centre" not in vars(alg) and "_inverse_plan" not in vars(alg)
    basis = alg.center_basis()
    assert basis == ref_center_basis(alg)
    rng = random.Random(f"centre:{name}")
    candidates = basis + [alg.zero(), alg.delta(), alg.zeta()]
    candidates += [alg.random(rng) for _ in range(4)]
    candidates += [alg.diagonal({x: field(rng.randrange(1, 3))
                                 for x in poset.elements}) for _ in range(4)]
    candidates += [sum((c.scale(field(k + 2)) for k, c in enumerate(basis)),
                       alg.zero())]
    candidates += [c + alg.e(x, y) for c in basis[:1]
                   for x, y in poset.strict_pairs[:2]]
    for f in candidates:
        assert f.is_central() == ref_is_central(alg, f)
    assert sum(f.is_central() for f in candidates) >= len(basis) + 2


def ref_rank_one_terms(alg):
    """The rank-one plan built from down- and up-lists gathered over the
    pairs, as ``IncidenceAlgebra`` did before it read ``Poset.down`` and
    ``Poset.up``."""
    down = {x: [] for x in alg.poset.elements}
    up = {x: [] for x in alg.poset.elements}
    for x, y in alg.pairs:
        down[y].append(x)
        up[x].append(y)
    index = alg.pair_index
    return tuple(
        tuple((index[(x, y)], index[(x, a)], index[(b, y)])
              for x in down[a] for y in up[b])
        for a, b in alg.pairs)


@pytest.mark.parametrize("name", CENTRE_POSETS)
def test_rank_one_terms_match_the_pair_lists(request, name):
    alg = IncidenceAlgebra(request.getfixturevalue(name), F3)
    assert alg.rank_one_terms == ref_rank_one_terms(alg)
