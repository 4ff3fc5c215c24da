import itertools

import pytest

from incalg.errors import (
    CycleDetected, DuplicateLabel, NotComparable, ParseError, SizeLimit,
)
from incalg import posets
from incalg.fields import PrimeField
from incalg.idealization import d_anti_isomorphic
from incalg.involutions import _carriers, classify
from incalg.posets import Poset, PosetMap, identity_map, lambda_decomposition

from conftest import chain, is_identity, levels, suspension


def test_from_covers_chain2(chain2):
    assert chain2.leq("a", "b")
    assert not chain2.leq("b", "a")
    assert chain2.pairs == (("a", "a"), ("a", "b"), ("b", "b"))
    assert chain2.covers == (("a", "b"),)


def test_from_covers_diamond(diamond):
    assert diamond.leq("0", "1")
    assert not diamond.comparable("a", "b")
    assert diamond.between("0", "1") == ("0", "a", "b", "1")
    assert set(diamond.covers) == {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")}


def test_from_covers_fence(fence):
    assert fence.comparable("a", "c") and fence.comparable("b", "d")
    assert not fence.comparable("a", "b")
    assert not fence.comparable("a", "d")


def test_from_covers_transitive_reduction():
    # redundant relation (a, c) is closed over but not a cover
    p = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers == (("a", "b"), ("b", "c"))


def test_from_covers_errors():
    with pytest.raises(DuplicateLabel):
        Poset.from_covers(["a", "a"], [])
    with pytest.raises(CycleDetected):
        Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ParseError):
        Poset.from_covers(["a"], [("a", "z")])


@pytest.mark.parametrize("elements, ups, message", [
    (["a", "b"], [0b10, 0b00], "'a' is not below itself"),
    (["a", "b"], [0b01, 0b110], "the up-set of 'b' is not an int in [0, 2**2)"),
    (["a"], [-1], "the up-set of 'a' is not an int in [0, 2**1)"),
    (["a", "b"], [[True, True], [False, True]],
     "the up-set of 'a' is not an int in [0, 2**2)"),
    (["a", "b", "c"], [0b011, 0b110, 0b100],
     "'a' is below 'b' and 'b' below 'c', but 'a' is not below 'c'"),
    (["a", "b"], [0b11], "up-set count 1 differs from element count 2"),
])
def test_constructor_refuses_a_relation_that_is_not_an_order(elements, ups,
                                                             message):
    """A missing diagonal bit, a bit outside the elements (or no bitset at
    all) and a missing transitive pair are each refused, naming the point
    or the pair; none of them reaches the algebra."""
    with pytest.raises(ParseError) as info:
        Poset(elements, ups)
    assert str(info.value) == message


def test_constructor_takes_up_set_bitsets():
    p = Poset(["a", "b", "c"], [0b111, 0b110, 0b100])
    assert p == chain(3, ["a", "b", "c"])
    assert p.ups == (0b111, 0b110, 0b100) and p.downs == (0b001, 0b011, 0b111)
    assert p.leq("a", "c") is True and p.leq("c", "a") is False
    with pytest.raises(CycleDetected, match="^a and b are in a cycle$"):
        Poset(["a", "b"], [0b11, 0b11])


@pytest.mark.parametrize("label", ["x,y", " a", "a ", "\ta", "a\u3000"])
def test_label_that_would_not_read_back_is_refused(label):
    """Incidence-function JSON keys are "x,y", split at the comma and
    stripped: a label with a comma or surrounding whitespace (Unicode
    whitespace too) would read back as another label."""
    with pytest.raises(ParseError, match="comma or leading or trailing"):
        Poset.from_covers([label, "b"], [(label, "b")])
    with pytest.raises(ParseError):
        Poset.from_json({"elements": [label], "covers": []})
    assert Poset.from_covers(["a b", "\u200bc"], []).elements == ("a b", "\u200bc")


def test_json_and_line_formats(diamond):
    assert Poset.from_json(diamond.to_json()) == diamond
    for obj, message in (({"elements": ["a"]}, "poset has no 'covers'"),
                         (["a"], "poset ['a'] is not an object")):
        with pytest.raises(ParseError) as info:
            Poset.from_json(obj)
        assert str(info.value) == message
    p = Poset.from_lines("a<b\nb<c\n# comment\nz\n")
    assert p.leq("a", "c")
    assert p.elements == ("a", "b", "c", "z")
    assert not any(p.comparable("z", x) for x in "abc")


def test_connectivity(chain3, fence, two_chains):
    assert chain3.is_connected()
    assert chain3.all_comparable_elements() == {"a", "b", "c"}
    assert fence.is_connected()
    assert fence.all_comparable_elements() == set()
    assert not two_chains.is_connected()
    assert [set(c) for c in two_chains.components()] == [{"a", "b"}, {"c", "d"}]


def test_symmetries_chain2(chain2):
    autos = chain2.automorphisms()
    assert len(autos) == 1 and is_identity(autos[0])
    antis = chain2.anti_automorphisms()
    assert len(antis) == 1 and antis[0].mapping == {"a": "b", "b": "a"}
    invs = chain2.involutions()
    assert invs == antis


def test_symmetries_diamond(diamond):
    autos = diamond.automorphisms()
    assert len(autos) == 2  # identity and the a<->b swap
    invs = diamond.involutions()
    flip = {"0": "1", "1": "0", "a": "a", "b": "b"}
    assert flip in [m.mapping for m in invs]
    # flipping and also swapping the middles is an involution too
    flip_swap = {"0": "1", "1": "0", "a": "b", "b": "a"}
    assert flip_swap in [m.mapping for m in invs]
    assert len(invs) == 2


def test_symmetries_vee(vee):
    assert vee.anti_automorphisms() == []
    assert len(vee.automorphisms()) == 2


def test_anti_iso_between_vee_and_wedge(vee, wedge):
    maps = vee.maps_to(wedge, anti=True)
    assert maps
    assert not vee.maps_to(vee, anti=True)


def test_enumerated_maps_satisfy_order_equivalence(fence, crown, diamond):
    for p in (fence, crown, diamond):
        for m in p.automorphisms():
            for x, y in itertools.product(p.elements, repeat=2):
                assert p.leq(x, y) == p.leq(m(x), m(y))
        for m in p.anti_automorphisms():
            for x, y in itertools.product(p.elements, repeat=2):
                assert p.leq(x, y) == p.leq(m(y), m(x))


def test_composition_closure(diamond, fence):
    for p in (diamond, fence):
        autos = p.automorphisms()
        keyed = {tuple(sorted(m.mapping.items())) for m in autos}
        for m1, m2 in itertools.product(autos, repeat=2):
            assert tuple(sorted(m1.compose(m2).mapping.items())) in keyed
        for a1, a2 in itertools.product(p.anti_automorphisms(), repeat=2):
            comp = a1.compose(a2)
            assert not comp.anti
            assert tuple(sorted(comp.mapping.items())) in keyed


def test_pair_permutation_is_stored_per_map(diamond, fence):
    """A map builds its pair permutation once: a second call returns the
    same tuple.  The maps that ``inverse`` and ``compose`` return store
    their own, equal to those of the same maps built afresh."""
    for poset in (diamond, fence):
        for mu in poset.automorphisms() + poset.anti_automorphisms():
            perm = mu.pair_permutation()
            assert mu.pair_permutation() is perm
            inverse, square = mu.inverse(), mu.compose(mu)
            for other in (inverse, square):
                own = other.pair_permutation()
                assert other.pair_permutation() is own
                fresh = PosetMap(other.src, other.dst, other.mapping, other.anti)
                assert own == fresh.pair_permutation()
            assert [perm[t] for t in inverse.pair_permutation()] == \
                list(range(len(perm)))
            assert square.pair_permutation() == tuple(perm[t] for t in perm)


def test_poset_map_validation(chain2):
    with pytest.raises(ParseError):
        PosetMap(chain2, chain2, {"a": "a", "b": "b"}, anti=True)
    with pytest.raises(ParseError):
        PosetMap(chain2, chain2, {"a": "b", "b": "a"}, anti=False)
    ident = identity_map(chain2)
    assert is_identity(ident) and not ident.is_involution()
    # onto a smaller poset no map is a bijection, whatever it does to pairs
    point = Poset.from_covers(["p"], [])
    with pytest.raises(ParseError, match="^map must be a bijection onto the target$"):
        PosetMap(chain2, point, {"a": "p", "b": "p"}, anti=False)


def test_size_limit(monkeypatch):
    """Every symmetry search reads the one bound
    ``posets.SEARCH_SIZE_BOUND``: a 13-element chain is refused by each
    entry point, and accepted by each once the bound is 13."""
    big = chain(13)
    searches = {
        "maps_to": lambda: big.maps_to(big, anti=True),
        "automorphisms": big.automorphisms,
        "anti_automorphisms": big.anti_automorphisms,
        "involutions": big.involutions,
        "d_anti_isomorphic": lambda: d_anti_isomorphic(big, big, PrimeField(3)),
    }
    for search in searches.values():
        with pytest.raises(SizeLimit):
            search()
    monkeypatch.setattr(posets, "SEARCH_SIZE_BOUND", 13)
    found = {name: search() for name, search in searches.items()}
    assert len(found["maps_to"]) == 1
    assert len(found["automorphisms"]) == len(found["anti_automorphisms"]) == 1
    assert len(found["involutions"]) == 1
    lam, _ = found["d_anti_isomorphic"]
    assert lam == found["involutions"][0]


def counted_builds(monkeypatch):
    """A list that gains each ``PosetMap`` as it is built."""
    built = []
    init = PosetMap.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(PosetMap, "__init__", counting)
    return built


def test_involutions_build_only_the_maps_they_return(monkeypatch):
    """The involution rule prunes inside the search: susp7 builds its 232
    involutions and no other map, where listing its 5,040
    anti-automorphisms to filter them built 5,040."""
    poset = suspension(7)
    built = counted_builds(monkeypatch)
    found = poset.involutions()
    assert len(found) == len(built) == 232


def test_carriers_build_only_the_maps_they_return(monkeypatch):
    """The carrier rule prunes inside the search: on lvl444, for every
    pair of six of its 240 involutions (with 0, 2 or 4 fixed points), the
    carriers are the only maps built, where filtering the automorphisms
    built all 13,824.  The pairs have 0, 96, 192 or 576 carriers."""
    poset = levels(4, 4, 4)
    lams = poset.involutions()[::47]
    built = counted_builds(monkeypatch)
    sizes = set()
    for lam1, lam2 in itertools.product(lams, repeat=2):
        built.clear()
        carriers = _carriers(lam1, lam2)
        assert len(carriers) == len(built)
        sizes.add(len(carriers))
    assert sizes == {0, 96, 192, 576}


def test_d_anti_isomorphic_builds_only_the_map_it_returns(monkeypatch):
    """The search stops at the first anti-isomorphism: on susp8 it builds
    one ``PosetMap``, the first the full listing gives, where listing all
    40,320 to take the first built every one."""
    poset = suspension(8)
    first = poset.maps_to(poset, anti=True)[0]
    built = counted_builds(monkeypatch)
    lam, _ = d_anti_isomorphic(poset, poset, PrimeField(5))
    assert built == [lam] and lam == first


def test_classify_with_one_fixed_point_searches_no_maps(monkeypatch):
    """With one fixed point there is one chi key, so even ``--general``
    folds nothing and searches no centralizer: classify builds no
    ``PosetMap``."""
    poset = chain(3)
    swap = poset.involutions()[0]
    built = counted_builds(monkeypatch)
    result = classify(poset, swap, PrimeField(5), general=True)
    assert result.count == 2 and built == []


def test_general_classify_builds_at_most_one_map_per_key(monkeypatch):
    """The χ-fold asks a first-hit search per key and builds no list of
    the centralizer: over F5, susp8's involution fixing every a_i (128
    keys, 40,320 automorphisms commuting with it) and lvl444's first with
    four fixed points (8 keys, 576 of them) build at most one
    ``PosetMap`` per key, where listing the centralizer built all of it."""
    built = counted_builds(monkeypatch)
    for poset, nfixed, keys in ((suspension(8), 8, 128),
                                (levels(4, 4, 4), 4, 8)):
        lam = next(m for m in poset.involutions()
                   if len(m.fixed_points()) == nfixed)
        built.clear()
        classify(poset, lam, PrimeField(5), general=True)
        assert len(built) <= keys


def test_suspension_involutions_are_the_telephone_numbers():
    """An involution of suspM swaps 0 and 1 and acts on a1..aM as any
    involution of M points, so suspM has I(M) of them, with I(M) = I(M-1)
    + (M-1) I(M-2).  susp10 has 12 points, the search bound; its 9,496
    involutions took 0.15 s on a 2-core x86-64 machine, without listing
    its 10! anti-automorphisms first."""
    telephone = [1, 1]
    for m in range(2, 11):
        telephone.append(telephone[-1] + (m - 1) * telephone[-2])
    assert suspension(10).n == posets.SEARCH_SIZE_BOUND
    assert [len(suspension(m).involutions()) for m in range(1, 11)] == \
        telephone[1:]


def test_between_not_comparable(diamond):
    with pytest.raises(NotComparable):
        diamond.between("a", "b")


def test_lambda_decomposition_chain3(chain3):
    lam = chain3.involutions()[0]
    d = lambda_decomposition(chain3, lam)
    assert d.lower == ("a",) and d.upper == ("c",) and d.fixed == ("b",)


def test_lambda_decomposition_diamond(diamond):
    flip = next(m for m in diamond.involutions()
                if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})
    d = lambda_decomposition(diamond, flip)
    assert d.lower == ("0",) and d.upper == ("1",) and set(d.fixed) == {"a", "b"}


def test_lambda_decomposition_chain2(chain2):
    swap = chain2.involutions()[0]
    d = lambda_decomposition(chain2, swap)
    assert d.fixed == () and d.lower == ("a",) and d.upper == ("b",)


def test_lambda_decomposition_invariants(diamond, crown, fence, wide_diamond):
    for p in (diamond, crown, fence, wide_diamond):
        for lam in p.involutions():
            d = lambda_decomposition(p, lam)
            assert set(d.fixed) == set(lam.fixed_points())
            assert {lam(x) for x in d.lower} == set(d.upper)
            for x in d.lower:
                assert all(y in d.lower for y in p.down(x))
            for x in d.upper:
                assert all(y in d.upper for y in p.up(x))


def test_lambda_decomposition_is_kept_on_the_map(diamond, chain3):
    """The split is computed once per map and the stored object handed
    out again; a call naming another poset still refuses the map."""
    flip = next(m for m in diamond.involutions()
                if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})
    d = lambda_decomposition(diamond, flip)
    assert lambda_decomposition(diamond, flip) is d
    with pytest.raises(ParseError, match="requires an involution"):
        lambda_decomposition(chain3, flip)


def test_lambda_decomposition_respects_element_order():
    # same chain presented in reversed label order still splits validly
    p = Poset.from_covers(["b", "a"], [("a", "b")])
    lam = p.involutions()[0]
    d = lambda_decomposition(p, lam)
    assert d.lower == ("a",) and d.upper == ("b",)


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_symmetry_composition_properties(n, data):
    p = chain(n)
    maps = p.automorphisms() + p.anti_automorphisms()
    m1 = data.draw(st.sampled_from(maps))
    m2 = data.draw(st.sampled_from(maps))
    comp = m1.compose(m2)
    assert comp.anti == (m1.anti != m2.anti)
    for x in p.elements:
        assert comp(x) == m1(m2(x))
    inv = m1.inverse()
    assert is_identity(m1.compose(inv))


FIXTURES = ["chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond"]


@pytest.mark.parametrize("name", FIXTURES)
def test_spanning_tree_places_each_point_once_along_comparabilities(request, name):
    poset = request.getfixturevalue(name)
    edges = list(poset.spanning_tree())
    placed = [w for _, w in edges]
    assert sorted(placed, key=poset.index.get) == list(poset.elements)
    seen = set()
    for v, w in edges:
        if v is not None:
            assert v in seen and poset.comparable(v, w)
        seen.add(w)
    roots = [w for v, w in edges if v is None]
    assert roots == [comp[0] for comp in poset.components()]
    assert len(edges) - len(roots) == poset.n - len(poset.components())


@pytest.mark.parametrize("name", FIXTURES)
def test_chains_are_the_interior_points_of_each_interval(request, name):
    poset = request.getfixturevalue(name)
    assert len(poset.chains) == sum(
        len(poset.between(x, y)) - 2 for x, y in poset.strict_pairs)
    assert len(set(poset.chains)) == len(poset.chains)
    for x, z, y in poset.chains:
        assert len({x, z, y}) == 3 and poset.leq(x, z) and poset.leq(z, y)


def _carried_pair(m, x, y):
    return (m(y), m(x)) if m.anti else (m(x), m(y))


@pytest.mark.parametrize("case", ["auto", "anti", "two-posets"])
def test_pair_permutation_follows_the_map(diamond, chain3, vee, wedge, case):
    if case == "auto":
        m = PosetMap(diamond, diamond, {"0": "0", "a": "b", "b": "a", "1": "1"},
                     anti=False)
    elif case == "anti":
        m = PosetMap(chain3, chain3, {"a": "c", "b": "b", "c": "a"}, anti=True)
    else:
        m = PosetMap(vee, wedge, {"a": "c", "b": "a", "c": "b"}, anti=True)
    perm = m.pair_permutation()
    assert len(perm) == len(m.dst.pairs)
    for i, (x, y) in enumerate(m.src.pairs):
        assert perm[m.dst.pair_index[_carried_pair(m, x, y)]] == i
    assert sorted(perm) == list(range(len(m.src.pairs)))


def _small_posets(max_size):
    """The closure of every set of pairs rising along p0, p1, ... on up to
    ``max_size`` points, with the labels listed in that order and in
    reverse: every poset of that size, up to isomorphism, and more."""
    for n in range(1, max_size + 1):
        rising = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(rising)):
            rels = [(f"p{i}", f"p{j}") for (i, j), c in zip(rising, chosen) if c]
            labels = [f"p{i}" for i in range(n)]
            yield Poset.from_covers(labels, rels)
            yield Poset.from_covers(labels[::-1], rels)


def test_symmetry_search_matches_brute_force_on_small_posets():
    """The backtracking search lists exactly the order-preserving (or
    -reversing) permutations, in the order ``itertools.permutations``
    lists the images."""
    for p in _small_posets(4):
        for anti in (False, True):
            want = [dict(zip(p.elements, image))
                    for image in itertools.permutations(p.elements)
                    if all(p.leq(x, y) == p.leq(*((b, a) if anti else (a, b)))
                           for (x, a), (y, b) in itertools.product(
                               zip(p.elements, image), repeat=2))]
            assert [m.mapping for m in p.maps_to(p, anti)] == want


FIXTURES = ("chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond")


def test_found_maps_pass_the_public_constructor(request):
    """``maps_to`` builds its maps without the order check; each one it
    finds, on every small poset and between every two fixtures of one
    size, passes that check in the public constructor."""
    fixtures = [request.getfixturevalue(name) for name in FIXTURES]
    pairs = [(p, p) for p in _small_posets(4)]
    pairs += [(p, q) for p in fixtures for q in fixtures if p.n == q.n]
    for p, q in pairs:
        for anti in (False, True):
            for m in p.maps_to(q, anti):
                assert PosetMap(p, q, m.mapping, anti) == m


def test_decomposition_refuses_a_map_that_is_not_an_involution(chain2):
    with pytest.raises(ParseError, match="requires an involution"):
        lambda_decomposition(chain2, identity_map(chain2))


def test_maps_that_do_not_chain_do_not_compose(chain2, chain3):
    with pytest.raises(ParseError, match="^maps not composable$"):
        identity_map(chain2).compose(identity_map(chain3))


def test_constructor_refuses_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        Poset(["a", "a"], [0b01, 0b10])
