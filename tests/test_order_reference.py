"""``Poset`` against the construction it replaced.

``Poset`` holds its order once, as one up-set and one down-set bitset per
element, and reads every table off them; ``from_covers`` closes the cover
bitsets by a Warshall pass whose step k visits only the points below and
above k.  The reference below is the earlier construction, kept verbatim:
boolean relation rows, their boolean Warshall closure, the ``_between``
table and the pairwise cycle check.  Both must agree on every fixture and
on drawn relations, cyclic ones included: the same tables and the same
CycleDetected message.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from incalg.errors import CycleDetected, NotComparable
from incalg.posets import Poset

FIXTURES = ["chain2", "chain3", "diamond", "vee", "wedge", "fence", "crown",
            "two_chains", "wide_diamond"]


# -- reference ----------------------------------------------------------------


class RefPoset:
    """The row-based construction, verbatim apart from the parts that do
    not read the order (label checks, JSON, symmetries)."""

    def __init__(self, elements, leq_rows):
        self.elements = tuple(elements)
        self.n = len(self.elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.leq_rows = tuple(tuple(row) for row in leq_rows)
        for i in range(self.n):
            for j in range(self.n):
                if self.leq_rows[i][j] and self.leq_rows[j][i] and i != j:
                    raise CycleDetected(
                        f"{self.elements[i]} and {self.elements[j]} are in a cycle")
        self.pairs = tuple(
            (self.elements[i], self.elements[j])
            for i in range(self.n) for j in range(self.n) if self.leq_rows[i][j])
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        self.strict_pairs = tuple((x, y) for x, y in self.pairs if x != y)
        self._between = {}
        for x, y in self.pairs:
            i, j = self.index[x], self.index[y]
            self._between[(x, y)] = tuple(
                self.elements[k] for k in range(self.n)
                if self.leq_rows[i][k] and self.leq_rows[k][j])
        self.covers = tuple(
            (x, y) for x, y in self.strict_pairs if len(self._between[(x, y)]) == 2)
        self.chains = tuple(
            (x, z, y) for x, y in self.strict_pairs
            for z in self._between[(x, y)] if z != x and z != y)

    @classmethod
    def from_covers(cls, elements, cover_pairs):
        return cls(elements, ref_closure(elements, cover_pairs))

    def leq(self, x, y):
        return self.leq_rows[self.index[x]][self.index[y]]

    def comparable(self, x, y):
        return self.leq(x, y) or self.leq(y, x)

    def between(self, x, y):
        try:
            return self._between[(x, y)]
        except KeyError:
            raise NotComparable(f"{x!r} is not below {y!r}") from None

    def down(self, x):
        return tuple(y for y in self.elements if self.leq(y, x))

    def up(self, x):
        return tuple(y for y in self.elements if self.leq(x, y))

    def components(self):
        placed, comps = set(), []
        for root in self.elements:
            if root in placed:
                continue
            placed.add(root)
            comps.append([root])
            stack = [root]
            while stack:
                v = stack.pop()
                for w in self.elements:
                    if w not in placed and self.comparable(v, w):
                        placed.add(w)
                        comps[-1].append(w)
                        stack.append(w)
        return tuple(tuple(sorted(comp, key=self.index.get)) for comp in comps)

    def all_comparable_elements(self):
        return {x for x in self.elements
                if all(self.comparable(x, y) for y in self.elements)}


def ref_closure(elements, cover_pairs):
    """The boolean Warshall closure of the relation, as rows."""
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for x, y in cover_pairs:
        leq[index[x]][index[y]] = True
    for k in range(n):  # Warshall closure
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def bitsets(rows):
    """Relation rows packed into up-set bitsets."""
    return [sum(1 << j for j, bit in enumerate(row) if bit) for row in rows]


# -- comparison ---------------------------------------------------------------


def outcome(build):
    """The built poset, or the CycleDetected message."""
    try:
        return build()
    except CycleDetected as exc:
        return str(exc)


def assert_same_order(new, ref):
    if isinstance(ref, str):
        assert new == ref
        return
    assert not isinstance(new, str), new
    assert new.elements == ref.elements
    for name in ("pairs", "pair_index", "strict_pairs", "covers", "chains"):
        assert getattr(new, name) == getattr(ref, name), name
    for x, y in itertools.product(ref.elements, repeat=2):
        assert new.leq(x, y) is bool(ref.leq(x, y))
        assert new.comparable(x, y) is bool(ref.comparable(x, y))
        if ref.leq(x, y):
            assert new.between(x, y) == ref.between(x, y)
        else:
            with pytest.raises(NotComparable) as info:
                new.between(x, y)
            assert str(info.value) == f"{x!r} is not below {y!r}"
    for x in ref.elements:
        assert new.down(x) == ref.down(x) and new.up(x) == ref.up(x)
    assert new.all_comparable_elements() == ref.all_comparable_elements()
    assert new.components() == ref.components()


def check(elements, relation):
    """From the relation's pairs, and from its closure given directly."""
    ref = outcome(lambda: RefPoset.from_covers(elements, relation))
    assert_same_order(outcome(lambda: Poset.from_covers(elements, relation)), ref)
    rows = ref_closure(elements, relation)
    assert_same_order(outcome(lambda: Poset(elements, bitsets(rows))),
                      outcome(lambda: RefPoset(elements, rows)))


@pytest.mark.parametrize("name", FIXTURES)
def test_order_matches_reference_on_fixtures(request, name):
    poset = request.getfixturevalue(name)
    check(poset.elements, poset.covers)
    check(poset.elements, poset.strict_pairs)


@st.composite
def relations(draw, max_size=7):
    """Labels in a drawn order and any set of pairs on them: loops, both
    directions of a pair and longer cycles included."""
    n = draw(st.integers(0, max_size))
    elements = [f"p{i}" for i in draw(st.permutations(range(n)))]
    pairs = list(itertools.product(elements, repeat=2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)
                  if pairs else st.just([]))
    return elements, chosen


@settings(max_examples=80, deadline=None)
@given(relations())
def test_order_matches_reference_on_drawn_relations(drawn):
    check(*drawn)


def test_cycle_message_names_the_first_pair_in_index_order():
    """d < b < c < d and a < e < a: the reference names (a, e) first, and
    both constructions must."""
    elements = ["a", "b", "c", "d", "e"]
    relation = [("d", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("e", "a")]
    check(elements, relation)
    with pytest.raises(CycleDetected, match="^a and e are in a cycle$"):
        Poset.from_covers(elements, relation)
