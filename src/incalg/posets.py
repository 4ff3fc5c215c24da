"""Finite posets, their order-preserving and order-reversing symmetries,
and the lower/upper/fixed split of the point set induced by an involution.

Element order is the user-supplied order; all interval-indexed data
downstream (incidence functions, morphism matrices) uses the lexicographic
(x, y) order over this element order.
"""

import json

from .errors import (
    CycleDetected, DuplicateLabel, NoDecomposition, NotComparable, ParseError,
    SizeLimit,
)

# Backtracking symmetry search is exhaustive; keep it to desk scale.
SEARCH_SIZE_BOUND = 12


class Poset:
    """An immutable finite poset.

    ``elements`` is the canonical ordered tuple of labels; ``leq[i][j]``
    says whether element i is below element j.  ``pairs`` lists all
    comparable ordered pairs (x, y), diagonal included, in lexicographic
    index order; this is the interval basis used by the algebra modules.
    """

    def __init__(self, elements, leq_rows):
        self.elements = tuple(elements)
        self.n = len(self.elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != self.n:
            raise DuplicateLabel("poset labels must be distinct")
        self.leq_rows = tuple(tuple(row) for row in leq_rows)
        # the dual order: an anti-isomorphism onto this poset is an
        # isomorphism onto its dual
        self.geq_rows = tuple(zip(*self.leq_rows))
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
        self._components = None  # built by components() on first use
        # every chain x < z < y, the triples the cocycle identities run over
        self.chains = tuple(
            (x, z, y) for x, y in self.strict_pairs
            for z in self._between[(x, y)] if z != x and z != y)

    @classmethod
    def from_covers(cls, elements, cover_pairs):
        """Build from labels and relation pairs; the order is the
        reflexive-transitive closure and must be acyclic.  A label must
        read back the same from an incidence-function JSON key "x,y", which
        is split at the comma and stripped: so it may hold no comma and no
        leading or trailing whitespace."""
        elements = list(elements)
        index = {}
        for x in elements:
            if x in index:
                raise DuplicateLabel(f"duplicate label {x!r}")
            label = str(x)
            if "," in label or label != label.strip():
                raise ParseError(f"label {x!r} contains a comma or leading "
                                 f"or trailing whitespace")
            index[x] = len(index)
        n = len(elements)
        leq = [[i == j for j in range(n)] for i in range(n)]
        for x, y in cover_pairs:
            if x not in index or y not in index:
                raise ParseError(f"relation ({x!r}, {y!r}) uses unknown labels")
            leq[index[x]][index[y]] = True
        for k in range(n):  # Warshall closure
            for i in range(n):
                if leq[i][k]:
                    row_i, row_k = leq[i], leq[k]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        return cls(elements, leq)

    @classmethod
    def from_json(cls, obj):
        """Build from {"elements": [label, ...], "covers": [[x, y], ...]},
        given as a dict or as its JSON text; labels are strings."""
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc)) from exc
            except RecursionError as exc:
                raise ParseError("poset JSON nested too deeply") from exc
        try:
            elements, covers = obj["elements"], obj["covers"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad poset object: {exc}") from exc
        if not isinstance(elements, (list, tuple)):
            raise ParseError(f"poset elements must be a list, not {elements!r}")
        for x in elements:
            if not isinstance(x, str):
                raise ParseError(f"poset label {x!r} is not a string")
        if not isinstance(covers, (list, tuple)):
            raise ParseError(f"poset covers must be a list, not {covers!r}")
        for c in covers:
            if not (isinstance(c, (list, tuple)) and len(c) == 2
                    and all(isinstance(x, str) for x in c)):
                raise ParseError(f"cover {c!r} is not a pair of labels")
        return cls.from_covers(elements, [tuple(c) for c in covers])

    @classmethod
    def from_lines(cls, text):
        """Parse the line format: one "a<b" relation per line; a bare label
        adds an isolated element.  A line with more than one "<" is a
        ParseError."""
        elements, seen, rels = [], set(), []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "<" in line:
                a, _, b = line.partition("<")
                a, b = a.strip(), b.strip()
                if not a or not b or "<" in b:
                    raise ParseError(f"bad relation line {raw!r}")
                rels.append((a, b))
                for x in (a, b):
                    if x not in seen:
                        seen.add(x)
                        elements.append(x)
            else:
                if line not in seen:
                    seen.add(line)
                    elements.append(line)
        return cls.from_covers(elements, rels)

    def to_json(self):
        return {"elements": list(self.elements),
                "covers": [list(c) for c in self.covers]}

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

    def spanning_tree(self):
        """Depth-first spanning forest of the comparability graph, taking
        roots and neighbours in element order: yields (None, root) when a
        component starts, then (v, w) as each w is reached from v."""
        placed = set()
        for root in self.elements:
            if root in placed:
                continue
            placed.add(root)
            yield None, root
            stack = [root]
            while stack:
                v = stack.pop()
                for w in self.elements:
                    if w not in placed and self.comparable(v, w):
                        placed.add(w)
                        yield v, w
                        stack.append(w)

    def components(self):
        """Connected components of the comparability graph, in element
        order, as a tuple of tuples; walked once per poset."""
        if self._components is None:
            comps = []
            for v, w in self.spanning_tree():
                if v is None:
                    comps.append([])
                comps[-1].append(w)
            self._components = tuple(
                tuple(sorted(comp, key=self.index.get)) for comp in comps)
        return self._components

    def is_connected(self):
        return len(self.components()) == 1

    def all_comparable_elements(self):
        """Elements comparable with every element of the poset."""
        return {x for x in self.elements
                if all(self.comparable(x, y) for y in self.elements)}

    # -- symmetry enumeration -------------------------------------------

    def maps_to(self, other, anti=False):
        """All order isomorphisms (anti=False) or anti-isomorphisms
        (anti=True) from this poset onto ``other``, by backtracking in
        element order; an anti-isomorphism is an isomorphism onto the dual
        of ``other``.  Either poset above ``SEARCH_SIZE_BOUND`` elements
        raises SizeLimit."""
        if max(self.n, other.n) > SEARCH_SIZE_BOUND:
            raise SizeLimit(f"symmetry search limited to {SEARCH_SIZE_BOUND} "
                            f"elements")
        if self.n != other.n:
            return []
        n, src = self.n, self.leq_rows
        dst = other.geq_rows if anti else other.leq_rows

        def degrees(rows):  # (down, up) degree of each element
            return [(sum(col), sum(row)) for row, col in zip(rows, zip(*rows))]

        src_deg, dst_deg = degrees(src), degrees(dst)
        out = []
        image = []  # image[i]: index in ``other`` of element i's image
        used = [False] * n

        def extend(k):
            if k == n:
                mapping = dict(zip(self.elements, (other.elements[j] for j in image)))
                out.append(PosetMap(self, other, mapping, anti))
                return
            row = src[k]
            for y in range(n):
                if used[y] or src_deg[k] != dst_deg[y]:
                    continue
                dst_row = dst[y]
                if all(src[x0][k] == dst[y0][y] and row[x0] == dst_row[y0]
                       for x0, y0 in enumerate(image)):
                    image.append(y)
                    used[y] = True
                    extend(k + 1)
                    image.pop()
                    used[y] = False

        extend(0)
        return out

    def automorphisms(self):
        return self.maps_to(self, False)

    def anti_automorphisms(self):
        return self.maps_to(self, True)

    def involutions(self):
        """Anti-automorphisms squaring to the identity."""
        return [m for m in self.anti_automorphisms() if m.is_involution()]

    def __eq__(self, other):
        return self is other or (isinstance(other, Poset)
                                 and self.elements == other.elements
                                 and self.leq_rows == other.leq_rows)

    def __hash__(self):
        return hash((self.elements, self.leq_rows))

    def __repr__(self):
        return f"Poset({list(self.elements)}, covers={list(self.covers)})"


class PosetMap:
    """A bijection between posets, order-preserving or order-reversing."""

    def __init__(self, src, dst, mapping, anti):
        self.src = src
        self.dst = dst
        self.mapping = dict(mapping)
        self.anti = bool(anti)
        if set(self.mapping) != set(src.elements):
            raise ParseError("map must be defined on every element")
        if set(self.mapping.values()) != set(dst.elements):
            raise ParseError("map must be a bijection onto the target")
        rows = dst.geq_rows if self.anti else dst.leq_rows
        image = [dst.index[self.mapping[x]] for x in src.elements]
        for i, x in enumerate(src.elements):
            image_row = rows[image[i]]
            for j, y in enumerate(src.elements):
                if src.leq_rows[i][j] != image_row[image[j]]:
                    kind = "anti-isomorphism" if self.anti else "isomorphism"
                    raise ParseError(f"not an order {kind}: fails at ({x!r}, {y!r})")

    @classmethod
    def from_json(cls, src, dst, obj, anti):
        """The map written as an object from label strings to label
        strings, the shape ``to_json`` writes; any other shape is a
        ParseError naming the value."""
        if not isinstance(obj, dict):
            raise ParseError(f"poset map {obj!r} is not an object")
        for label in (*obj, *obj.values()):
            if not isinstance(label, str):
                raise ParseError(f"poset map label {label!r} is not a string")
        return cls(src, dst, obj, anti)

    def __call__(self, x):
        return self.mapping[x]

    def inverse(self):
        return PosetMap(self.dst, self.src,
                        {v: k for k, v in self.mapping.items()}, self.anti)

    def compose(self, other):
        """self after other; anti flags multiply."""
        if other.dst != self.src:
            raise ParseError("maps not composable")
        return PosetMap(other.src, self.dst,
                        {x: self.mapping[other.mapping[x]] for x in other.src.elements},
                        self.anti != other.anti)

    def pair_permutation(self):
        """For each comparable pair of the target, in pair order, the index
        of the source pair this map carries onto it."""
        inv = {v: k for k, v in self.mapping.items()}
        index = self.src.pair_index
        if self.anti:
            return tuple(index[(inv[y], inv[x])] for x, y in self.dst.pairs)
        return tuple(index[(inv[x], inv[y])] for x, y in self.dst.pairs)

    def is_involution(self):
        return (self.anti and self.src == self.dst
                and all(self.mapping[self.mapping[x]] == x for x in self.src.elements))

    def fixed_points(self):
        return tuple(x for x in self.src.elements if self.mapping[x] == x)

    def to_json(self):
        return {str(k): str(v) for k, v in self.mapping.items()}

    def __eq__(self, other):
        return (isinstance(other, PosetMap) and self.src == other.src
                and self.dst == other.dst and self.anti == other.anti
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.src, self.dst, self.anti,
                     tuple(sorted(self.mapping.items(), key=repr))))

    def __repr__(self):
        kind = "anti" if self.anti else "auto"
        return f"PosetMap({self.mapping}, {kind})"


def identity_map(poset):
    return PosetMap(poset, poset, {x: x for x in poset.elements}, False)


class LambdaDecomposition:
    """Split of the point set under an involution: a down-closed part,
    its image (up-closed), and the fixed points."""

    def __init__(self, lower, upper, fixed):
        self.lower = tuple(lower)
        self.upper = tuple(upper)
        self.fixed = tuple(fixed)

    def side(self, x):
        if x in self.lower:
            return -1
        if x in self.upper:
            return 1
        return 0

    def __repr__(self):
        return (f"LambdaDecomposition(lower={list(self.lower)}, "
                f"upper={list(self.upper)}, fixed={list(self.fixed)})")


def lambda_decomposition(poset, lam):
    """Deterministic lower/upper/fixed split for a poset involution.

    Each two-point orbit {x, lam(x)} goes to (lower, upper) one way or the
    other; the lower part must be down-closed and the upper part up-closed.
    Orbits are decided in canonical element order, lower first, with
    constraint propagation.  Every constraint links two orbits (2-SAT), so
    a propagation that meets no conflict leaves a solvable rest whenever a
    split exists: no decision is ever revisited, and the split is the first
    valid assignment in that order.
    """
    if not (lam.anti and lam.src == poset and lam.is_involution()):
        raise ParseError("decomposition requires an involution on the poset")
    fixed = lam.fixed_points()
    side = {x: 0 for x in fixed}  # -1 lower, +1 upper, 0 fixed

    def place(x, s, trail):
        """Force x onto side s, propagating closure; append moves to trail."""
        cur = side.get(x)
        if cur is not None:
            return cur == s
        side[x] = s
        trail.append(x)
        if not place(lam(x), -s, trail):
            return False
        if s == -1:
            below = (y for y in poset.elements if poset.leq(y, x) and y != x)
            return all(place(y, -1, trail) for y in below)
        above = (y for y in poset.elements if poset.leq(x, y) and y != x)
        return all(place(y, 1, trail) for y in above)

    for x in poset.elements:
        if x in side:
            continue
        trail = []
        if not place(x, -1, trail):
            for moved in trail:
                del side[moved]
            if not place(x, 1, []):
                raise NoDecomposition("no down-closed/up-closed split exists")
    lower = [x for x in poset.elements if side[x] == -1]
    upper = [x for x in poset.elements if side[x] == 1]
    return LambdaDecomposition(lower, upper, fixed)
