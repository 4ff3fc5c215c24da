"""Finite posets, their order-preserving and order-reversing symmetries,
and the lower/upper/fixed split of the point set induced by an involution.

Element order is the user-supplied order; all interval-indexed data
downstream (incidence functions, morphism matrices) uses the lexicographic
(x, y) order over this element order.  The order is held once, as integer
bitsets: one up-set and one down-set per element.
"""

from .errors import (
    CycleDetected, DuplicateLabel, NotComparable, ParseError, SizeLimit,
)

# Backtracking symmetry search is exhaustive; keep it to desk scale.
SEARCH_SIZE_BOUND = 12


def _members(obj, what, *keys):
    """The values at ``keys`` of the parsed JSON object ``obj``; a value
    that is not an object, or a missing key, raises ParseError naming it."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} {obj!r} is not an object")
    for key in keys:
        if key not in obj:
            raise ParseError(f"{what} has no {key!r}")
    return [obj[key] for key in keys]


def _bits(mask):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """An immutable finite poset.

    ``elements`` is the canonical ordered tuple of labels; bit j of the
    ``int`` ``ups[i]`` says whether element i is below element j, and
    ``downs`` is the dual order.  ``ups`` must be reflexive and transitive
    (else ParseError) and antisymmetric (else CycleDetected).  ``pairs``
    lists all comparable ordered pairs (x, y), diagonal included, in
    lexicographic index order; this is the interval basis used by the
    algebra modules.
    """

    def __init__(self, elements, ups):
        self.elements = tuple(elements)
        self.n = n = len(self.elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != n:
            raise DuplicateLabel("poset labels must be distinct")
        self.ups = ups = tuple(ups)
        if len(ups) != n:
            raise ParseError(f"up-set count {len(ups)} differs from "
                             f"element count {n}")
        for x, up in zip(self.elements, ups):
            if not isinstance(up, int) or up < 0 or up >> n:
                raise ParseError(f"the up-set of {x!r} is not an int in "
                                 f"[0, 2**{n})")
        downs, pairs = [0] * n, []
        for i, (x, up) in enumerate(zip(self.elements, ups)):
            if not up >> i & 1:
                raise ParseError(f"{x!r} is not below itself")
            for j in _bits(up):
                if ups[j] | up != up:
                    y, z = self.elements[j], self.elements[
                        next(_bits(ups[j] & ~up))]
                    raise ParseError(f"{x!r} is below {y!r} and {y!r} below "
                                     f"{z!r}, but {x!r} is not below {z!r}")
                if j != i and ups[j] >> i & 1:
                    raise CycleDetected(
                        f"{x} and {self.elements[j]} are in a cycle")
                downs[j] |= 1 << i
                pairs.append((x, self.elements[j]))
        self.downs = tuple(downs)
        self.pairs = tuple(pairs)
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        self.strict_pairs = tuple((x, y) for x, y in self.pairs if x != y)
        self.covers = tuple((x, y) for x, y in self.strict_pairs
                            if len(self.between(x, y)) == 2)
        self._components = None  # built by components() on first use
        self._core = None  # built by core() on first use; False if it is self
        self._smith = None  # built by snf._smith_reading on first use
        # every chain x < z < y, the triples the cocycle identities run over
        self.chains = tuple(
            (x, z, y) for x, y in self.strict_pairs
            for z in self.between(x, y) if z != x and z != y)

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
        ups = [1 << i for i in range(n)]
        downs = ups[:]
        for x, y in cover_pairs:
            if x not in index or y not in index:
                raise ParseError(f"relation ({x!r}, {y!r}) uses unknown labels")
            ups[index[x]] |= 1 << index[y]
            downs[index[y]] |= 1 << index[x]
        # Warshall: step k joins every point below k to every point above k
        for k in range(n):
            up, down = ups[k], downs[k]
            for i in _bits(down):
                ups[i] |= up
            for j in _bits(up):
                downs[j] |= down
        return cls(elements, ups)

    @classmethod
    def from_json(cls, obj):
        """Build from the parsed JSON object {"elements": [label, ...],
        "covers": [[x, y], ...]}; labels are strings."""
        elements, covers = _members(obj, "poset", "elements", "covers")
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
        elements, rels = {}, []  # elements: labels in first-seen order
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
                elements.update(dict.fromkeys((a, b)))
            else:
                elements[line] = None
        return cls.from_covers(list(elements), rels)

    def to_json(self):
        return {"elements": list(self.elements),
                "covers": [list(c) for c in self.covers]}

    def leq(self, x, y):
        return (x, y) in self.pair_index

    def comparable(self, x, y):
        return self.leq(x, y) or self.leq(y, x)

    def between(self, x, y):
        if (x, y) not in self.pair_index:
            raise NotComparable(f"{x!r} is not below {y!r}")
        mask = self.ups[self.index[x]] & self.downs[self.index[y]]
        return tuple(self.elements[i] for i in _bits(mask))

    def down(self, x):
        return tuple(self.elements[i] for i in _bits(self.downs[self.index[x]]))

    def up(self, x):
        return tuple(self.elements[i] for i in _bits(self.ups[self.index[x]]))

    def spanning_tree(self):
        """Depth-first spanning forest of the comparability graph, taking
        roots and neighbours in element order: yields (None, root) when a
        component starts, then (v, w) as each w is reached from v."""
        elements, placed = self.elements, 0
        for root in range(self.n):
            if placed >> root & 1:
                continue
            placed |= 1 << root
            yield None, elements[root]
            stack = [root]
            while stack:
                v = stack.pop()
                fresh = (self.ups[v] | self.downs[v]) & ~placed
                placed |= fresh
                for w in _bits(fresh):
                    yield elements[v], elements[w]
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
        return {x for x, up, down in zip(self.elements, self.ups, self.downs)
                if up | down == (1 << self.n) - 1}

    def core(self):
        """The induced poset left when beat points are removed until none
        is left: points with exactly one upper cover, or exactly one lower
        cover, among the points still present (so the points above, or
        below, have a least, or greatest, element).  Each removal is a
        strong deformation retraction of the order complex (Stong, Trans.
        AMS 123, 1966; Barmak, LNM 2032), so its homology is unchanged.
        ``self`` when no point is a beat point.  Computed once per poset:
        every later call returns the same object."""
        if self._core is not None:
            return self._core or self
        kept = full = (1 << self.n) - 1
        stripped = True
        while stripped:
            stripped = False
            for i in _bits(kept):
                for order in (self.ups, self.downs):
                    strict = order[i] & kept & ~(1 << i)
                    if any(strict & ~order[j] == 0 for j in _bits(strict)):
                        kept &= ~(1 << i)
                        stripped = True
                        break
        if kept == full:
            self._core = False
            return self
        keep = list(_bits(kept))
        ups = [sum(1 << t for t, j in enumerate(keep) if self.ups[i] >> j & 1)
               for i in keep]
        self._core = Poset([self.elements[i] for i in keep], ups)
        return self._core

    # -- symmetry enumeration -------------------------------------------

    def maps_to(self, other, anti=False, _accept=None, _first=False):
        """All order isomorphisms (anti=False) or anti-isomorphisms
        (anti=True) from this poset onto ``other``, by backtracking in
        element order; an anti-isomorphism is an isomorphism onto the dual
        of ``other``.  Either poset above ``SEARCH_SIZE_BOUND`` elements
        raises SizeLimit.  A caller's rule ``_accept(k, j, image)`` can
        refuse to send point k to point j of ``other``, given ``image``,
        the bits of the images of points 0..k (the last is 1 << j).
        Pruning keeps the order of the maps still found: a rule that
        accepts every prefix of each map a caller wants, and refuses some
        prefix of every other map, gives the full list filtered, in the
        same order.  With ``_first`` the search stops at the first map it
        finds, so it returns that list's first entry, or none."""
        if max(self.n, other.n) > SEARCH_SIZE_BOUND:
            raise SizeLimit(f"symmetry search limited to {SEARCH_SIZE_BOUND} "
                            f"elements")
        if self.n != other.n:
            return []
        targets = [(y, 1 << y, u, d) for y, (u, d) in enumerate(
            zip(other.downs, other.ups) if anti else zip(other.ups, other.downs))]
        # per point k: earlier points above and below it; targets of equal degrees
        plan = [(list(_bits(u & (1 << k) - 1)), list(_bits(d & (1 << k) - 1)),
                 [t for t in targets if t[2].bit_count() == u.bit_count()
                  and t[3].bit_count() == d.bit_count()])
                for k, (u, d) in enumerate(zip(self.ups, self.downs))]
        out = []
        image = []  # image[i]: the bit of element i's image in ``other``

        def extend(k, used):  # ``used``: the images of the first k points
            if k == self.n:
                mapping = dict(zip(self.elements, (other.elements[b.bit_length() - 1]
                                                   for b in image)))
                out.append(PosetMap(self, other, mapping, anti, _validated=True))
                return
            above, below, candidates = plan[k]
            up = sum(image[i] for i in above)
            down = sum(image[i] for i in below)
            for j, bit, dst_up, dst_down in candidates:
                if not used & bit and dst_up & used == up and dst_down & used == down:
                    image.append(bit)
                    if _accept is None or _accept(k, j, image):
                        extend(k + 1, used | bit)
                    image.pop()
                    if _first and out:
                        return

        extend(0, 0)
        return out

    def automorphisms(self):
        return self.maps_to(self, False)

    def anti_automorphisms(self):
        return self.maps_to(self, True)

    def involutions(self):
        """Anti-automorphisms squaring to the identity, in the order
        ``anti_automorphisms`` lists them, found by the search itself:
        point k may go to a point j <= k only if j went to k (so j = k
        fixes k), and to a later point j only if no earlier point went
        to k.  The first test alone keeps only involutions, as a longer
        cycle fails at its largest point; the second prunes sooner."""
        return self.maps_to(self, True, _accept=lambda k, j, image: (
            image[j] == 1 << k if j <= k else 1 << k not in image))

    def __eq__(self, other):
        return self is other or (isinstance(other, Poset)
                                 and self.elements == other.elements
                                 and self.ups == other.ups)

    def __hash__(self):
        return hash((self.elements, self.ups))

    def __repr__(self):
        return f"Poset({list(self.elements)}, covers={list(self.covers)})"


class PosetMap:
    """A bijection between posets, order-preserving or order-reversing.
    The order is checked unless ``_validated``: ``Poset.maps_to`` has
    matched every pair of each map it finds."""

    def __init__(self, src, dst, mapping, anti, _validated=False):
        self.src = src
        self.dst = dst
        self.mapping = dict(mapping)
        self.anti = bool(anti)
        self._pair_perm = None  # built by pair_permutation() on first use
        self._split = None  # built by lambda_decomposition on first use
        if _validated:
            return
        if set(self.mapping) != set(src.elements):
            missing = [x for x in src.elements if x not in self.mapping]
            stray = [x for x in self.mapping if x not in src.index]
            raise ParseError(f"map must be defined on every element: missing {missing[0]!r}"
                             if missing else f"map label {stray[0]!r} is not an element")
        if set(self.mapping.values()) != set(dst.elements) or src.n != dst.n:
            raise ParseError("map must be a bijection onto the target")
        ups = dst.downs if self.anti else dst.ups
        bit = {x: 1 << dst.index[y] for x, y in self.mapping.items()}
        moved = dict.fromkeys(src.elements, 0)  # each up-set, moved
        for x, y in src.pairs:
            moved[x] |= bit[y]
        for x in src.elements:
            wrong = moved[x] ^ ups[dst.index[self.mapping[x]]]
            if wrong:
                y = next(y for y in src.elements if wrong & bit[y])
                kind = "anti-isomorphism" if self.anti else "isomorphism"
                raise ParseError(f"not an order {kind}: fails at ({x!r}, {y!r})")

    @classmethod
    def from_json(cls, src, dst, obj, anti):
        """The map written as an object from label strings to label
        strings, the shape ``to_json`` writes; any other shape is a
        ParseError naming the value."""
        _members(obj, "poset map")
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
        of the source pair this map carries onto it.  Computed once per
        map: every later call returns the same tuple."""
        if self._pair_perm is None:
            inv = {v: k for k, v in self.mapping.items()}
            self._pair_perm = tuple(self.src.pair_index[
                (inv[y], inv[x]) if self.anti else (inv[x], inv[y])]
                for x, y in self.dst.pairs)
        return self._pair_perm

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
    its image (up-closed), and the fixed points.  ``side`` is -1 on the
    lower part, 1 on the upper part and 0 elsewhere, read off one map."""

    def __init__(self, lower, upper, fixed):
        self.lower = tuple(lower)
        self.upper = tuple(upper)
        self.fixed = tuple(fixed)
        self._side = dict.fromkeys(self.lower, -1) | dict.fromkeys(self.upper, 1)

    def side(self, x):
        return self._side.get(x, 0)

    def __repr__(self):
        return (f"LambdaDecomposition(lower={list(self.lower)}, "
                f"upper={list(self.upper)}, fixed={list(self.fixed)})")


def lambda_decomposition(poset, lam):
    """Deterministic lower/upper/fixed split for a poset involution: each
    orbit {x, lam x} goes to (lower, upper) one way or the other, in
    element order, lower first, keeping the lower part down-closed and the
    upper part its image.  Placing an unplaced, unfixed x lower forces
    exactly down(x) lower and up(lam x) upper, and clashes iff lam x < x:
      - the lower part so far is a union of down-sets and the upper part
        its image, so nothing below x, or above lam x, is placed already;
      - a fixed z <= x (or z >= lam x) gives lam x <= z <= x;
      - so the only clash is a point of down(x) & up(lam x): lam x <= x.
    When lam x < x the other choice cannot clash.  So one comparison per
    orbit finds its lower end a (x, or lam x when lam x < x), and down(a)
    joins the lower mask and up(lam a) the upper mask.  The split is kept on
    the map (``PosetMap._split``), filled on first use as ``Poset.core``
    fills its core: every later call on its poset returns the same object.
    """
    if lam._split is not None and lam.src == poset:
        return lam._split
    if not (lam.src == poset and lam.is_involution()):
        raise ParseError("decomposition requires an involution on the poset")
    image = [poset.index[lam(x)] for x in poset.elements]
    lower = upper = 0
    for x, y in enumerate(image):
        if x == y or (lower | upper) >> x & 1:
            continue
        a, b = (y, x) if poset.downs[x] >> y & 1 else (x, y)
        lower |= poset.downs[a]
        upper |= poset.ups[b]
    lam._split = LambdaDecomposition([poset.elements[i] for i in _bits(lower)],
                                     [poset.elements[i] for i in _bits(upper)],
                                     lam.fixed_points())
    return lam._split
