"""The incidence algebra of a finite poset over an exact field.

For a finite poset the finitary condition is vacuous, so the algebra and
the incidence space coincide: an element is just a function on the
comparable pairs.  Storage is a dense tuple over the canonical interval
basis, multiplication is the convolution

    (f g)(x, y) = sum over x <= z <= y of f(x, z) g(z, y),

and the diagonal-ones function is the unity.

Each algebra compiles two straight-line functions from ``conv`` in
``__init__``: the convolution ``_product(a, b)``, which ``IncFn.__mul__``
calls once per product, and the idealization product ``_dproduct(a, c, b,
d)``, which returns both coordinates of [f; m][g; n] = [fg; fn + mg] in one
call (``idealization.DElem.__mul__``).  Each unpacks its operands into
locals and returns the tuples of entries, each the sum of its ``a_i*b_j``
terms (``_entry`` writes every such sum), so a product runs no loop, gather
or slice.  The source holds only integer pair indices and the integer
modulus, never a poset label, so no label (quotes, newlines, code) reaches
the compiler.  Over a prime field each entry takes one ``% p``.  Over Q the
same functions run on integers: each operand is lifted to numerators over
the lcm of its denominators (``_numerators``), and each entry of the
product is one reduced ``Fraction(sum, da * db)``, so values stay
``Fraction`` and no ``Fraction`` arithmetic runs per term.  Every call
multiplies all of its terms, zero operands included; the one product that
vanishes by structure and is skipped is ``morphisms.FiaMorphism.apply``'s
conjugation by the unity.

On the interval basis the structure constants are 0 or 1 (e_xy e_zw is
e_xw when y = z and zero otherwise), so a product of two basis elements
needs no convolution at all: it is the lookup ``basis_product[(i, j)]``,
which misses when the product is zero.  For the same reason a product
u e_ab v with one basis element in the middle is rank one: its (x, y)
entry is u(x, a) v(b, y) for x <= a and b <= y and zero elsewhere, one
multiplication per entry and no sum (``rank_one``).
"""

from fractions import Fraction
from math import lcm

from .errors import ContextMismatch, NotAUnit, NotComparable, ParseError


class IncidenceAlgebra:
    """Context object binding a poset and a field; builds IncFn values."""

    def __init__(self, poset, field):
        self.poset = poset
        self.field = field
        self.pairs = poset.pairs
        self.npairs = len(self.pairs)
        self.pair_index = poset.pair_index
        # conv[k] lists the index pairs (i, j) contributing f[i]*g[j] to
        # entry k of a product
        conv = []
        for x, y in self.pairs:
            terms = []
            for z in poset.between(x, y):
                terms.append((self.pair_index[(x, z)], self.pair_index[(z, y)]))
            conv.append(tuple(terms))
        self.conv = tuple(conv)
        # the same terms as compiled straight-line functions: the
        # convolution, and the idealization product built from it
        self._product = _compile_product(self.conv, field.modulus)
        self._dproduct = _compile_dproduct(self.conv, field.modulus)
        # rank_one_terms[k] lists, for e_ab at pair index k, the triples
        # (t, i, j) of pair indices t = (x, y), i = (x, a), j = (b, y), one
        # per x <= a and b <= y: entry t of u e_ab v is u[i] v[j]
        down = {x: [] for x in poset.elements}
        up = {x: [] for x in poset.elements}
        for x, y in self.pairs:
            down[y].append(x)
            up[x].append(y)
        self.rank_one_terms = tuple(
            tuple((self.pair_index[(x, y)], self.pair_index[(x, a)],
                   self.pair_index[(b, y)])
                  for x in down[a] for y in up[b])
            for a, b in self.pairs)
        # e_i e_j = e_k for each composable (i, j); absent pairs multiply to 0
        self.basis_product = {
            ij: k for k, terms in enumerate(conv) for ij in terms}
        self._diag = tuple(k for k, (x, y) in enumerate(self.pairs) if x == y)
        # pair indices ordered by interval size, for back-substitution
        self._by_interval = sorted(
            range(self.npairs), key=lambda k: len(self.conv[k]))

    # -- constructors -----------------------------------------------------

    def zero(self):
        return IncFn(self, (self.field.zero,) * self.npairs)

    def delta(self):
        """The unity: ones on the diagonal."""
        one, zero = self.field.one, self.field.zero
        return IncFn(self, tuple(
            one if x == y else zero for x, y in self.pairs))

    def e(self, x, y):
        """Indicator of the single comparable pair (x, y)."""
        if (x, y) not in self.pair_index:
            raise NotComparable(f"{x!r} is not below {y!r}")
        k = self.pair_index[(x, y)]
        zero = self.field.zero
        return IncFn(self, tuple(
            self.field.one if i == k else zero for i in range(self.npairs)))

    def zeta(self):
        """All ones; its inverse is the Mobius function."""
        return IncFn(self, (self.field.one,) * self.npairs)

    def mobius(self):
        return self.zeta().inverse()

    def element(self, entries):
        """Build from a {(x, y): value} dict; missing pairs are zero."""
        vals = [self.field.zero] * self.npairs
        for (x, y), v in entries.items():
            if (x, y) not in self.pair_index:
                raise NotComparable(f"{x!r} is not below {y!r}")
            vals[self.pair_index[(x, y)]] = self.field(v)
        return IncFn(self, tuple(vals))

    def diagonal(self, values):
        """Diagonal element from a {x: value} dict (missing points zero)."""
        return self.element({(x, x): v for x, v in values.items()})

    def from_json(self, obj):
        """Build from {"entries": {"x,y": "value", ...}}, the shape
        ``IncFn.to_json`` writes: an object whose entries, if present, are
        an object of value strings (``field.parse`` rejects a non-string)."""
        if not isinstance(obj, dict):
            raise ParseError(f"incidence function {obj!r} is not an object")
        raw = obj.get("entries", {})
        if not isinstance(raw, dict):
            raise ParseError(f"entries {raw!r} are not an object")
        entries = {}
        for key, sval in raw.items():
            x, _, y = key.partition(",")
            entries[(x.strip(), y.strip())] = self.field.parse(sval)
        return self.element(entries)

    def random(self, rng):
        return IncFn(self, tuple(
            self.field.random(rng) for _ in range(self.npairs)))

    def random_unit(self, rng):
        f = self.field
        return IncFn(self, tuple(
            f.random_nonzero(rng) if x == y else f.random(rng)
            for x, y in self.pairs))

    def generator_indices(self):
        """Pair indices of the point idempotents e_xx and the cover
        elements e_xy (x covered by y): every basis element e_xy is the
        product of the cover elements along a maximal chain from x to y, so
        these generate the algebra."""
        covers = set(self.poset.covers)
        return [k for k, (x, y) in enumerate(self.pairs)
                if x == y or (x, y) in covers]

    def generators(self):
        """The basis elements at ``generator_indices``, in that order."""
        return [self.e(*self.pairs[k]) for k in self.generator_indices()]

    def rank_one(self, u, k, v):
        """The values of u e_k v, for value tuples u and v and the basis
        element e_k = e_ab at pair index k: entry (x, y) is u(x, a) v(b, y)
        for x <= a and b <= y, and zero elsewhere."""
        mul = self.field.mul
        vals = [self.field.zero] * self.npairs
        for t, i, j in self.rank_one_terms[k]:
            vals[t] = mul(u[i], v[j])
        return vals

    # -- structure ---------------------------------------------------------

    def center_basis(self):
        """One diagonal component-indicator per connected component."""
        out = []
        for comp in self.poset.components():
            out.append(self.element({(x, x): self.field.one for x in comp}))
        return out

    def is_central(self, f):
        """Central means diagonal and constant on each component."""
        if any(f.vals[k] != self.field.zero
               for k in range(self.npairs) if k not in self._diag):
            return False
        for comp in self.poset.components():
            vals = {f[x, x] for x in comp}
            if len(vals) > 1:
                return False
        return True

    def __eq__(self, other):
        return self is other or (isinstance(other, IncidenceAlgebra)
                                 and self.poset == other.poset
                                 and self.field == other.field)

    def __hash__(self):
        return hash((self.poset, self.field))

    def __repr__(self):
        return f"IncidenceAlgebra({self.poset!r}, {self.field!r})"


# Entries with more terms than this are summed by ``sum`` over a tuple
# display instead of a chain of ``+``: a chain nests one level per term, and
# CPython's compiler overflows its recursion limit on a few thousand levels.
_CHAIN = 32


def _entry(modulus, *parts):
    """Source of one kernel entry: the sum of ``x{i}*y{j}`` over every
    ``(x, y, terms)`` in ``parts`` and every ``(i, j)`` in its ``terms``, in
    order, reduced ``% modulus`` over a prime field and left as an integer
    sum over Q (``modulus`` None).  ``x`` and ``y`` are the kernel's own
    local prefixes; indices and modulus are formatted with ``:d``, which
    refuses anything but an integer."""
    prods = [f"{x}{i:d}*{y}{j:d}" for x, y, terms in parts for i, j in terms]
    s = (" + ".join(prods) if len(prods) <= _CHAIN
         else "sum((" + ", ".join(prods) + ",))")
    return s if modulus is None else f"({s}) % {modulus:d}"


def _kernel(name, operands, n, results):
    """Compile ``def name(*operands)``: unpack each operand, a value tuple of
    length ``n``, into locals ``{operand}0, {operand}1, ...``, and return
    ``results``, a source expression over those locals.  The function is
    popped out of its namespace, so it holds no reference to itself through
    its globals and dies with the algebra that owns it."""
    lines = [f"def {name}({', '.join(operands)}):"]
    if n:
        lines += ["    " + "".join(f"{v}{k:d}, " for k in range(n)) + f"= {v}"
                  for v in operands]
    lines.append(f"    return {results}")
    namespace = {}
    exec(compile("\n".join(lines), "<incalg product kernel>", "exec"),
         namespace)
    return namespace.pop(name)


def _tuple(entries):
    return "(" + "".join(e + ", " for e in entries) + ")"


def _compile_product(conv, modulus):
    """The convolution over ``conv`` as one compiled function.

    ``product(a, b)`` returns the tuple whose entry k is the sum of
    ``a{i}*b{j}`` over ``conv[k]`` (see ``_entry``)."""
    return _kernel("product", ("a", "b"), len(conv), _tuple(
        _entry(modulus, ("a", "b", terms)) for terms in conv))


def _compile_dproduct(conv, modulus):
    """The idealization product [f; m][g; n] = [fg; fn + mg] as one
    compiled function.

    ``dproduct(a, c, b, d)`` takes the values of f, m, g and n and returns
    the pair of tuples (fg, fn + mg): ring entry k sums ``a{i}*b{j}`` over
    ``conv[k]``, bimodule entry k sums ``a{i}*d{j}`` over ``conv[k]`` and
    then ``c{i}*b{j}`` over ``conv[k]``."""
    ring = _tuple(_entry(modulus, ("a", "b", terms)) for terms in conv)
    bimodule = _tuple(_entry(modulus, ("a", "d", terms), ("c", "b", terms))
                      for terms in conv)
    return _kernel("dproduct", ("a", "c", "b", "d"), len(conv),
                   f"{ring}, {bimodule}")


def _numerators(vals):
    """A common denominator d of rational vals (the lcm of theirs, 1 for no
    vals) and the integer numerators v * d."""
    d = lcm(*[v.denominator for v in vals])
    return d, [v.numerator * (d // v.denominator) for v in vals]


def _check_context(a, b):
    if a.alg is not b.alg and a.alg != b.alg:
        raise ContextMismatch("operands over different posets or fields")


class IncFn:
    """An incidence function: dense values over the comparable-pair basis."""

    __slots__ = ("alg", "vals")

    def __init__(self, alg, vals):
        self.alg = alg
        self.vals = vals

    def __getitem__(self, xy):
        k = self.alg.pair_index.get(xy)
        return self.alg.field.zero if k is None else self.vals[k]

    def __add__(self, other):
        _check_context(self, other)
        add = self.alg.field.add
        return IncFn(self.alg, tuple(map(add, self.vals, other.vals)))

    def __sub__(self, other):
        _check_context(self, other)
        f = self.alg.field
        return IncFn(self.alg, tuple(
            f.sub(a, b) for a, b in zip(self.vals, other.vals)))

    def __neg__(self):
        neg = self.alg.field.neg
        return IncFn(self.alg, tuple(map(neg, self.vals)))

    def scale(self, k):
        mul = self.alg.field.mul
        return IncFn(self.alg, tuple(mul(k, v) for v in self.vals))

    def __mul__(self, other):
        _check_context(self, other)
        alg = self.alg
        if alg.field.modulus is not None:
            return IncFn(alg, alg._product(self.vals, other.vals))
        (da, a), (db, b) = _numerators(self.vals), _numerators(other.vals)
        d = da * db
        return IncFn(alg, tuple([Fraction(s, d) for s in alg._product(a, b)]))

    def is_unit(self):
        zero = self.alg.field.zero
        return all(self.vals[k] != zero for k in self.alg._diag)

    def inverse(self):
        """Two-sided inverse by back-substitution along interval containment."""
        alg, f = self.alg, self.alg.field
        vals = self.vals
        for k in alg._diag:
            if vals[k] == f.zero:
                x = alg.pairs[k][0]
                raise NotAUnit(f"zero diagonal at {x!r}", x)
        inv = [None] * alg.npairs
        for k in alg._by_interval:
            x, y = alg.pairs[k]
            dx = f.inv(vals[alg.pair_index[(x, x)]])
            if x == y:
                inv[k] = dx
                continue
            acc = f.zero
            for i, j in alg.conv[k]:
                if alg.pairs[i] == (x, x):
                    continue
                acc = f.add(acc, f.mul(vals[i], inv[j]))
            inv[k] = f.neg(f.mul(dx, acc))
        return IncFn(alg, tuple(inv))

    def diagonal_values(self):
        return {x: self.vals[self.alg.pair_index[(x, x)]]
                for x in self.alg.poset.elements}

    def is_central(self):
        return self.alg.is_central(self)

    def to_json(self):
        f = self.alg.field
        return {"entries": {f"{x},{y}": f.format(v)
                            for (x, y), v in zip(self.alg.pairs, self.vals)
                            if v != f.zero}}

    def __eq__(self, other):
        return (isinstance(other, IncFn) and self.alg == other.alg
                and self.vals == other.vals)

    def __hash__(self):
        return hash(self.vals)

    def __repr__(self):
        parts = [f"{v}*e({x},{y})"
                 for (x, y), v in zip(self.alg.pairs, self.vals)
                 if v != self.alg.field.zero]
        return "IncFn(" + (" + ".join(parts) if parts else "0") + ")"


def center_basis(poset, field):
    return IncidenceAlgebra(poset, field).center_basis()
