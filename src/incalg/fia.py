"""The incidence algebra of a finite poset over an exact field.

For a finite poset the finitary condition is vacuous, so the algebra and
the incidence space coincide: an element is just a function on the
comparable pairs.  Storage is a dense tuple over the canonical interval
basis, multiplication is the convolution

    (f g)(x, y) = sum over x <= z <= y of f(x, z) g(z, y),

and the diagonal-ones function is the unity.

An ``IncFn`` stores its values as integer numerators ``num`` over one
positive denominator ``den`` in lowest terms (gcd(den, *num) == 1): over a
prime field the residues over 1.  So over Q too every product, inverse,
sum, comparison and hash runs on ints, and ``Fraction``s are built only
when ``vals``, ``f[x, y]`` or ``to_json`` asks for them.  ``IncFn(alg,
vals)`` lifts field elements; library code builds the stored form directly.

Each algebra compiles two straight-line functions from ``conv``, each the
first time it is used (so an algebra that never multiplies compiles
neither): the convolution ``_product(a, b)``, which ``IncFn.__mul__``
calls once per product, and the idealization product ``_dproduct(a, c, b,
d)``, which returns both coordinates of [f; m][g; n] = [fg; fn + mg] in one
call (``idealization.DElem.__mul__``).  Each unpacks its operands into
locals and returns the tuples of entries, each the sum of its ``a_i*b_j``
terms (``_entry`` writes every such sum), so a product runs no loop, gather
or slice.  The source holds only integer pair indices and the integer
modulus, never a poset label, so no label (quotes, newlines, code) reaches
the compiler.  Over a prime field each entry takes one ``% p``.  Over Q the
same functions run on the numerators, the denominators multiply, and one
gcd reduces the result.  Every call multiplies all of its terms, zero
operands included.

On the interval basis the structure constants are 0 or 1 (e_xy e_zw is
e_xw when y = z and zero otherwise), so a product u e_ab v with one basis
element in the middle is rank one: its (x, y) entry is u(x, a) v(b, y) for
x <= a and b <= y and zero elsewhere, one multiplication per entry and no
sum.  ``rank_one`` writes it on numerators, in one pass over the index
list ``rank_one_terms``, together with the bimodule coordinate of the
idealization product [u; m][e_ab; 0][v; n] when asked: residues over F_p,
integers over the operands' denominators over Q.  The closed-form
matrices of ``morphisms.FiaMorphism`` and ``involutions.InvolutionSpec``
(``to_linear``) are written column by column with it, straight into the
stored form, with no element built per column.

``ColumnMap`` keeps a linear map's columns in the same stored form; both
``morphisms.FiLinearMap`` and ``idealization.DLinearMap`` build on it.
"""

from functools import cached_property
from math import gcd, lcm, prod

from .errors import ContextMismatch, NotAUnit, NotComparable, ParseError
from .posets import _members


class IncidenceAlgebra:
    """Context object binding a poset and a field; builds IncFn values."""

    def __init__(self, poset, field):
        self.poset = poset
        self.field = field
        self.pairs = poset.pairs
        self.npairs = len(self.pairs)
        self.pair_index = index = poset.pair_index
        # conv[k] lists the index pairs (i, j) contributing f[i]*g[j] to
        # entry k of a product
        conv = []
        for x, y in self.pairs:
            terms = []
            for z in poset.between(x, y):
                terms.append((index[(x, z)], index[(z, y)]))
            conv.append(tuple(terms))
        self.conv = tuple(conv)
        # rank_one_terms[k] lists, for e_ab at pair index k, the triples
        # (t, i, j) of pair indices t = (x, y), i = (x, a), j = (b, y), one
        # per x <= a and b <= y: entry t of u e_ab v is u[i] v[j]
        down = {x: poset.down(x) for x in poset.elements}
        up = {x: poset.up(x) for x in poset.elements}
        self.rank_one_terms = tuple(
            tuple((index[(x, y)], index[(x, a)], index[(b, y)])
                  for x in down[a] for y in up[b])
            for a, b in self.pairs)
        self._diag = tuple(k for k, (x, y) in enumerate(self.pairs) if x == y)

    @cached_property
    def _product(self):
        """The convolution over ``conv``, compiled on first use."""
        return _compile_product(self.conv, self.field.modulus)

    @cached_property
    def _dproduct(self):
        """The idealization product over ``conv``, compiled on first use."""
        return _compile_dproduct(self.conv, self.field.modulus)

    @cached_property
    def _inverse_plan(self):
        """Back-substitution order for ``IncFn.inverse``: per pair index k
        = (x, y), by interval size, the index of (x, x) and the terms of
        conv[k] other than the one through (x, x)."""
        conv, ends = self.conv, self._ends
        return tuple((k, ends[k][0], tuple(ij for ij in conv[k]
                                           if ij[0] != ends[k][0]))
                     for k in sorted(range(self.npairs), key=lambda k: len(conv[k])))

    @cached_property
    def _ends(self):
        """Per pair index k = (x, y), the pair indices of (x, x) and (y, y)."""
        index = self.pair_index
        return tuple((index[(x, x)], index[(y, y)]) for x, y in self.pairs)

    @cached_property
    def _chains(self):
        """The pair indices of (x, z), (z, y) and (x, y) for each chain
        x < z < y, in the order of ``Poset.chains``: the cocycle identities
        run over these triples."""
        index = self.pair_index
        return tuple((index[(x, z)], index[(z, y)], index[(x, y)])
                     for x, z, y in self.poset.chains)

    @cached_property
    def _tree(self):
        """``Poset.spanning_tree`` on pair indices: per step (v, w), the
        indices of (w, w), of (v, v) and of the comparable pair of v and w,
        and whether that pair is (v, w); at a root, where v is None, the
        index of (w, w) and three Nones."""
        index = self.pair_index
        return tuple((index[(w, w)], None, None, None) if v is None else (
            index[(w, w)], index[(v, v)], index.get((v, w), index.get((w, v))),
            (v, w) in index) for v, w in self.poset.spanning_tree())

    @cached_property
    def _centre(self):
        """The off-diagonal pair indices, and the diagonal pair indices of
        each connected component: an element is central exactly when it
        vanishes on the first and is constant on each of the second."""
        index = self.pair_index
        return (tuple(k for k, (x, y) in enumerate(self.pairs) if x != y),
                tuple(tuple(index[(x, x)] for x in comp)
                      for comp in self.poset.components()))

    # -- the stored form: integer numerators over one denominator ---------

    def _lift(self, vals):
        """The stored form (num, den) of a vector of field elements."""
        if self.field.modulus is not None:
            return tuple(vals), 1
        den = lcm(*[v.denominator for v in vals])
        return tuple([v.numerator * (den // v.denominator) for v in vals]), den

    def _values(self, num, den):
        """The field elements of a stored-form vector."""
        if self.field.modulus is not None:
            return num
        fraction = self.field.fraction
        return tuple([fraction(v, den) for v in num])

    def _normal(self, num, den):
        """The stored form of integer numerators over a nonzero integer
        denominator (prime to p over F_p): residues mod p over a prime
        field, lowest terms with a positive denominator over Q."""
        p = self.field.modulus
        if p is not None:
            c = 1 if den == 1 else pow(den, -1, p)
            return tuple([v * c % p for v in num]), 1
        if den < 0:
            num, den = [-v for v in num], -den
        return _lowest(num, den)

    def _make(self, num, den):
        """The element of integer numerators over a nonzero denominator."""
        return _fn(self, *self._normal(num, den))

    def _reduced(self, num, den):
        """The element of a numerator tuple over a positive denominator
        that needs at most a gcd division: over a prime field the tuple
        holds residues already and den is 1."""
        return _fn(self, num) if den == 1 else _fn(self, *_lowest(num, den))

    # -- constructors -----------------------------------------------------

    def zero(self):
        return _fn(self, (0,) * self.npairs)

    def delta(self):
        """The unity: ones on the diagonal."""
        return _fn(self, tuple([int(x == y) for x, y in self.pairs]))

    def e(self, x, y):
        """Indicator of the single comparable pair (x, y)."""
        if (x, y) not in self.pair_index:
            raise NotComparable(f"{x!r} is not below {y!r}")
        num = [0] * self.npairs
        num[self.pair_index[(x, y)]] = 1
        return _fn(self, tuple(num))

    def zeta(self):
        """All ones; its inverse is the Mobius function."""
        return _fn(self, (1,) * self.npairs)

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
        an object of value strings (``field.parse`` rejects a non-string).
        A key that is not two comparable labels joined by one comma raises
        ParseError naming the key."""
        _members(obj, "incidence function")
        raw = obj.get("entries", {})
        if not isinstance(raw, dict):
            raise ParseError(f"entries {raw!r} are not an object")
        entries, parse = {}, self.field.parser()
        for key, sval in raw.items():
            pair = tuple(label.strip() for label in key.split(","))
            if pair not in self.pair_index:
                raise ParseError(f"entry key {key!r} is not two comparable "
                                 f"labels joined by one comma")
            entries[pair] = parse(sval)
        return self.element(entries)

    def random(self, rng):
        return IncFn(self, tuple(
            self.field.random(rng) for _ in range(self.npairs)))

    def random_unit(self, rng):
        f = self.field
        return IncFn(self, tuple(
            f.random_nonzero(rng) if x == y else f.random(rng)
            for x, y in self.pairs))

    def rank_one(self, k, a, b, c=None, d=None, s=1):
        """The numerators of u (s e_k) v, for the numerators a of u and b
        of v, the basis element e_k = e_xy at pair index k and an integer
        s, as a list: entry t is s a[i] b[j] for each (t, i, j) in
        ``rank_one_terms[k]`` and zero elsewhere.  Given the numerators c
        of m and d of n as well, the list is the doubled vector of the
        idealization product [u; m][s e_k; 0][v; n] = s [u e_k v; m e_k v +
        u e_k n].  One pass over the terms; residues mod p over a prime
        field, and over Q integers over the product of the operands'
        denominators."""
        n, p = self.npairs, self.field.modulus
        num = [0] * (n if c is None else 2 * n)
        if c is None:
            for t, i, j in self.rank_one_terms[k]:
                num[t] = s * a[i] * b[j]
        else:
            for t, i, j in self.rank_one_terms[k]:
                x, y = s * a[i], b[j]
                num[t], num[n + t] = x * y, s * c[i] * y + x * d[j]
        return num if p is None else [v % p for v in num]

    # -- structure ---------------------------------------------------------

    def center_basis(self):
        """One diagonal component-indicator per connected component."""
        return [_fn(self, tuple([int(k in group) for k in range(self.npairs)]))
                for group in self._centre[1]]

    def is_central(self, f):
        """Central means diagonal and constant on each component."""
        off, groups = self._centre
        num = f.num
        return not any(num[k] for k in off) and all(
            num[k] == num[group[0]] for group in groups for k in group)

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


def _check_context(a, b):
    if a.alg is not b.alg and a.alg != b.alg:
        raise ContextMismatch("operands over different posets or fields")


def _lowest(num, den):
    """num / den in lowest terms, for den > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple([v // g for v in num]), den // g
    return tuple(num), den


_new = object.__new__


def _fn(alg, num, den=1):
    """An IncFn from numerators already in the stored form."""
    f = _new(IncFn)
    f.alg, f.num, f.den = alg, num, den
    return f


def _over_one(f, g):
    """The numerators of two elements over one common denominator, the
    lcm of theirs, and that denominator."""
    da, db = f.den, g.den
    if da == db:
        return f.num, g.num, da
    d = lcm(da, db)
    sa, sb = d // da, d // db
    return tuple([v * sa for v in f.num]), tuple([v * sb for v in g.num]), d


class IncFn:
    """An incidence function: dense values over the comparable-pair basis,
    stored as integer numerators ``num`` over the denominator ``den`` (see
    the module docstring).  ``vals`` gives them as field elements."""

    __slots__ = ("alg", "num", "den")

    def __init__(self, alg, vals):
        self.alg = alg
        self.num, self.den = alg._lift(vals)

    @property
    def vals(self):
        """The values as field elements, ``Fraction``s over Q: over F_p
        the residues themselves."""
        return self.alg._values(self.num, self.den)

    def __getitem__(self, xy):
        alg = self.alg
        k = alg.pair_index.get(xy)
        if k is None:
            return alg.field.zero
        return alg._values((self.num[k],), self.den)[0]

    def __add__(self, other):
        _check_context(self, other)
        a, b, den = _over_one(self, other)
        return self.alg._make([x + y for x, y in zip(a, b)], den)

    def __sub__(self, other):
        _check_context(self, other)
        a, b, den = _over_one(self, other)
        return self.alg._make([x - y for x, y in zip(a, b)], den)

    def __neg__(self):
        return self.alg._make([-v for v in self.num], self.den)

    def scale(self, k):
        """k f for a field element k."""
        c = k.numerator
        return self.alg._make([c * v for v in self.num],
                              self.den * k.denominator)

    def entrywise(self, other):
        """The entrywise product: (f o g)(x, y) = f(x, y) g(x, y)."""
        _check_context(self, other)
        return self.alg._make([a * b for a, b in zip(self.num, other.num)],
                              self.den * other.den)

    def permuted(self, perm):
        """The element whose entry t is entry perm[t] of this one."""
        num = self.num
        return _fn(self.alg, tuple([num[i] for i in perm]), self.den)

    def __mul__(self, other):
        _check_context(self, other)
        alg = self.alg
        return alg._reduced(alg._product(self.num, other.num),
                            self.den * other.den)

    def is_unit(self):
        num = self.num
        return all(num[k] for k in self.alg._diag)

    def inverse(self):
        """Two-sided inverse by back-substitution along interval containment.

        It runs on the integer numerator matrix F, which is triangular in
        any linear extension: with D the product of its diagonal entries,
        D F^-1 is the adjugate of F, an integer matrix, so every division in
        the back-substitution is exact.  Then f^-1 = den (D F^-1) / D; over
        F_p, D is a product of nonzero residues and so invertible mod p."""
        alg = self.alg
        num = self.num
        for k in alg._diag:
            if not num[k]:
                x = alg.pairs[k][0]
                raise NotAUnit(f"zero diagonal at {x!r}", x)
        d = prod([num[k] for k in alg._diag])
        inv = [0] * alg.npairs
        for k, dk, terms in alg._inverse_plan:
            acc = sum([num[i] * inv[j] for i, j in terms]) if terms else -d
            inv[k] = -acc // num[dk]
        den = self.den
        return alg._make([v * den for v in inv], d)

    def _vector(self):
        """The stored form (num, den)."""
        return self.num, self.den

    def diagonal_values(self):
        return {x: self[x, x] for x in self.alg.poset.elements}

    def is_central(self):
        return self.alg.is_central(self)

    def to_json(self):
        f = self.alg.field
        return {"entries": {f"{x},{y}": f.format(v)
                            for (x, y), v in zip(self.alg.pairs, self.vals)
                            if v != f.zero}}

    def __eq__(self, other):
        return (isinstance(other, IncFn) and self.alg == other.alg
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        parts = [f"{v}*e({x},{y})"
                 for (x, y), v in zip(self.alg.pairs, self.vals)
                 if v != self.alg.field.zero]
        return "IncFn(" + (" + ".join(parts) if parts else "0") + ")"


def count_units(alg, ring="FI"):
    """Number of units (FI) or of unit pairs (D); finite fields only."""
    if ring not in ("FI", "D"):
        raise ParseError(f"ring must be 'FI' or 'D', got {ring!r}")
    q = alg.field.order
    if q is None:
        return None
    n = len(alg.poset.elements)
    strict = alg.npairs - n
    fi_units = (q - 1) ** n * q ** strict
    if ring == "FI":
        return fi_units
    return fi_units * q ** alg.npairs


class ColumnMap:
    """A K-linear endomorphism stored column-wise: column j, the image of
    basis vector j, is held in the stored form of ``IncFn`` as the
    numerators ``nums[j]`` over ``dens[j]``, so images, composition and
    equality run on ints; ``cols`` gives the columns as field elements.
    With ``_den``, ``cols`` holds integer lists over that denominator
    instead, as the column writers produce them: residues over F_p, which
    are the stored form, and over Q numerators that take one ``_normal``
    per column.
    Subclasses fix the element type through ``from_function`` (which basis)
    and ``apply``."""

    __slots__ = ("alg", "nums", "dens")

    def __init__(self, alg, cols, _den=None):
        if alg.field.modulus is None:
            self._set(alg, [alg._lift(c) if _den is None
                            else alg._normal(c, _den) for c in cols])
        else:  # the residues are the stored form
            self.alg, self.nums = alg, tuple([tuple(c) for c in cols])
            self.dens = (1,) * len(self.nums)

    @classmethod
    def _of(cls, alg, vecs):
        """The map whose column j is vecs[j], a stored-form (num, den)."""
        m = object.__new__(cls)
        m._set(alg, vecs)
        return m

    def _set(self, alg, vecs):
        self.alg = alg
        self.nums = tuple([num for num, _ in vecs])
        self.dens = tuple([den for _, den in vecs])

    @classmethod
    def identity(cls, alg):
        return cls.from_function(alg, lambda v: v)

    @property
    def cols(self):
        """The columns as field elements."""
        if self.alg.field.modulus is not None:  # the residues themselves
            return self.nums
        return tuple([self.alg._values(num, den)
                      for num, den in zip(self.nums, self.dens)])

    def _gather(self, cols):
        """The element whose entry t is entry t of column cols[t], or zero
        where cols[t] is None, written on the stored form over the lcm of
        the denominators of the columns read."""
        nums, dens = self.nums, self.dens
        d = lcm(*[dens[j] for j in cols if j is not None])
        return self.alg._make([0 if j is None else nums[j][t] * (d // dens[j])
                               for t, j in enumerate(cols)], d)

    def _image(self, num, den):
        """The stored-form image of the stored-form vector (num, den): the
        sum of num[j] col_j over the nonzero num[j], on integers over the
        lcm of those columns' denominators."""
        nums, dens = self.nums, self.dens
        used = [j for j, c in enumerate(num) if c]
        d = lcm(*[dens[j] for j in used])
        acc = [0] * len(nums)
        for j in used:
            c = num[j] * (d // dens[j])
            acc = [a + c * v for a, v in zip(acc, nums[j])]
        return self.alg._normal(acc, d * den)

    def image(self, vec):
        """The coordinate vector of the image of ``vec`` (field elements)."""
        alg = self.alg
        return alg._values(*self._image(*alg._lift(vec)))

    def compose(self, other):
        """self after other."""
        if other.alg != self.alg:
            raise ContextMismatch("maps over different contexts")
        return self._of(self.alg, [self._image(num, den) for num, den
                                   in zip(other.nums, other.dens)])

    def __eq__(self, other):
        return (type(other) is type(self) and self.alg == other.alg
                and self.nums == other.nums and self.dens == other.dens)

    def __hash__(self):
        return hash((self.nums, self.dens))
