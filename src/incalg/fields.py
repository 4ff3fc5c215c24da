"""Exact field arithmetic over the rationals and prime fields.

Values are kept in canonical raw form rather than wrapped: a rational is a
``fractions.Fraction`` (reduced, positive denominator) and a prime-field
element is an ``int`` in ``[0, p)``.  A ``Field`` object supplies the
operations, parsing, square detection and the square-class group
``S_K = K*/(K*)^2``.  ``fractions`` is imported the first time a rational
value is made or read (``RationalField.fraction``, ``zero`` and ``one``),
so a process that works only over prime fields never loads it.

Square classes are represented by ``SquareClass``: a one-bit square /
non-square flag for GF(p), and a signed squarefree integer for Q.
Squarefree parts are found by trial division, so rational inputs are
limited to desk scale (numerator and denominator at most ``10**12``).
"""

from functools import cached_property
from math import gcd, isqrt

from .errors import (
    DomainMismatch, ParseError, SizeLimit, WitnessFailed, ZeroArgument,
)

# Trial division covers primes up to 10**6, enough to certify squarefree
# parts for magnitudes up to SQUAREFREE_BOUND.
SQUAREFREE_BOUND = 10**12
_TRIAL_BOUND = 10**6

# Primality is decided by trial division (``_prime_factors``, which also
# serves ``_primitive_root``), so moduli stay at desk scale too.
MODULUS_BOUND = 10**12


def _factorization(n):
    """The (prime, exponent) pairs of n, primes ascending, by trial division
    up to _TRIAL_BOUND; [] for n <= 1.  A cofactor left over is a prime
    square or, up to SQUAREFREE_BOUND, a prime; any other raises SizeLimit."""
    out = []
    q = 2
    while q <= _TRIAL_BOUND and q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            out.append((r, 2))
        elif n <= SQUAREFREE_BOUND:
            out.append((n, 1))
        else:
            raise SizeLimit(f"cannot certify squarefree part of {n}")
    return out


def _prime_factors(n):
    """Distinct prime factors of n <= MODULUS_BOUND: [n] iff n is prime."""
    return [q for q, _ in _factorization(n)]


def _primitive_root(p):
    """The least generator of F_p*: t is one exactly when t^((p-1)/q) != 1
    for every prime q dividing p - 1."""
    if p == 2:
        return 1
    qs = _prime_factors(p - 1)
    for t in range(2, p):
        if all(pow(t, (p - 1) // q, p) != 1 for q in qs):
            return t
    raise WitnessFailed(f"F{p} has no primitive root")


def _signed_squarefree(n, d):
    """Signed squarefree part of the rational n/d (classes agree: n/d = nd/d^2)."""
    m = abs(n * d)
    sign = -1 if (n < 0) != (d < 0) else 1
    if m > SQUAREFREE_BOUND * SQUAREFREE_BOUND:
        raise SizeLimit(f"magnitude {m} exceeds the squarefree factorization bound")
    out = 1
    for q, e in _factorization(m):
        if e % 2:
            out *= q
    return sign * out


class SquareClass:
    """An element of the square-class group S_K = K*/(K*)^2.

    Multiplication of classes matches multiplication of representatives and
    every class is its own inverse (S_K has exponent 2).  Over Q the
    product of the signed squarefree a and b is a b / gcd(a, b)^2, in
    closed form: no factorization runs.
    """

    __slots__ = ("kind", "rep")

    def __init__(self, kind, rep):
        self.kind = kind  # "Q" or "F"
        self.rep = rep    # signed squarefree int, or True (square) / False

    def __mul__(self, other):
        if self.kind != other.kind:
            raise DomainMismatch("square classes over different fields")
        if self.kind == "F":
            return SquareClass("F", self.rep == other.rep)
        a, b = self.rep, other.rep
        return SquareClass("Q", a * b // gcd(a, b) ** 2)

    def inverse(self):
        return self

    def __eq__(self, other):
        return (isinstance(other, SquareClass)
                and self.kind == other.kind and self.rep == other.rep)

    def __hash__(self):
        return hash((self.kind, self.rep))

    def __repr__(self):
        if self.kind == "F":
            return "SquareClass(square)" if self.rep else "SquareClass(non-square)"
        return f"SquareClass({self.rep})"


class Field:
    """Common interface of RationalField and PrimeField."""

    modulus = None  # None for Q, the prime p for GF(p)

    @property
    def char(self):
        return 0 if self.modulus is None else self.modulus

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_square(self, a):
        return self.sqrt(a) is not None

    def parse(self, s):
        """The value a scalar string names.  One rule serves both fields, as
        it does ``parse_field``: the string must be ASCII with no underscore
        and no exponent (so no digit outside ASCII, no ``1_2``, and no
        ``1e9999999``, whose value alone has 33 million bits); it is
        stripped and converted, and anything else raises ParseError naming
        the value."""
        if not isinstance(s, str):
            raise ParseError(f"{self.scalar} {s!r} is not a string")
        if s.isascii() and "_" not in s and "e" not in s.lower():
            try:
                return self.convert(s.strip())
            except (ValueError, ZeroDivisionError):
                pass
        raise ParseError(f"bad {self.scalar} {s!r}")

    def parser(self):
        """``parse`` for one document, which repeats few strings many
        times: each distinct string is parsed once.  A value that is not a
        string, hashable or not, still raises ParseError."""
        memo = {}

        def parse(s):
            try:
                return memo[s]
            except (KeyError, TypeError):
                memo[s] = value = self.parse(s)
                return value
        return parse


class RationalField(Field):
    """The field Q with Fraction values."""

    name = "Q"
    scalar = "rational scalar"
    order = None
    square_class_count = None  # S_Q is infinite

    @cached_property
    def fraction(self):
        """The ``Fraction`` class, imported on first use."""
        from fractions import Fraction
        return Fraction

    zero = cached_property(lambda self: self.fraction(0))
    one = cached_property(lambda self: self.fraction(1))

    def __call__(self, v):
        if isinstance(v, self.fraction):
            return v
        if isinstance(v, int):
            return self.fraction(v)
        raise ParseError(f"not a rational value: {v!r}")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroArgument("inverse of zero")
        return 1 / a

    convert = property(lambda self: self.fraction)

    def format(self, v):
        return str(v)

    def sqrt(self, a):
        if a < 0:
            return None
        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return self.fraction(rn, rd)
        return None

    def square_class(self, a):
        a = self(a)
        if a == 0:
            raise ZeroArgument("square class of zero")
        return SquareClass("Q", _signed_squarefree(a.numerator, a.denominator))

    def square_class_reps(self):
        raise SizeLimit("S_Q is infinite; no finite list of representatives")

    def random(self, rng, span=9):
        return self.fraction(rng.randint(-span, span), rng.randint(1, span))

    def random_nonzero(self, rng, span=9):
        while True:
            v = self.random(rng, span)
            if v != 0:
                return v

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


class PrimeField(Field):
    """The prime field GF(p), values as ints in [0, p)."""

    scalar = "residue"

    def __init__(self, p):
        if p > MODULUS_BOUND:
            raise SizeLimit(f"modulus {p} exceeds the bound {MODULUS_BOUND}")
        if _prime_factors(p) != [p]:
            raise ParseError(f"{p} is not prime")
        self.p = p
        self.modulus = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p
        self.order = p
        self.square_class_count = 1 if p == 2 else 2

    def __call__(self, v):
        if isinstance(v, int):
            return v % self.p
        raise ParseError(f"not a residue: {v!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroArgument("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def convert(self, s):
        return int(s) % self.p

    def format(self, v):
        return str(v % self.p)

    def is_square(self, a):
        a %= self.p
        if a == 0 or self.p == 2:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1  # Euler criterion

    def sqrt(self, a):
        """The smaller square root r <= p - r of a, or None when a is not a
        square, by Tonelli-Shanks in O(log^2 p) multiplications.  With
        p - 1 = q 2^m, q odd, and c = z^q for a non-square z, the loop keeps
        r^2 = a t, with t of order 2^i < 2^m and c of order 2^m, and each
        pass multiplies r by b = c^(2^(m-i-1)), which lowers the order of t,
        until t = 1.  z is the last of ``square_class_reps``: a non-square,
        or 1 over F2, where m = 0 and t = a leaves the loop unrun.  At a = 0,
        t = r = 0."""
        p = self.p
        if not self.is_square(a):
            return None
        m = ((p - 1) & (1 - p)).bit_length() - 1
        q = (p - 1) >> m
        c = pow(self.square_class_reps()[-1], q, p)
        r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
        while t > 1:
            i, u = 0, t
            while u != 1:
                i, u = i + 1, u * u % p
            b = pow(c, 1 << (m - i - 1), p)
            r, c, t, m = r * b % p, b * b % p, t * b * b % p, i
        return min(r, p - r)

    def square_class(self, a):
        a = a % self.p
        if a == 0:
            raise ZeroArgument("square class of zero")
        return SquareClass("F", self.is_square(a))

    def square_class_reps(self):
        """One representative per square class, identity first."""
        if self.p == 2:
            return [1]
        for t in range(2, self.p):
            if not self.is_square(t):
                return [1, t]
        raise WitnessFailed(f"F{self.p} has no non-square")

    def elements(self):
        return range(self.p)

    def nonzero_elements(self):
        return range(1, self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def random_nonzero(self, rng):
        return rng.randrange(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


def parse_field(spec):
    """Parse a field spec string: "Q" or "F<p>" (e.g. "F5"), p in ASCII
    digits.  A p with more digits than MODULUS_BOUND raises SizeLimit
    before it is converted."""
    s = spec.strip()
    if s == "Q":
        return QQ
    if s.startswith("F") and s[1:].isascii() and s[1:].isdigit():
        digits = s[1:].lstrip("0") or "0"
        if len(digits) > len(str(MODULUS_BOUND)):
            raise SizeLimit(f"modulus of {len(digits)} digits exceeds the "
                            f"bound {MODULUS_BOUND}")
        return PrimeField(int(digits))
    raise ParseError(f"bad field spec {spec!r}")

