import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, strategies as st

from incalg import fields
from incalg.errors import DomainMismatch, ParseError, SizeLimit, ZeroArgument
from incalg.fields import QQ, PrimeField, SquareClass, parse_field
from incalg.involutions import ClassInvariant
from incalg.posets import Poset

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def brute_squares(p):
    return {x * x % p for x in range(1, p)}


def test_prime_field_takes_exactly_the_primes():
    """The modulus is prime exactly when ``_prime_factors`` gives [p]; held
    to a listing of divisors, and at both ends of the trial division."""
    for n in range(-2, 600):
        if n > 1 and all(n % d for d in range(2, n)):
            assert PrimeField(n).p == n
        else:
            with pytest.raises(ParseError, match="is not prime"):
                PrimeField(n)
    assert PrimeField(999983).p == 999983
    with pytest.raises(ParseError, match="is not prime"):
        PrimeField(999983 * 999979)


def test_parse_field():
    assert parse_field("Q") is QQ or parse_field("Q") == QQ
    assert parse_field("F5") == F5
    with pytest.raises(ParseError):
        parse_field("F6")
    with pytest.raises(ParseError):
        parse_field("R")


def test_scalar_parsing_round_trip():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert QQ.format(Fraction(-7, 3)) == "-7/3"
    assert F5.parse("7") == 2
    assert F5.format(12) == "2"


NON_ASCII_SCALARS = ["٢", "３", "1٣", "1_2", "-1_0"]


@pytest.mark.parametrize("field, text", [
    *((F5, t) for t in NON_ASCII_SCALARS),
    *((QQ, t) for t in NON_ASCII_SCALARS + ["1/٣", "1_0/3"])])
def test_scalar_takes_ascii_digits_only(field, text):
    """int() and Fraction() read other scripts' digits and underscore
    groupings ("٢" as 2, "1_2" as 12); a scalar is ASCII digits, as a
    field spec is."""
    with pytest.raises(ParseError, match="^bad (residue|rational scalar) "):
        field.parse(text)


@pytest.mark.parametrize("field, text, value", [
    (F5, " 12 ", 2), (F5, "-3", 2), (F5, "+4", 4),
    (QQ, " -6/4 ", Fraction(-3, 2)), (QQ, "+5", Fraction(5)),
    (QQ, "1.25", Fraction(5, 4))])
def test_scalar_ascii_forms_still_parse(field, text, value):
    assert field.parse(text) == value


@pytest.mark.parametrize("field", [F5, QQ])
def test_parser_parses_each_distinct_string_once(field, monkeypatch):
    """A document's parser calls ``parse`` once per distinct string and
    gives the same values; a string that fails is not remembered."""
    texts = ["1", "3", "1", " 1", "3", "1"]
    want = [field.parse(t) for t in texts]
    seen = []
    parse = field.parse
    monkeypatch.setattr(field, "parse", lambda s: seen.append(s) or parse(s))
    read = field.parser()
    assert [read(t) for t in texts] == want
    assert seen == ["1", "3", " 1"]
    for _ in range(2):
        with pytest.raises(ParseError, match="^bad "):
            read("x")
    assert seen[3:] == ["x", "x"]


@pytest.mark.parametrize("field", [F5, QQ])
@pytest.mark.parametrize("value", [["1"], {"1": "1"}, 1, None])
def test_parser_refuses_a_non_string_as_parse_does(field, value):
    """A list is unhashable, so the memo cannot hold it; it must still be
    the ParseError ``parse`` raises, not a TypeError."""
    read = field.parser()
    read("1")
    with pytest.raises(ParseError, match="is not a string"):
        read(value)


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_axioms(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_prime_field_axioms(a, b, c):
    F = F7
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a % 7:
        assert F.mul(a, F.inv(a)) == 1


def test_square_class_examples():
    assert F5.square_class(4) == F5.square_class(1)  # 4 = 2**2
    assert 2 not in brute_squares(5)
    assert F5.square_class(2) != F5.square_class(1)
    assert QQ.square_class(Fraction(8)) == SquareClass("Q", 2)


def test_square_class_zero_rejected():
    with pytest.raises(ZeroArgument):
        F5.square_class(0)
    with pytest.raises(ZeroArgument):
        QQ.square_class(Fraction(0))


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroArgument):
        F5.inv(10)
    with pytest.raises(ZeroArgument):
        QQ.inv(Fraction(0))


def test_square_class_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        a, b = F7.random_nonzero(rng), F7.random_nonzero(rng)
        assert F7.square_class(a) * F7.square_class(b) == F7.square_class(a * b % 7)
        qa, qb = QQ.random_nonzero(rng), QQ.random_nonzero(rng)
        assert QQ.square_class(qa) * QQ.square_class(qb) == QQ.square_class(qa * qb)


def test_square_class_invariant_under_square_shift():
    rng = random.Random(11)
    for _ in range(100):
        a = QQ.random_nonzero(rng)
        m = QQ.random_nonzero(rng)
        assert QQ.square_class(a * m * m) == QQ.square_class(a)


def test_sqrt_examples():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert F5.sqrt(4) == 2          # both roots valid, smaller one returned
    assert brute_squares(7) == {1, 2, 4}
    assert F7.sqrt(3) is None
    assert QQ.sqrt(Fraction(-4)) is None
    assert QQ.sqrt(Fraction(2)) is None


def scan_sqrt(F, a):
    """The exhaustive scan that ``PrimeField.sqrt`` replaced: the least s
    with s^2 = a, or None on a non-square."""
    a %= F.p
    if not F.is_square(a):
        return None
    for s in range(F.p):  # smaller root first
        if s * s % F.p == a:
            return s
    return None


def test_sqrt_matches_the_scan_below_1000():
    """Every residue of every prime below 1,000 (168 primes, 76,127 cases,
    0.9 s on a shared 2-core x86-64 Linux VM): the closed form gives the
    scan's root, 0 at 0, and None exactly on the non-squares.  Primes such
    as 257 and 769 (p - 1 = 2^8 q) run many passes of its inner loop."""
    for p in range(2, 1000):
        if all(p % d for d in range(2, isqrt(p) + 1)):
            F = PrimeField(p)
            assert [F.sqrt(a) for a in range(p)] == \
                [scan_sqrt(F, a) for a in range(p)], p


@pytest.mark.parametrize("p", [10007, 65537, 1000003, 998244353,
                               999999999989])
def test_sqrt_above_the_scan_range(p):
    """Roots modulo primes the scan could not reach, 65537 = 2^16 + 1 and
    998244353 = 119 * 2^23 + 1 among them: r^2 = a with r <= p - r, and
    None exactly where Euler's criterion finds a non-square."""
    F = PrimeField(p)
    for a in [0, 1, 2, 3, 4, 5, 7, 10, p - 1, p - 2, p - 4, 123456789 % p]:
        r = F.sqrt(a)
        assert (r is None) == (not F.is_square(a))
        if r is not None:
            assert r * r % p == a and r <= p - r


def test_sqrt_takes_moduli_above_10_000():
    assert PrimeField(10007).sqrt(4) == 2


def test_sqrt_iff_identity_class():
    for F in (F3, F5, F7, PrimeField(13)):
        for a in F.nonzero_elements():
            assert (F.sqrt(a) is not None) == (
                F.square_class(a) == F.square_class(1))
    rng = random.Random(3)
    for _ in range(100):
        a = QQ.random_nonzero(rng)
        assert (QQ.sqrt(a) is not None) == (
            QQ.square_class(a) == QQ.square_class(1))


def test_char2_field_is_constructible():
    assert F2.square_class(1) == SquareClass("F", True)
    assert F2.square_class_count == 1
    assert F2.square_class_reps() == [1]
    assert F5.square_class_count == 2
    assert QQ.square_class_count is None


def test_class_shift_examples():
    """Square-class tuples on the fixed points x and y of the diamond's
    flip are one inner class exactly when they differ by one global
    class; the key divides by the value at x."""
    diamond = Poset.from_covers(["0", "x", "y", "1"], [
        ("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
    flip = next(m for m in diamond.involutions() if m("x") == "x")

    def invariant(field, chi):
        return ClassInvariant(flip, field.one, chi=chi)

    ident = F5.square_class(1)
    nonsq = F5.square_class(2)
    same = invariant(F5, {"x": ident, "y": ident})
    assert same.same_inner_class(invariant(F5, {"x": nonsq, "y": nonsq}))
    assert not same.same_inner_class(invariant(F5, {"x": ident, "y": nonsq}))
    assert invariant(F5, {"x": nonsq, "y": ident}).key() == (ident, nonsq)
    chi1 = invariant(QQ, {"x": QQ.square_class(2), "y": QQ.square_class(3)})
    chi2 = invariant(QQ, {"x": QQ.square_class(10), "y": QQ.square_class(15)})
    # ratio has class 5 at both points
    assert QQ.square_class(10) * QQ.square_class(2).inverse() == QQ.square_class(5)
    assert chi1.same_inner_class(chi2)
    assert chi1.key() == chi2.key() == (SquareClass("Q", 1),
                                        SquareClass("Q", 6))


def test_squarefree_parts():
    assert QQ.square_class(Fraction(-18)) == SquareClass("Q", -2)
    assert QQ.square_class(Fraction(1, 2)) == SquareClass("Q", 2)
    assert QQ.square_class(Fraction(49)) == SquareClass("Q", 1)
    big = 999983 * 999979  # two primes above the trial-division range
    assert QQ.square_class(Fraction(big)) == SquareClass("Q", big)
    assert QQ.square_class(Fraction(999983**2)) == QQ.square_class(1)


def ref_signed_squarefree(n, d):
    """The signed squarefree part of n/d by its own trial division, the
    routine ``fields._factorization`` replaced."""
    m = abs(n * d)
    sign = -1 if (n < 0) != (d < 0) else 1
    if m > fields.SQUAREFREE_BOUND * fields.SQUAREFREE_BOUND:
        raise SizeLimit(f"magnitude {m} exceeds the squarefree factorization bound")
    out = 1
    q = 2
    while q <= fields._TRIAL_BOUND and q * q <= m:
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            if e % 2:
                out *= q
        q += 1 if q == 2 else 2
    if m > 1:
        r = isqrt(m)
        if r * r == m:
            pass  # leftover is a prime square
        elif m <= fields.SQUAREFREE_BOUND:
            # no factor <= 10**6 and not a square: prime or product of two
            # distinct primes, squarefree either way
            out *= m
        else:
            raise SizeLimit(f"cannot certify squarefree part of {m}")
    return sign * out


def outcome(fn, *args):
    try:
        return fn(*args)
    except SizeLimit as err:
        return str(err)


P12, Q12 = 999999999989, 999999999959  # primes just below 10**12


@pytest.mark.parametrize("n, d", [
    (999983 * 999979, 1), (-(999983 ** 2), 7), (P12, 1), (-P12, 3),
    (P12 ** 2, 1), (999983 ** 2 * P12, -1), (P12 * Q12, 1), (10**12 + 39, 1),
    (P12 ** 2 * 4, 1), (1, 10**24 + 1), (-3, 4 * Q12)])
def test_squarefree_part_matches_its_own_trial_division(n, d):
    """The shared factorization gives the old routine's squarefree parts
    and its SizeLimit messages: a prime square left over, a prime up to
    the bound, a cofactor above it, and a magnitude past the bound."""
    assert (outcome(fields._signed_squarefree, n, d)
            == outcome(ref_signed_squarefree, n, d))


def test_squarefree_part_matches_on_a_range():
    for n in range(-10**4, 10**4):
        for d in (1, 12):
            assert (fields._signed_squarefree(n, d)
                    == ref_signed_squarefree(n, d)), (n, d)


def test_factorization_multiplies_back_to_primes():
    for n in range(1, 5000):
        pairs = fields._factorization(n)
        assert prod(q ** e for q, e in pairs) == n
        assert [q for q, _ in pairs] == sorted({q for q, _ in pairs})
        assert all(q % d for q, _ in pairs for d in range(2, isqrt(q) + 1))


def test_rational_classes_multiply_in_closed_form():
    """Classes of primes above the trial-division range multiply without
    factorizing the product, which is past the squarefree bound."""
    p, q = 999999999989, 999999999959
    assert (SquareClass("Q", p) * SquareClass("Q", -q)).rep == -p * q
    assert SquareClass("Q", p) * SquareClass("Q", p) == QQ.square_class(1)
    assert SquareClass("Q", -6) * SquareClass("Q", 10) == SquareClass("Q", -15)


# -- typed guards -------------------------------------------------------------


def test_a_modulus_above_the_bound_raises_size_limit():
    with pytest.raises(SizeLimit, match="exceeds the bound"):
        PrimeField(fields.MODULUS_BOUND + 39)


def test_a_modulus_spec_is_bounded_by_its_digit_count():
    """A spec is refused by the length of its modulus before int() reads
    it, so a spec past int()'s digit limit is a SizeLimit too; leading
    zeros do not count."""
    for spec in ("F" + "9" * 5000, "F1" + "0" * 13):
        with pytest.raises(SizeLimit, match="^modulus of "):
            parse_field(spec)
    assert parse_field("F" + "0" * 5000 + "5") == F5


@pytest.mark.parametrize("text", ["1e9999999", "1E5", "2.5e-3"])
def test_a_rational_exponent_is_refused_before_the_value_is_built(text):
    with pytest.raises(ParseError, match="^bad rational scalar "):
        QQ.parse(text)


def test_square_classes_over_different_fields_do_not_multiply():
    with pytest.raises(DomainMismatch):
        SquareClass("F", True) * SquareClass("Q", 2)


def test_field_call_refuses_a_value_of_another_type():
    with pytest.raises(ParseError, match="not a rational value"):
        QQ(1.5)
    with pytest.raises(ParseError, match="not a residue"):
        F5("3")
