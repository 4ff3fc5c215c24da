"""Every poset of at most 5 points, up to isomorphism, through the
hypothesis gate and both counterexample finders.

The posets come from a generator that shares no code with the library:
every relation on 0..n-1 that only rises along the labels and is
transitive (every poset has such a labelling, a linear extension), kept
once per isomorphism class by its least relabelled pair list.  It must
find 1, 2, 5, 16 and 63 posets on 1 to 5 points (OEIS A000112).

For each of them over F2, F3, F5 and Q, ``check_hypotheses`` must agree
with the reference decisions of ``test_hypotheses_reference``; the finder
of a rule that holds must return None; and the finder of a rule that fails
must return a cocycle that this module certifies itself: it checks the
chain identity on every chain, and finds no inner witness, by trying every
diagonal over F_p and by its own propagate-and-check solve over Q.

Time budget: about 1 s for the whole module on a 2-core x86-64 machine
(measured: generation 0.1 s, each field 0.1 s, pytest start the rest).
Above about 10 s, cut fields rather than posets.
"""

import itertools
from fractions import Fraction

import pytest

from incalg.derivations import find_non_inner_additive
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.morphisms import find_non_inner_cocycle
from incalg.posets import Poset
from incalg.snf import check_hypotheses

from test_hypotheses_reference import (
    _cocycle_obstruction_group, reference_der_equals_ider,
    reference_mult_subset_inn,
)

A000112 = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), QQ)


def rising_orders(n):
    """Every transitive set of pairs (i, j), i < j, on 0..n-1."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(slots)):
        rel = {s for k, s in enumerate(slots) if mask >> k & 1}
        if all((i, k) in rel for i, j in rel for j2, k in rel if j == j2):
            yield rel


def canonical(n, rel):
    """The least sorted pair list among the relabellings of ``rel``."""
    return min(tuple(sorted((p[i], p[j]) for i, j in rel))
               for p in itertools.permutations(range(n)))


def small_posets(n):
    """One (strict pairs) representative per isomorphism class of the
    posets on n points."""
    return sorted({canonical(n, rel) for rel in rising_orders(n)})


@pytest.fixture(scope="module")
def census():
    return {n: small_posets(n) for n in A000112}


def test_census_counts_match_a000112(census):
    assert {n: len(classes) for n, classes in census.items()} == A000112


def as_poset(n, rel):
    labels = [f"p{i}" for i in range(n)]
    return Poset.from_covers(labels, [(labels[i], labels[j]) for i, j in rel])


# -- the test's own certificates ---------------------------------------------


def is_cocycle(poset, values, combine, nonzero):
    """Defined exactly on the strict pairs, nonzero where asked, and
    combine(v(x,z), v(z,y)) == v(x,y) on every x < z < y."""
    strict = set(poset.strict_pairs)
    if set(values) != strict or (nonzero and 0 in values.values()):
        return False
    return all(combine(values[(x, z)], values[(z, y)]) == values[(x, y)]
               for x, y in strict for z in poset.elements
               if (x, z) in strict and (z, y) in strict)


class Quotient:
    """A multiplicative witness over Q: phi(x) / phi(y) == v(x, y)."""
    start = Fraction(1)

    def __call__(self, a, b):
        return a / b

    def above(self, a, v):  # the b with a / b == v
        return a / v

    def below(self, b, v):  # the a with a / b == v
        return v * b


class Difference:
    """An additive witness over Q: phi(y) - phi(x) == v(x, y)."""
    start = Fraction(0)

    def __call__(self, a, b):
        return b - a

    def above(self, a, v):
        return a + v

    def below(self, b, v):
        return b - v


def propagated(poset, values, op):
    """The potential phi with op(phi(x), phi(y)) == values(x, y) forced by
    phi = ``op.start`` at the first point of each component, found by
    breadth-first search over the comparable pairs, or None where it fails
    on a pair.  Any witness, scaled or shifted to ``op.start`` at those
    points, is this one, so None proves there is none."""
    phi = {}
    for root in poset.elements:
        if root in phi:
            continue
        phi[root], queue = op.start, [root]
        for v in queue:
            for (x, y), val in values.items():
                if v == x and y not in phi:
                    phi[y] = op.above(phi[x], val)
                    queue.append(y)
                elif v == y and x not in phi:
                    phi[x] = op.below(phi[y], val)
                    queue.append(x)
    ok = all(op(phi[x], phi[y]) == val for (x, y), val in values.items())
    return phi if ok else None


def has_inner_witness(poset, field, values, mult):
    """Whether some diagonal gives ``values``: every diagonal is tried over
    F_p, and over Q the propagated potential is checked."""
    p = field.modulus
    if p is None:
        op = Quotient() if mult else Difference()
        return propagated(poset, {k: Fraction(v) for k, v in values.items()},
                          op) is not None
    points = poset.elements
    for diag in itertools.product(range(1 if mult else 0, p),
                                  repeat=len(points)):
        phi = dict(zip(points, diag))
        if all((phi[x] * pow(phi[y], -1, p) if mult else phi[y] - phi[x]) % p
               == v for (x, y), v in values.items()):
            return True
    return False


def certify(poset, field, values, mult):
    """``values`` is a cocycle of its kind with no inner witness."""
    p = field.modulus
    if mult:
        combine = (lambda a, b: a * b % p) if p else (lambda a, b: a * b)
    else:
        combine = (lambda a, b: (a + b) % p) if p else (lambda a, b: a + b)
    assert is_cocycle(poset, values, combine, mult)
    assert not has_inner_witness(poset, field, values, mult)


# -- the sweep -----------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_gate_and_finders_on_every_small_poset(census, field):
    failed = {"mult_subset_inn": 0, "der_equals_ider": 0}
    for n, classes in census.items():
        for rel in classes:
            poset = as_poset(n, rel)
            report = check_hypotheses(poset, field)
            want = {"mult_subset_inn": reference_mult_subset_inn(
                        _cocycle_obstruction_group(poset), field),
                    "der_equals_ider": reference_der_equals_ider(poset, field)}
            assert report == want, (rel, field)
            alg = IncidenceAlgebra(poset, field)
            found = {"mult_subset_inn": find_non_inner_cocycle(alg),
                     "der_equals_ider": find_non_inner_additive(alg)}
            for rule, mult in (("mult_subset_inn", True),
                               ("der_equals_ider", False)):
                if report[rule]:
                    assert found[rule] is None, (rel, field, rule)
                else:
                    failed[rule] += 1
                    certify(poset, field, found[rule], mult)
    # nine posets have cycles and no torsion: the crown a, b < c, d and
    # eight of 5 points (two of them free rank 2); they fail the additive
    # rule everywhere and the multiplicative one wherever -1 is not 1
    assert failed == {"mult_subset_inn": 0 if field.modulus == 2 else 9,
                      "der_equals_ider": 9}
