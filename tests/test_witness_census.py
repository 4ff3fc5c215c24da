"""The witness layer on the connected census: every connected poset of at
most 5 points that passes the classification gate over F3, F5 and Q, each
of its involutions lambda, and each representative ``classify`` lists for
lambda (over Q with two or more fixed points the answer is an infinite
family, so a few of its rho_eps members stand in: ``involutions_of`` of
``test_exact_checks_reference``).

For each representative r and a seeded unit u, the inner conjugate
conj(u) o r o conj(u)^-1 is written as a raw matrix, and

- ``recognize`` of it returns a spec with r's (lambda, k, key);
- ``equivalent_inner``'s conjugator c for that spec and r intertwines the
  two, checked with the reference D-product ``ref_dproduct`` of
  ``test_fia_kernel`` (the textbook convolution, not the compiled kernel):
  c s(x) c' = r(c x c') on each ring generator x, where s(y) = theta
  base(y) theta' and c', theta' are inverses the reference product
  certifies.  Both sides are ring anti-automorphisms of x, so the
  generators decide them.

Time budget: 5 to 8 s for the whole module on a 2-core x86-64 machine,
depending on its load (most of it the reference products over Q).  Above about 10 s, cut fields
rather than posets.
"""

import random

import pytest

from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import d_one
from incalg.involutions import equivalent_inner, recognize
from incalg.snf import check_hypotheses

from test_exact_checks_reference import (
    inner_conjugate, involutions_of, small_unit,
)
from test_fia_kernel import ref_d_generators, ref_dproduct
from test_pair_index_reference import connected_census

FIELDS = (PrimeField(3), PrimeField(5), QQ)


def ref_inverse(d):
    """The library's inverse of d, certified by the reference product."""
    inv = d.inverse()
    one = d_one(d.alg)
    assert ref_dproduct(d, inv) == one == ref_dproduct(inv, d)
    return inv


def ref_apply(spec, theta_inv, x):
    """spec(x) = theta base(x) theta^-1, each product by ref_dproduct."""
    return ref_dproduct(ref_dproduct(spec.theta, spec.base_apply(x)), theta_inv)


def ref_intertwines(s1, s2, c):
    """Whether conj(c) o s1 = s2 o conj(c), every product by
    ``ref_dproduct``, decided on the ring generators."""
    c_inv, inv1, inv2 = ref_inverse(c), ref_inverse(s1.theta), ref_inverse(s2.theta)
    return all(
        ref_dproduct(ref_dproduct(c, ref_apply(s1, inv1, x)), c_inv)
        == ref_apply(s2, inv2, ref_dproduct(ref_dproduct(c, x), c_inv))
        for x in ref_d_generators(s1.alg))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_witness_layer_on_the_connected_census(field):
    census = connected_census()
    assert len(census) == 59
    rng = random.Random(f"witness-census:{field.name}")
    checked = refused = 0
    for poset in census:
        if not all(check_hypotheses(poset, field).values()):
            continue
        alg = IncidenceAlgebra(poset, field)
        for specs in involutions_of(alg):
            for n, rep in enumerate(specs):
                raw = inner_conjugate(rep, small_unit(alg, rng)).to_linear()
                spec = recognize(raw)
                assert (spec.lam, spec.k, spec.invariant().key()) == (
                    rep.lam, rep.k, rep.invariant().key())
                verdict = equivalent_inner(spec, rep)
                assert verdict.equivalent
                assert ref_intertwines(spec, rep, verdict.conjugator)
                checked += 1
                # the reference check refuses the unity where spec != rep
                if n == 0 and spec.theta != rep.theta:
                    refused += not ref_intertwines(spec, rep, d_one(alg))
    # 16 involutions on the posets that pass the gate; 48 representatives
    # over F_p, and 44 family members over Q
    assert checked >= 44 and refused >= 12, (checked, refused)
