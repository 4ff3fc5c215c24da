"""The idealization ring and its block-structured symmetries.

Pairs [f; i] multiply with the bimodule coordinate squaring to zero.
Ring data lifts to the big ring in block form: algebra maps act on both
coordinates, central units scale the second one, derivations shear it.
"""

import random

from incalg import IncidenceAlgebra, Poset, PrimeField
from incalg.derivations import DerivationSpec
from incalg.idealization import (
    DElem, central_pair, d_center_basis, factor_inner, inner_auto, lift_anti,
    lift_derivation, lift_morphism, random_d_unit,
)
from incalg.morphisms import FiaMorphism

chain2 = Poset.from_covers(["a", "b"], [("a", "b")])
F3 = PrimeField(3)
alg = IncidenceAlgebra(chain2, F3)

print("== arithmetic ==")
x = DElem(alg.delta() + alg.e("a", "b"), alg.e("a", "a"))
y = DElem(alg.delta(), alg.e("b", "b"))
print("x =", x)
print("y =", y)
print("x * y =", x * y)
print("x is a unit with inverse", x.inverse())
n = DElem(alg.zero(), alg.e("a", "b"))
print("nilpotent second coordinate: [0;i] * [0;i] =", n * n)

print()
print("== the center of the idealization ==")
print("basis:", d_center_basis(alg))
print("scalar pairs c_{k1,k2} such as", central_pair(alg, 2, 1))

print()
print("== inner automorphisms factor through the blocks ==")
rng = random.Random(1)
theta = random_d_unit(alg, rng)
ring_part, der = factor_inner(theta)
rebuilt = lift_morphism(ring_part).compose(lift_derivation(alg, der))
print("conjugation by", theta)
print("equals ring-conjugation then shear:", inner_auto(theta) == rebuilt)

print()
print("== order-reversing lifts ==")
swap = chain2.involutions()[0]
rho = lift_anti(FiaMorphism.induced(alg, swap))
print("the lifted relabel squares to the identity:", rho.is_involution())
d = lift_derivation(alg, DerivationSpec(alg, inner=alg.e("a", "b")))
print("shear by an inner derivation is inner in the big ring:",
      d == inner_auto(DElem(alg.delta(), -alg.e("a", "b"))))
