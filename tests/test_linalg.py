"""ColumnMap, the linear-map core of FiLinearMap and DLinearMap, against a
plain dense matrix reference."""

import random

import pytest

from incalg.fia import IncFn, IncidenceAlgebra
from incalg.fields import QQ, PrimeField
from incalg.idealization import DLinearMap, d_from_coords
from incalg.morphisms import FiLinearMap

from conftest import chain

F3 = PrimeField(3)
F5 = PrimeField(5)

# map class, element from a coordinate vector, dimension
KINDS = {
    "FI": (FiLinearMap, IncFn, lambda alg: alg.npairs),
    "D": (DLinearMap, d_from_coords, lambda alg: 2 * alg.npairs),
}


def dense_image(field, cols, vec):
    """Row r of the image is the sum over j of cols[j][r] * vec[j]."""
    out = []
    for r in range(len(cols)):
        acc = field.zero
        for j, c in enumerate(vec):
            acc = field.add(acc, field.mul(cols[j][r], c))
        out.append(acc)
    return tuple(out)


def random_vec(field, rng, n, density):
    return tuple(field.random(rng) if rng.random() < density else field.zero
                 for _ in range(n))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_image_and_compose_match_dense_reference(diamond, kind, field):
    cls, element, dim = KINDS[kind]
    alg = IncidenceAlgebra(diamond, field)
    n = dim(alg)
    rng = random.Random(11)
    zero = (field.zero,) * n
    for density in (0.0, 0.3, 1.0):
        a = cls(alg, [random_vec(field, rng, n, density) for _ in range(n)])
        b = cls(alg, [random_vec(field, rng, n, 0.5) for _ in range(n)])
        for vec in (zero, random_vec(field, rng, n, 0.3),
                    random_vec(field, rng, n, 1.0)):
            want = dense_image(field, a.cols, vec)
            assert a.image(vec) == want
            assert a.apply(element(alg, vec)) == element(alg, want)
        ab = a.compose(b)
        assert type(ab) is cls
        assert ab.cols == tuple(dense_image(field, a.cols, col) for col in b.cols)
        assert ab == cls.from_function(alg, lambda v: a.apply(b.apply(v)))
        assert a.compose(cls.identity(alg)) == a == cls.identity(alg).compose(a)
        assert cls(alg, [zero] * n).compose(b).cols == (zero,) * n


def test_image_reduces_prime_entries():
    alg = IncidenceAlgebra(chain(2), F3)
    m = FiLinearMap(alg, [(2, 2, 2)] * 3)
    assert m.image((2, 2, 2)) == (0, 0, 0)
    assert m.image((1, 1, 0)) == (1, 1, 1)

