"""Shared poset builders for the test suite."""

import pytest

from incalg.posets import Poset


def is_identity(m):
    """Whether a poset map is the identity automorphism."""
    return not m.anti and all(v == k for k, v in m.mapping.items())


def coords(d):
    """The coordinate vector of an idealization element: ring, then
    bimodule coordinates."""
    return d.f.vals + d.i.vals


def blocks(m):
    """(ring->ring, bimodule->ring, ring->bimodule, bimodule->bimodule)
    blocks of an idealization map, as column lists."""
    n, cols = m.alg.npairs, m.cols
    return ([c[:n] for c in cols[:n]], [c[:n] for c in cols[n:]],
            [c[n:] for c in cols[:n]], [c[n:] for c in cols[n:]])


def chain(n, labels=None):
    labels = labels or [chr(ord("a") + i) for i in range(n)]
    return Poset.from_covers(labels, list(zip(labels, labels[1:])))


def suspension(m):
    """0 < a1, ..., am < 1: an m-point antichain between a bottom and a
    top, "suspM" for short."""
    middle = [f"a{i}" for i in range(1, m + 1)]
    return Poset.from_covers(["0", *middle, "1"],
                             [("0", x) for x in middle] + [(x, "1") for x in middle])


def levels(*sizes):
    """Antichains of the given sizes, each wholly below the next, labelled
    a0, a1, ... on the first level, b0, ... on the second; levels(4, 4, 4)
    is "lvl444": 12 points, 13,824 automorphisms and 240 involutions."""
    rows = [[f"{chr(ord('a') + r)}{i}" for i in range(size)]
            for r, size in enumerate(sizes)]
    return Poset.from_covers([x for row in rows for x in row],
                             [(x, y) for low, high in zip(rows, rows[1:])
                              for x in low for y in high])


@pytest.fixture
def chain2():
    return chain(2)


@pytest.fixture
def chain3():
    return chain(3)


@pytest.fixture
def diamond():
    return Poset.from_covers(["0", "a", "b", "1"],
                             [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


@pytest.fixture
def vee():
    # one minimum below two maxima
    return Poset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])


@pytest.fixture
def wedge():
    # two minima below one maximum
    return Poset.from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])


@pytest.fixture
def fence():
    # a < c > b < d: no element comparable with everything
    return Poset.from_covers(["a", "b", "c", "d"],
                             [("a", "c"), ("b", "c"), ("b", "d")])


@pytest.fixture
def crown():
    # a, b both below c, d
    return Poset.from_covers(["a", "b", "c", "d"],
                             [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


@pytest.fixture
def two_chains():
    return Poset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])


@pytest.fixture
def wide_diamond():
    # three incomparable middles between bottom and top
    return Poset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
