import pytest
from hypothesis import strategies as st

from medianvoting.lattice import (
    build_boolean_hypercube,
    build_chain,
    build_from_covers,
    build_ideal_lattice,
    build_product,
)


@pytest.fixture(scope="session")
def square():
    return build_from_covers(["0", "x", "y", "1"],
                             [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])


@pytest.fixture(scope="session")
def chain4():
    """Four-element chain a < b < d < c."""
    return build_from_covers(["a", "b", "d", "c"],
                             [("a", "b"), ("b", "d"), ("d", "c")])


@pytest.fixture(scope="session")
def cube3():
    return build_boolean_hypercube(3)


@pytest.fixture(scope="session")
def grid3x3():
    return build_product(build_chain(3), build_chain(3))


@pytest.fixture(scope="session")
def corner_square():
    """The square relabelled with d at the bottom, atoms b and c, top a."""
    return build_from_covers(["d", "b", "c", "a"],
                             [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")])


@st.composite
def small_posets(draw):
    """A poset on at most 5 points, as names and generating (lower, upper) pairs."""
    p = draw(st.integers(min_value=0, max_value=5))
    names = [f"p{i}" for i in range(p)]
    candidates = [(i, j) for i in range(p) for j in range(i + 1, p)]
    chosen = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    order = draw(st.permutations(range(p)))  # edges need not follow name order
    return ([names[order[i]] for i in range(p)],
            [(names[order[i]], names[order[j]]) for i, j in sorted(chosen)])


def seeded_ideal_lattice(rng, m):
    """Ideal lattice with m elements of a random poset on 3-4 points."""
    while True:
        points = [f"p{k}" for k in range(rng.randint(3, 4))]
        pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1:]
                 if rng.random() < 0.5]
        lat = build_ideal_lattice(points, pairs)
        if lat.m == m:
            return lat
