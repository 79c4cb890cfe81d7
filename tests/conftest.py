import contextlib
import gc
import itertools
import json
import signal
import time
from importlib import resources

import pytest
from hypothesis import strategies as st

from medianvoting.cli import parse_lattice
from medianvoting.lattice import (
    build_boolean_hypercube,
    build_chain,
    build_from_covers,
    build_ideal_lattice,
    build_product,
)
from medianvoting.preorders import (
    TotalPreorder,
    enumerate_topped_preorders,
    is_locally_strictly_unimodal,
    is_unimodal,
)
from medianvoting.rules import CommitteeRule
from medianvoting.suites import nondecreasing_tuples
from medianvoting.verify import MonotonicityWitness


def bundled_lattice(name):
    """One of the lattices shipped in the package's ``data/`` directory."""
    text = resources.files("medianvoting").joinpath(f"data/{name}.json").read_text()
    return parse_lattice(json.loads(text))


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
def cube3_topped(cube3):
    """All 378,344 topped preorders on 8 elements, built once per session.
    The list depends only on the carrier size.  The build makes no cycles,
    so the collector is off during it: otherwise each full collection in
    the build would traverse the growing list again."""
    gc.disable()
    try:
        return enumerate_topped_preorders(cube3, cap=cube3.m)
    finally:
        gc.enable()


@pytest.fixture(scope="session")
def cube3_filtered(cube3, cube3_topped):
    """(unimodal, locally strictly unimodal) sublists of ``cube3_topped``, in
    enumeration order, filtered once per session.  The bundled ``cube3``
    has the same ids and covers, so the lists serve it too."""
    return ([p for p in cube3_topped if is_unimodal(p, cube3)],
            [p for p in cube3_topped if is_locally_strictly_unimodal(p, cube3)])


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


def seeded_poset(rng, points, ideals):
    """Names and generating (lower, upper) pairs of a random poset on
    ``points`` points with exactly ``ideals`` order ideals.  Pairs only go
    from a lower to a higher point index, at a random density; the ideals
    are counted, not built, so a large target stays cheap to hit."""
    names = [f"p{k}" for k in range(points)]
    while True:
        density = rng.uniform(0.0, 0.6)
        below = [1 << k for k in range(points)]
        above = [1 << k for k in range(points)]
        pairs = []
        for j in range(points):
            for i in range(j):
                if rng.random() < density:
                    pairs.append((names[i], names[j]))
                    below[j] |= below[i]
        for j in range(points):
            for i in range(points):
                if below[j] >> i & 1:
                    above[i] |= 1 << j
        counts = {0: 1}

        def count(rest):
            # ideals within ``rest``: those without its top point x, then
            # those with x (and so with everything below it)
            if rest not in counts:
                x = rest.bit_length() - 1
                counts[rest] = count(rest & ~above[x]) + count(rest & ~below[x])
            return counts[rest]

        if count((1 << points) - 1) == ideals:
            return names, pairs


@contextlib.contextmanager
def within(seconds, what):
    """Fail once ``what`` has run for ``seconds``: a SIGALRM raises
    TimeoutError at the next bytecode, so a hang fails instead of stalling
    the run, and a long C call fails the elapsed-time check after it."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds, f"{what} took over {seconds} s"


def evaluate_table(rule, lat, spaces):
    """Naive tabulation: the rule's own evaluator on every ballot tuple,
    row-major over ``spaces``."""
    return tuple(rule.evaluate(lat, ballots)
                 for ballots in itertools.product(*spaces))


def enumerate_quota_rules(lat, n):
    """Anonymous committee rules whose constants depend only on coalition size,
    nondecreasing in size (the empty coalition first).  Returns
    (constant-vector, CommitteeRule) pairs."""
    rules = []
    for constants in nondecreasing_tuples(lat, n + 1):
        terms = [(frozenset(coalition), constants[size])
                 for size in range(n + 1)
                 for coalition in itertools.combinations(range(n), size)]
        rules.append((constants, CommitteeRule(n, terms)))
    return rules


def monotonicity_violations(rule, lat, spaces):
    """Naive sweep, in the documented order: ballot tuples row-major, voters
    ascending, deviations in space order.  Yields every (ballots, voter,
    deviation) whose outcome leaves the segment between the voter's ballot
    and the deviant outcome, so the first one is the documented witness."""
    for ballots in itertools.product(*spaces):
        outcome = rule.evaluate(lat, ballots)
        for i, space in enumerate(spaces):
            for deviation in space:
                deviant = ballots[:i] + (deviation,) + ballots[i + 1:]
                other = rule.evaluate(lat, deviant)
                if not lat.between(ballots[i], outcome, other):
                    yield MonotonicityWitness(ballots, i, deviation, outcome, other)


def lsu_witness_oracle(lat, peak, ref):
    """The locally strictly unimodal witness from explicit betweenness pairs:
    y beats z whenever y lies strictly inside [peak, z], and each part (the
    segment [peak, ref], then the rest) is ranked by its longest chain of
    such pairs above each element."""
    pairs = [(y, z) for z in range(lat.m)
             for y in lat.interval(peak, z) if y != z]
    segment = set(lat.interval(peak, ref))
    outside = [e for e in range(lat.m) if e not in segment]

    def longest_path_ranks(elements):
        inside = set(elements)
        preds = {e: [] for e in elements}
        for a, b in pairs:
            if a in inside and b in inside:
                preds[b].append(a)
        ranks = {}

        def depth(v):
            if v not in ranks:
                ranks[v] = max((depth(u) + 1 for u in preds[v]), default=0)
            return ranks[v]

        for e in elements:
            depth(e)
        return ranks

    inner = longest_path_ranks(sorted(segment))
    ranks = [0] * lat.m
    for e, r in inner.items():
        ranks[e] = r
    shift = max(inner.values()) + 1
    for e, r in longest_path_ranks(outside).items():
        ranks[e] = shift + r
    return TotalPreorder(ranks)
