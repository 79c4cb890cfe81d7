"""Hypothesis checks of the algebraic laws that every build must satisfy."""

import itertools
import random

import pytest
from conftest import monotonicity_violations, small_posets
from hypothesis import assume, given, settings, strategies as st

from medianvoting.lattice import (
    build_boolean_hypercube,
    build_chain,
    build_from_covers,
    build_ideal_lattice,
    build_product,
)
from medianvoting.preorders import (
    build_lsu_witness,
    build_three_class_witness,
    enumerate_lsu,
    enumerate_unimodal,
    is_locally_strictly_unimodal,
    is_unimodal,
)
from medianvoting.rules import (
    CommitteeRule,
    ExplicitRule,
    build_canonical_median_tree,
    corners,
    tabulate,
)
from medianvoting.suites import _roundtrips_exact
from medianvoting.verify import (
    DomainDescriptor,
    find_monotonicity_violation,
    find_strategy_violation,
    random_explicit_rule,
    sample_monotone_rule,
    strategy_witness_from,
)

LATTICES = [
    build_from_covers(["0", "x", "y", "1"],
                      [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")]),
    build_from_covers(["a", "b", "d", "c"],
                      [("a", "b"), ("b", "d"), ("d", "c")]),
    build_chain(5),
    build_boolean_hypercube(3),
    build_product(build_chain(3), build_chain(3)),
]

lattices = st.sampled_from(LATTICES)


def element(draw, lat):
    return draw(st.integers(min_value=0, max_value=lat.m - 1))


@given(st.data())
def test_median_is_symmetric(data):
    lat = data.draw(lattices)
    a, b, c = (element(data.draw, lat) for _ in range(3))
    values = {lat.median(*perm) for perm in itertools.permutations((a, b, c))}
    assert len(values) == 1


@given(st.data())
def test_median_lies_between_each_pair(data):
    lat = data.draw(lattices)
    a, b, c = (element(data.draw, lat) for _ in range(3))
    m = lat.median(a, b, c)
    assert lat.between(a, m, b) and lat.between(b, m, c) and lat.between(a, m, c)


@given(st.data())
def test_valuation_identity_and_triangle(data):
    lat = data.draw(lattices)
    v = lat.rank_valuation()
    x, y, z = (element(data.draw, lat) for _ in range(3))
    assert v[lat.join(x, y)] + v[lat.meet(x, y)] == v[x] + v[y]
    assert v.distance(x, z) <= v.distance(x, y) + v.distance(y, z)


@given(st.data())
def test_betweenness_has_three_equivalent_forms(data):
    lat = data.draw(lattices)
    v = lat.rank_valuation()
    x, y, z = (element(data.draw, lat) for _ in range(3))
    order_form = lat.between(x, y, z)
    median_form = lat.median(x, z, y) == y
    metric_form = v.distance(x, z) == v.distance(x, y) + v.distance(y, z)
    assert order_form == median_form == metric_form


@given(st.data())
def test_witness_preorders_land_in_their_domains(data):
    lat = data.draw(lattices)
    peak = element(data.draw, lat)
    ref = element(data.draw, lat)
    assert is_unimodal(build_three_class_witness(lat, peak, ref), lat)
    lsu = build_lsu_witness(lat, peak, ref)
    assert lsu.top == peak
    assert is_locally_strictly_unimodal(lsu, lat)


@settings(max_examples=40)
@given(st.data())
def test_committee_rules_are_monotone_and_tree_representable(data):
    lat = data.draw(lattices)
    n = data.draw(st.integers(min_value=1, max_value=2))
    terms = data.draw(st.lists(
        st.tuples(
            st.frozensets(st.integers(min_value=0, max_value=n - 1), max_size=n),
            st.integers(min_value=0, max_value=lat.m - 1)),
        max_size=4))
    rule = CommitteeRule(n, terms)
    assert find_monotonicity_violation(rule, lat) is None
    spaces, table = tabulate(rule, lat)
    tree = build_canonical_median_tree(corners(rule, lat), n)
    assert tabulate(tree, lat, spaces)[1] == table


@settings(max_examples=40, deadline=None)
@given(poset=small_posets(), n=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_median_of_monotone_rules_is_monotone(poset, n, seed):
    """Lemma 2 on random distributive lattices."""
    lat = build_ideal_lattice(*poset)
    rng = random.Random(seed)
    f, g, h = (sample_monotone_rule(lat, n, rng) for _ in range(3))
    table = [lat.median(a, b, c) for a, b, c in zip(f.table, g.table, h.table)]
    assert find_monotonicity_violation(ExplicitRule(f.spaces, table), lat) is None


def assert_every_violation_converts(lat, rule):
    """Lemma 1 by construction: each monotonicity witness of the rule becomes
    a valid strategy witness on both full single-peaked domains, whose
    preference is single-peaked in the domain's sense and held in it."""
    n = rule.n
    domains = []
    for factory, pool, single_peaked in (
            (DomainDescriptor.full_unimodal, enumerate_unimodal(lat, cap=lat.m), is_unimodal),
            (DomainDescriptor.full_lsu, enumerate_lsu(lat, cap=lat.m),
             is_locally_strictly_unimodal)):
        domains.append((factory(lat, n), set(pool), single_peaked))
    converted = 0
    for violation in monotonicity_violations(rule, lat, rule.spaces):
        for domain, held, single_peaked in domains:
            witness = strategy_witness_from(violation, domain)
            assert witness.validate(rule, lat), violation
            assert single_peaked(witness.preference, lat)
            assert witness.preference in held
        converted += 1
    return converted


@pytest.mark.parametrize("fixture", ["square", "chain4", "corner_square", "cube3",
                                     "grid3x3"])
@pytest.mark.parametrize("n", [1, 2])
def test_monotonicity_witnesses_convert(fixture, n, request):
    lat = request.getfixturevalue(fixture)
    rule = random_explicit_rule(lat, n, random.Random(n))
    assert assert_every_violation_converts(lat, rule) > 0


@settings(max_examples=30, deadline=None)
@given(poset=small_posets(), n=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_monotonicity_witnesses_convert_on_random_lattices(poset, n, seed):
    lat = build_ideal_lattice(*poset)
    assume(2 <= lat.m <= 7)
    rule = random_explicit_rule(lat, n, random.Random(seed))
    assume(find_monotonicity_violation(rule, lat) is not None)
    assert assert_every_violation_converts(lat, rule) > 0


@settings(max_examples=40, deadline=None)
@given(poset=small_posets(), n=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       kind=st.sampled_from(["random", "median", "mixed"]))
def test_five_way_equivalence_on_random_lattices(poset, n, seed, kind):
    """Theorem 1 beyond the fixtures: a rule is monotone iff the strategy
    sweep finds no deviation on the full unimodal domain, iff it finds none
    on the full LSU domain, iff the median-tree and the committee forms
    replay its table.  The rules are a random table, a nested median, and
    that median with one cell overwritten."""
    lat = build_ideal_lattice(*poset)
    assume(2 <= lat.m <= 6)
    rng = random.Random(seed)
    if kind == "random":
        rule = random_explicit_rule(lat, n, rng)
    else:
        rule = sample_monotone_rule(lat, n, rng)
    if kind == "mixed":
        table = list(rule.table)
        table[rng.randrange(len(table))] = rng.randrange(lat.m)
        rule = ExplicitRule(rule.spaces, table)
    monotone = find_monotonicity_violation(rule, lat) is None
    for factory in (DomainDescriptor.full_unimodal, DomainDescriptor.full_lsu):
        assert (find_strategy_violation(rule, factory(lat, n)) is None) == monotone
    assert _roundtrips_exact(rule, lat) == (monotone, monotone)
