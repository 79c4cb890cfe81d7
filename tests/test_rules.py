import gc
import itertools
import json
import math
import random
import signal
import time
import tracemalloc
from importlib import resources

import pytest
from conftest import evaluate_table, small_posets, within
from hypothesis import assume, given, settings, strategies as st

from medianvoting.errors import (
    ArityMismatchError,
    BallotOutOfSpaceError,
    CornerNotInBallotSpaceError,
    InvalidSizeError,
    TooLargeError,
)
from medianvoting import rules
from medianvoting.cli import parse_lattice
from medianvoting.lattice import (
    Lattice,
    build_boolean_hypercube,
    build_chain,
    build_ideal_lattice,
)
from medianvoting.rules import (
    EXPLICIT_TABLE_CAP,
    CommitteeRule,
    ExplicitRule,
    MedianTree,
    build_canonical_median_tree,
    check_full_table_size,
    check_table_size,
    corners,
    extended_median,
    extended_median_rule,
    full_spaces,
    table_corners,
    tabulate,
    tree_to_committee,
)

CORNER_RULE_TABLE = {
    # two-voter table generated by corner values (a, b, c, d) on the
    # relabelled square; f(d, c) = c comes from the median-tree expansion
    ("a", "a"): "a", ("a", "b"): "b", ("a", "c"): "a", ("a", "d"): "b",
    ("b", "a"): "a", ("b", "b"): "b", ("b", "c"): "a", ("b", "d"): "b",
    ("c", "a"): "c", ("c", "b"): "d", ("c", "c"): "c", ("c", "d"): "d",
    ("d", "a"): "c", ("d", "b"): "d", ("d", "c"): "c", ("d", "d"): "d",
}


def nested_median(lat, values, ballots, k=0):
    """Test-only oracle: med(left half, ballots[k], right half), recursively."""
    if len(values) == 1:
        return values[0]
    half = len(values) // 2
    return lat.median(nested_median(lat, values[:half], ballots, k + 1),
                      ballots[k],
                      nested_median(lat, values[half:], ballots, k + 1))


FIXTURES = ("square", "chain4", "cube3", "grid3x3", "corner_square")


def random_terms(rng, lat, n, count):
    return [(frozenset(rng.sample(range(n), rng.randint(0, n))),
             rng.randrange(lat.m)) for _ in range(count)]


def random_spaces(rng, lat, n, most=None):
    """Per voter, a nonempty subset of the carrier (of at most ``most``
    ballots) in a random order."""
    return tuple(tuple(rng.sample(range(lat.m), rng.randint(1, min(lat.m, most or lat.m))))
                 for _ in range(n))


def assert_tabulate_matches_evaluate(rule, lat, spaces):
    spaces = tuple(tuple(s) for s in spaces)
    assert tabulate(rule, lat, spaces) == (spaces,
                                           evaluate_table(rule, lat, spaces))


def assert_fold_matches_oracle(lat, n, rng):
    values = [rng.randrange(lat.m) for _ in range(2 ** n)]
    tree = build_canonical_median_tree(values, n)
    for ballots in itertools.product(range(lat.m), repeat=n):
        assert tree.evaluate(lat, ballots) == nested_median(lat, values, ballots)


class TestExplicitRule:
    def test_lookup_and_bounds(self, chain4):
        a, d = chain4.element("a"), chain4.element("d")
        rule = ExplicitRule(((a, d), (a, d)), (0, 1, 2, 3))
        assert rule.evaluate(chain4, (a, d)) == 1
        assert rule.evaluate(chain4, (d, a)) == 2
        with pytest.raises(BallotOutOfSpaceError):
            rule.evaluate(chain4, (chain4.element("b"), a))
        with pytest.raises(ArityMismatchError):
            rule.evaluate(chain4, (a,))

    def test_malformed_tables_are_refused(self):
        with pytest.raises(InvalidSizeError, match="at least one voter"):
            ExplicitRule([], [0])
        with pytest.raises(InvalidSizeError, match="empty ballot space"):
            ExplicitRule([(0, 1), ()], [])
        with pytest.raises(InvalidSizeError, match="table has 3 entries, expected 4"):
            ExplicitRule([(0, 1), (0, 1)], [0, 1, 2])

    def test_projection_and_constant(self, square):
        spaces = full_spaces(square, 3)
        proj = ExplicitRule.from_function(spaces, lambda b: b[0])
        const = ExplicitRule.from_function(spaces, lambda b: square.top)
        for ballots in itertools.product(range(4), repeat=3):
            assert proj.evaluate(square, ballots) == ballots[0]
            assert const.evaluate(square, ballots) == square.top

    def test_from_function_refuses_before_calling_the_function(self, square):
        def refuse(ballots):
            raise AssertionError("a cell was built")

        with pytest.raises(TooLargeError,
                           match=f"table of {4 ** 11} entries exceeds cap {EXPLICIT_TABLE_CAP}"):
            ExplicitRule.from_function(full_spaces(square, 11), refuse)
        # 4^20000 has more digits than int-to-str conversion allows
        with pytest.raises(TooLargeError,
                           match=f"table of at least 2\\^40000 entries exceeds cap {EXPLICIT_TABLE_CAP}"):
            ExplicitRule.from_function(full_spaces(square, 20000), refuse)

    def test_refusing_many_voters_takes_linear_time(self, square):
        # a running product of n sizes is quadratic in n (5.5 s for these
        # 3 * 10^5 voters); the refusal raises each size to its multiplicity
        def refuse(ballots):
            raise AssertionError("a cell was built")

        message = f"table of at least 2\\^600000 entries exceeds cap {EXPLICIT_TABLE_CAP}"
        spaces = full_spaces(square, 300000)
        with within(1.0, "refusing 3 * 10^5 voters"):
            for build in (lambda: tabulate(CommitteeRule(300000, []), square),
                          lambda: ExplicitRule.from_function(spaces, refuse),
                          lambda: ExplicitRule(spaces, ())):
                with pytest.raises(TooLargeError, match=message):
                    build()

    def test_table_size_counts_exactly(self):
        assert check_table_size([2, 3, 4]) == 24
        assert check_table_size([1] * 100000) == 1
        assert check_table_size([4] * 11 + [0] + [4] * 10) == 0    # past the cap, then empty
        assert check_table_size([2] * 20) == EXPLICIT_TABLE_CAP
        with pytest.raises(TooLargeError, match=f"table of {3 ** 500 * 5 ** 500} entries"):
            check_table_size([3, 5] * 500)

    def test_full_table_size_builds_no_n_long_list(self):
        def outcome(size):
            try:
                return size()
            except TooLargeError as exc:
                return str(exc)

        # the same count or message as the n sizes give, past 2^16 bits too
        for m, n in ((1, 7), (2, 20), (2, 21), (3, 12), (3, 13), (4, 11), (9, 2000),
                     (3, 70000), (6, 123457), (8, 50000)):
            assert (outcome(lambda: check_full_table_size(m, n))
                    == outcome(lambda: check_table_size([m] * n))), (m, n)
            if n > 20000:
                bits = (m ** n).bit_length() - 1
                assert outcome(lambda: check_full_table_size(m, n)) == (
                    f"table of at least 2^{bits} entries exceeds cap {EXPLICIT_TABLE_CAP}")
        # log2(3) = 1.58496250072115618145373894394781...
        with pytest.raises(TooLargeError,
                           match="at least 2\\^1584962500721156181453738943947 entries"):
            check_full_table_size(3, 10 ** 30)
        # an exponent past the int-to-str digit limit is written out too
        with pytest.raises(TooLargeError, match=f"at least 2\\^1{'0' * 4300} entries"):
            check_full_table_size(4, 5 * 10 ** 4299)
        # a one-element carrier has one cell, but its n ballot spaces are capped
        assert check_full_table_size(1, EXPLICIT_TABLE_CAP) == 1
        with pytest.raises(TooLargeError, match=f"table over {10 ** 30} ballot spaces "
                                                f"exceeds cap {EXPLICIT_TABLE_CAP}"):
            check_full_table_size(1, 10 ** 30)


class TestCommitteeRule:
    def test_majority_values(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        maj5 = extended_median_rule(square, 5)
        assert maj5.evaluate(square, (x, x, y, y, o)) == o
        assert maj5.evaluate(square, (i, i, i, i, o)) == i
        for a in range(4):
            assert maj5.evaluate(square, (a,) * 5) == a

    def test_empty_conventions(self, square):
        empty_rule = CommitteeRule(2, [])
        assert empty_rule.evaluate(square, (square.top, square.top)) == square.bottom
        floor_rule = CommitteeRule(2, [(frozenset(), square.element("x"))])
        assert floor_rule.evaluate(square, (square.bottom,) * 2) == square.element("x")

    def test_arity_validation(self, square):
        with pytest.raises(ArityMismatchError):
            CommitteeRule(2, [(frozenset({5}), square.top)])
        rule = CommitteeRule(2, [(frozenset({0}), square.top)])
        for ballots in ((square.top,), (square.top,) * 3):
            with pytest.raises(ArityMismatchError, match="expected 2 ballots"):
                rule.evaluate(square, ballots)

    def test_evaluation_isotone(self, square):
        rng = random.Random(3)
        for _ in range(20):
            terms = [(frozenset(rng.sample(range(3), rng.randint(0, 3))),
                      rng.randrange(4)) for _ in range(4)]
            rule = CommitteeRule(3, terms)
            for ballots in itertools.product(range(4), repeat=3):
                out = rule.evaluate(square, ballots)
                for i in range(3):
                    for lifted in range(4):
                        if square.leq(ballots[i], lifted):
                            moved = list(ballots)
                            moved[i] = lifted
                            assert square.leq(out, rule.evaluate(square, moved))


class TestExtendedMedian:
    def test_strict_majority_quota(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        assert extended_median(square, (i, x, y)) == i
        assert extended_median(square, (x, x, y)) == x
        # n = 3 coincides with the ternary median
        for ballots in itertools.product(range(4), repeat=3):
            assert extended_median(square, ballots) == square.median(*ballots)

    def test_one_and_two_voters(self, square):
        for a in range(4):
            assert extended_median(square, (a,)) == a
            for b in range(4):
                assert extended_median(square, (a, b)) == square.meet(a, b)

    def test_needs_a_ballot(self, square):
        with pytest.raises(InvalidSizeError):
            extended_median(square, ())

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_majority_committee_rule(self, fixture, n, request):
        lat = request.getfixturevalue(fixture)
        rule = extended_median_rule(lat, n)
        if lat.m ** n <= 4096:
            profiles = itertools.product(range(lat.m), repeat=n)
        else:
            rng = random.Random(n)
            profiles = [tuple(rng.randrange(lat.m) for _ in range(n)) for _ in range(2000)]
        for ballots in profiles:
            assert extended_median(lat, ballots) == rule.evaluate(lat, ballots)

    @settings(max_examples=40, deadline=None)
    @given(poset=small_posets(), data=st.data())
    def test_matches_the_majority_committee_rule_on_random_lattices(self, poset, data):
        lat = build_ideal_lattice(*poset)
        ballots = tuple(data.draw(st.lists(st.integers(0, lat.m - 1),
                                           min_size=1, max_size=5)))
        rule = extended_median_rule(lat, len(ballots))
        assert extended_median(lat, ballots) == rule.evaluate(lat, ballots)

    def test_forty_ballots_within_a_second(self, square, monkeypatch):
        def too_slow(signum, frame):
            raise TimeoutError("40 ballots took over 1 s")

        def no_terms(*args):
            raise AssertionError("the 2^n-term majority rule was built")

        # building the committee rule's terms would take hours and gigabytes
        monkeypatch.setattr(rules, "extended_median_rule", no_terms)
        o, x, y, i = (square.element(s) for s in "0xy1")
        # x is below 21 of the 40 ballots and y below 21: the majority is 1
        ballots = (i,) * 11 + (x,) * 10 + (y,) * 10 + (o,) * 9
        previous = signal.signal(signal.SIGALRM, too_slow)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            assert extended_median(square, ballots) == i
            assert extended_median(square, ballots[1:] + (o,)) == o
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # an alarm that lands in a garbage-collector callback (hypothesis
        # installs one) is reported as unraisable and lost, so time it too
        assert time.perf_counter() - start < 1.0


class TestMedianTree:
    def test_single_voter_expansion(self, square):
        for p, q in itertools.product(range(4), repeat=2):
            if not square.leq(p, q):
                continue
            tree = build_canonical_median_tree([p, q], 1)
            for ballot in range(4):
                expected = square.join(p, square.meet(ballot, q))
                assert tree.evaluate(square, (ballot,)) == expected

    def test_corner_rule_table(self, corner_square):
        ids = {s: corner_square.element(s) for s in "abcd"}
        tree = build_canonical_median_tree(
            [ids["d"], ids["c"], ids["b"], ids["a"]], 2)
        for (s1, s2), out in CORNER_RULE_TABLE.items():
            got = tree.evaluate(corner_square, (ids[s1], ids[s2]))
            assert corner_square.names[got] == out

    def test_constant_tree(self, square):
        tree = build_canonical_median_tree([2] * 8, 3)
        for ballots in itertools.product(range(4), repeat=3):
            assert tree.evaluate(square, ballots) == 2

    def test_three_voter_shape(self, square):
        tree = build_canonical_median_tree(list(range(4)) + list(range(4)), 3)
        assert tree.corner_values() == (0, 1, 2, 3, 0, 1, 2, 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_voter(self, n):
        with pytest.raises(InvalidSizeError):
            MedianTree(n, (1,))

    def test_evaluation_needs_one_ballot_per_voter(self, square):
        tree = build_canonical_median_tree([0, 1, 2, 3], 2)
        for ballots in ((0,), (0, 0, 0)):
            with pytest.raises(ArityMismatchError, match="expected 2 ballots"):
                tree.evaluate(square, ballots)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fold_matches_recursive_oracle(self, square, cube3, n):
        rng = random.Random(n)
        for lat in (square, cube3):
            for _ in range(4):
                assert_fold_matches_oracle(lat, n, rng)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(poset=small_posets(), seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_fold_matches_oracle_on_random_lattices(self, n, poset, seed):
        lat = build_ideal_lattice(*poset)
        assume(lat.m ** n <= 2000)
        assert_fold_matches_oracle(lat, n, random.Random(seed))


class TestCornersAndConversion:
    def test_corners_of_corner_rule(self, corner_square):
        ids = {s: corner_square.element(s) for s in "abcd"}
        rule = ExplicitRule.from_function(
            full_spaces(corner_square, 2),
            lambda b: corner_square.element(
                CORNER_RULE_TABLE[(corner_square.names[b[0]],
                                   corner_square.names[b[1]])]))
        assert corners(rule, corner_square) == (ids["d"], ids["c"],
                                                ids["b"], ids["a"])

    def test_corners_constant(self, square):
        rule = ExplicitRule.from_function(full_spaces(square, 2), lambda b: 2)
        assert corners(rule, square) == (2, 2, 2, 2)

    def test_majority_corners_are_bit_majorities(self, square):
        # corner ballots are bottom/top, so each corner value is top exactly
        # when a strict majority votes top
        rule = extended_median_rule(square, 3)
        values = corners(rule, square)
        for idx, bits in enumerate(itertools.product((0, 1), repeat=3)):
            expected = square.top if sum(bits) >= 2 else square.bottom
            assert values[idx] == expected

    def test_corner_needs_bounds_in_space(self, chain4):
        a, b = chain4.element("a"), chain4.element("b")
        rule = ExplicitRule(((a, b), (a, b)), (0, 0, 0, 0))
        with pytest.raises(CornerNotInBallotSpaceError):
            corners(rule, chain4)

    @pytest.mark.parametrize("n", [21, 40])
    def test_corners_refuse_beyond_the_cap_before_evaluating(self, square, n,
                                                            monkeypatch):
        # the bound tabulate's fold keeps: 2^21 leaves exceed the 2^20 cap
        def refuse(self, lat, ballots):
            raise AssertionError("a corner was evaluated")

        monkeypatch.setattr(CommitteeRule, "evaluate", refuse)
        with pytest.raises(TooLargeError,
                           match=f"2\\^{n} corner leaves exceeds cap {EXPLICIT_TABLE_CAP}"):
            corners(CommitteeRule(n, [({0}, square.top)]), square)

    def test_single_voter_committee_form(self, square):
        for p, q in itertools.product(range(4), repeat=2):
            if not square.leq(p, q):
                continue
            tree = build_canonical_median_tree([p, q], 1)
            committee = tree_to_committee(tree, square)
            by_coalition = dict(committee.terms)
            assert by_coalition[frozenset()] == p
            assert by_coalition[frozenset({0})] == q
            for ballot in range(4):
                assert committee.evaluate(square, (ballot,)) == \
                    tree.evaluate(square, (ballot,))

    def test_majority_committee_constants(self, square):
        tree = build_canonical_median_tree(
            corners(extended_median_rule(square, 3), square), 3)
        committee = tree_to_committee(tree, square)
        for coalition, constant in committee.terms:
            expected = square.top if len(coalition) >= 2 else square.bottom
            assert constant == expected

    @pytest.mark.parametrize("fixture,n", [("square", 1), ("square", 2),
                                           ("square", 3), ("cube3", 2)])
    def test_committee_roundtrip(self, fixture, n, request):
        lat = request.getfixturevalue(fixture)
        rng = random.Random(n * 17 + lat.m)
        for _ in range(12):
            terms = [(frozenset(rng.sample(range(n), rng.randint(0, n))),
                      rng.randrange(lat.m)) for _ in range(rng.randint(0, 5))]
            rule = CommitteeRule(n, terms)
            spaces, table = tabulate(rule, lat)
            tree = build_canonical_median_tree(corners(rule, lat), n)
            assert tabulate(tree, lat, spaces)[1] == table
            back = tree_to_committee(tree, lat)
            assert tabulate(back, lat, spaces)[1] == table

    def test_committee_replays_trees_with_arbitrary_leaves(self, square, chain4, cube3):
        # a tree's leaves are its corner values only when they are monotone;
        # the committee form must follow the tree's values, not its leaves
        rng = random.Random(2327)
        relabelled = 0
        for lat in (square, chain4, cube3):
            for n in (1, 2, 3):
                for _ in range(30):
                    leaves = [rng.randrange(lat.m) for _ in range(2 ** n)]
                    tree = build_canonical_median_tree(leaves, n)
                    spaces, table = tabulate(tree, lat)
                    assert tabulate(tree_to_committee(tree, lat), lat, spaces)[1] == table
                    relabelled += corners(tree, lat) != tree.corner_values()
        assert relabelled > 100

    def test_corner_monotonicity_for_monotone_rules(self, square):
        rule = extended_median_rule(square, 3)
        committee = tree_to_committee(
            build_canonical_median_tree(corners(rule, square), 3), square)
        by_coalition = dict(committee.terms)
        for small, value in by_coalition.items():
            for big, other in by_coalition.items():
                if small < big:
                    assert square.leq(value, other)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_table_corners_match_corners_and_evaluation(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        rng = random.Random(lat.m * 31 + len(fixture))
        relabelled = 0
        for n in (1, 2, 3):
            for _ in range(6):
                relabelled += assert_table_corners_match(lat, n, rng)
        assert relabelled > 0

    @settings(max_examples=30, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_table_corners_match_on_random_lattices(self, poset, n, seed):
        lat = build_ideal_lattice(*poset)
        assume(2 <= lat.m and lat.m ** n <= 1000)
        assert_table_corners_match(lat, n, random.Random(seed))

    def test_table_corners_need_bounds_in_every_space(self, chain4, square):
        a, b, d, c = range(4)    # chain4: a < b < d < c
        for spaces in (((a, c), (a, b)), ((b, c), (c, a)), ((c, d, b),)):
            table = (0,) * math.prod(map(len, spaces))
            with pytest.raises(CornerNotInBallotSpaceError, match="cannot cast both"):
                table_corners(spaces, table, chain4)
        # a shuffled space: top (3) is cast first and bottom (0) third
        assert table_corners(((3, 1, 0, 2),), (2, 1, 0, 3), square) == (0, 2)


def assert_table_corners_match(lat, n, rng):
    """``table_corners`` of a naive table equals ``corners`` and the naive
    evaluation at every corner profile, for a random explicit rule over
    full, shuffled and restricted spaces (each holding both bounds), a tree
    with random leaves and a random committee rule.  Returns 1 when the
    tree's corners differ from its leaves."""
    bounds = ((lat.bottom, lat.top),) * n
    middle = [e for e in range(lat.m) if e not in (lat.bottom, lat.top)]

    def restricted():
        space = [lat.bottom, lat.top] + rng.sample(middle, rng.randint(0, len(middle)))
        rng.shuffle(space)
        return tuple(space)

    tree = build_canonical_median_tree([rng.randrange(lat.m) for _ in range(1 << n)], n)
    forms = [(tree, full_spaces(lat, n)),
             (CommitteeRule(n, random_terms(rng, lat, n, rng.randint(0, 4))),
              tuple(restricted() for _ in range(n)))]
    for spaces in (full_spaces(lat, n), tuple(tuple(rng.sample(range(lat.m), lat.m))
                                              for _ in range(n)),
                   tuple(restricted() for _ in range(n))):
        forms.append((ExplicitRule(spaces, [rng.randrange(lat.m)
                                            for _ in itertools.product(*spaces)]), spaces))
    for rule, spaces in forms:
        naive = evaluate_table(rule, lat, bounds)
        assert table_corners(spaces, evaluate_table(rule, lat, spaces), lat) == naive
        assert corners(rule, lat) == naive
    return int(corners(tree, lat) != tree.corner_values())


class TestBulkTabulate:
    """``tabulate`` folds trees and committee rules over all profiles at
    once; the rules' own per-cell evaluators are the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_trees_match_per_cell_evaluation(self, fixture, n, request):
        lat = request.getfixturevalue(fixture)
        rng = random.Random(f"tree-{fixture}-{n}")
        for _ in range(4):
            tree = MedianTree(n, [rng.randrange(lat.m) for _ in range(2 ** n)])
            assert_tabulate_matches_evaluate(tree, lat, full_spaces(lat, n))
            assert_tabulate_matches_evaluate(tree, lat, random_spaces(rng, lat, n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_committee_rules_match_per_cell_evaluation(self, fixture, n, request):
        lat = request.getfixturevalue(fixture)
        rng = random.Random(f"committee-{fixture}-{n}")
        everyone = frozenset(range(n))
        cases = [
            [],                                            # the bottom rule
            [(frozenset(), rng.randrange(lat.m))],         # empty coalition
            [(everyone, rng.randrange(lat.m)),             # repeated coalition
             (everyone, rng.randrange(lat.m))],
        ]
        cases += [random_terms(rng, lat, n, rng.randint(1, 5)) for _ in range(4)]
        for terms in cases:
            rule = CommitteeRule(n, terms)
            assert_tabulate_matches_evaluate(rule, lat, full_spaces(lat, n))
            assert_tabulate_matches_evaluate(rule, lat, random_spaces(rng, lat, n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("build, size, w", [
        (build_chain, 10, 2), (build_chain, 18, 3), (build_boolean_hypercube, 9, 2),
        (build_chain, 1, 1)])
    def test_wide_lanes_match_per_cell_evaluation(self, build, size, w, n):
        lat = build(size)
        rng = random.Random(f"wide-{build.__name__}-{size}-{n}")
        spaces = [random_spaces(rng, lat, n, most=12) for _ in range(2)]
        if lat.m ** n <= 6000:
            spaces.append(full_spaces(lat, n))
        assert rules.CodeLanes(lat, spaces[0]).w == w
        cases = [MedianTree(n, [rng.randrange(lat.m) for _ in range(2 ** n)])
                 for _ in range(3)]
        cases += [CommitteeRule(n, []),                                 # the bottom rule
                  CommitteeRule(n, [(frozenset(), rng.randrange(lat.m))])]  # empty coalition
        cases += [CommitteeRule(n, random_terms(rng, lat, n, rng.randint(1, 5)))
                  for _ in range(3)]
        for rule in cases:
            for s in spaces:
                assert_tabulate_matches_evaluate(rule, lat, s)

    @settings(max_examples=40, deadline=None)
    @given(poset=small_posets(), data=st.data())
    def test_bulk_tabulate_matches_per_cell_on_random_lattices(self, poset, data):
        lat = build_ideal_lattice(*poset)
        n = data.draw(st.integers(1, 3 if lat.m <= 8 else 2 if lat.m <= 32 else 1))
        element = st.integers(0, lat.m - 1)
        tree = MedianTree(n, data.draw(
            st.lists(element, min_size=2 ** n, max_size=2 ** n)))
        committee = CommitteeRule(n, data.draw(st.lists(
            st.tuples(st.frozensets(st.integers(0, n - 1)), element), max_size=5)))
        reordered = [data.draw(st.lists(element, min_size=1, unique=True))
                     for _ in range(n)]
        for rule in (tree, committee):
            assert_tabulate_matches_evaluate(rule, lat, full_spaces(lat, n))
            assert_tabulate_matches_evaluate(rule, lat, reordered)

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_explicit_rules_over_other_spaces_match_evaluation(self, fixture, n,
                                                               request):
        # the per-cell branch: the rule's spaces differ from those asked for
        lat = request.getfixturevalue(fixture)
        rng = random.Random(f"explicit-{fixture}-{n}")
        rule = ExplicitRule(full_spaces(lat, n),
                            [rng.randrange(lat.m) for _ in range(lat.m ** n)])
        restricted = ExplicitRule.from_function(random_spaces(rng, lat, n),
                                                lambda b: rng.randrange(lat.m))
        reordered = tuple(tuple(reversed(s)) for s in full_spaces(lat, n))
        cases = [(rule, reordered), (rule, random_spaces(rng, lat, n)),
                 (restricted, tuple(tuple(rng.sample(s, len(s))) for s in restricted.spaces)),
                 (restricted, tuple(s[:1] for s in restricted.spaces))]
        for explicit, spaces in cases:
            if spaces != explicit.spaces:
                assert_tabulate_matches_evaluate(explicit, lat, spaces)

    def test_arity_mismatch_is_still_raised(self, square):
        for rule in (MedianTree(2, [0, 1, 2, 3]),
                     CommitteeRule(2, [(frozenset({0}), 3)])):
            for spaces in ((), full_spaces(square, 1), full_spaces(square, 3)):
                with pytest.raises(ArityMismatchError):
                    tabulate(rule, square, spaces)

    def test_does_not_fall_back_to_per_cell_evaluation(self, square, monkeypatch):
        tree = MedianTree(2, [0, 1, 2, 3])
        committee = CommitteeRule(2, [(frozenset({0, 1}), 3), (frozenset({1}), 1)])
        spaces = full_spaces(square, 2)
        expected = [evaluate_table(rule, square, spaces) for rule in (tree, committee)]

        def refuse(self, lat, ballots):
            raise AssertionError("per-cell evaluation")

        monkeypatch.setattr(MedianTree, "evaluate", refuse)
        monkeypatch.setattr(CommitteeRule, "evaluate", refuse)
        assert [tabulate(rule, square)[1] for rule in (tree, committee)] == expected

    def test_fold_at_the_table_cap_builds_no_sweep_masks(self):
        # a cold fold of 4^10 cells: the decoded table is an 8 MiB tuple and
        # each lane int 1 MiB, while the sweeps' full-table ballot tiles and
        # head masks would add about 30 MiB
        lat = build_chain(4)
        rule = extended_median_rule(lat, 10)
        tracemalloc.start()
        try:
            table = tabulate(rule, lat)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 4 ** 10
        assert peak < 14 * 2 ** 20

    def test_cap_refusal_names_size_and_cap(self, square):
        # refused before any leaf or cell is built
        rule = CommitteeRule(30, [(frozenset({0, 1}), square.top)])
        with pytest.raises(TooLargeError,
                           match=f"{4 ** 30} entries exceeds cap {EXPLICIT_TABLE_CAP}"):
            tabulate(rule, square)
        one_ballot = ((square.top,),) * 21
        with pytest.raises(TooLargeError,
                           match=f"2\\^21 corner leaves exceeds cap {EXPLICIT_TABLE_CAP}"):
            tabulate(CommitteeRule(21, []), square, one_ballot)
        with pytest.raises(TooLargeError,
                           match=f"{4 ** 11} entries exceeds cap {EXPLICIT_TABLE_CAP}"):
            ExplicitRule(full_spaces(square, 11), ())


CHAIN4_TEXT = resources.files("medianvoting").joinpath("data/chain4.json").read_text()


class TestCodeLanes:
    def test_two_parses_of_one_file_share_their_lanes(self):
        first, second = (parse_lattice(json.loads(CHAIN4_TEXT)) for _ in range(2))
        assert first is not second
        spaces = full_spaces(first, 2)
        assert rules.CodeLanes.of(first, spaces) is rules.CodeLanes.of(second, spaces)

    def test_parsed_and_swept_lattices_are_not_kept_alive(self):
        # Lattice has __slots__ and no weak references, so count through gc
        def live():
            gc.collect()
            return sum(isinstance(o, Lattice) for o in gc.get_objects())

        before = live()
        for _ in range(20):
            lat = parse_lattice(json.loads(CHAIN4_TEXT))
            spaces, table = tabulate(extended_median_rule(lat, 2), lat)
            lanes = rules.CodeLanes.of(lat, spaces)
            assert lanes.first_failure(lanes.pack(table)) is None
        assert live() <= before + 1
