import itertools
import random

import pytest
from conftest import (bundled_lattice, lsu_witness_oracle, seeded_ideal_lattice,
                      small_posets, within)
from hypothesis import assume, given, settings, strategies as st

from medianvoting.errors import (
    CarrierMismatchError,
    InvalidSizeError,
    NotHypercubeError,
    TooLargeError,
)
from medianvoting.lattice import build_boolean_hypercube, build_chain, build_ideal_lattice
from medianvoting.preorders import (
    LayeredSearch,
    TotalPreorder,
    _ranked,
    build_lsu_witness,
    build_three_class_witness,
    enumerate_lsu,
    enumerate_topped_preorders,
    enumerate_unimodal,
    is_locally_strictly_unimodal,
    is_separable,
    is_unimodal,
    lsu_search,
    unimodal_search,
)


def topped_preorder_oracle(m):
    """Independent count: every rank function that is canonical and topped."""
    found = set()
    for ranks in itertools.product(range(m), repeat=m):
        if ranks.count(0) != 1:
            continue
        if set(ranks) != set(range(max(ranks) + 1)):
            continue
        found.add(ranks)
    return found


def order_key(p):
    """The documented enumeration order: top, then the rank classes as
    bitmasks, compared class by class."""
    return (p.top,) + tuple(sum(1 << e for e in c) for c in p.classes()[1:])


def filter_oracle(lat, cap):
    """Generate every topped preorder, then filter: the reference for the
    direct enumerators, as ordered lists."""
    pool = enumerate_topped_preorders(lat, cap=cap)
    return ([p for p in pool if is_unimodal(p, lat)],
            [p for p in pool if is_locally_strictly_unimodal(p, lat)])


def assert_ranked_lists_classes_then_leftovers(lat, rng):
    """``_ranked`` of a top and up to three more classes, some empty, naming
    part of the carrier: its classes are the nonempty ones, each sorted,
    then the unnamed elements."""
    order = rng.sample(range(lat.m), lat.m)
    classes = [[order[0]]] + [[] for _ in range(rng.randint(0, 3))]
    named = rng.randint(1, lat.m) if len(classes) > 1 else 1
    for e in order[1:named]:
        classes[rng.randint(1, len(classes) - 1)].append(e)
    leftover = sorted(order[named:])
    expected = [tuple(sorted(c)) for c in classes if c] + ([tuple(leftover)] if leftover else [])
    assert _ranked(lat, classes).classes() == tuple(expected), classes


def assert_convex_sets_are_intervals(lat):
    """The nonempty masks that hold the interval between any two of their
    elements, found over all 2^m masks by that pairwise test, are exactly
    the intervals [a, b] with a <= b."""
    def members(mask):
        return [e for e in range(lat.m) if mask >> e & 1]

    convex = {mask for mask in range(1, 1 << lat.m)
              if all(lat.interval_mask(x, y) & ~mask == 0
                     for x in members(mask) for y in members(mask))}
    assert convex == {lat.interval_mask(a, b) for a in range(lat.m)
                      for b in range(lat.m) if lat.leq(a, b)}


def assert_direct_matches_filter(lat, cap=7, filtered=None):
    """``filtered``: the oracle's lists when a fixture has them already."""
    unimodal, strict = filtered or filter_oracle(lat, cap)
    assert enumerate_unimodal(lat, cap=cap) == unimodal
    assert enumerate_lsu(lat, cap=cap) == strict
    return len(unimodal), len(strict)


class TestTotalPreorder:
    def test_canonical_form_enforced(self):
        with pytest.raises(InvalidSizeError):
            TotalPreorder([0, 0, 1])      # two best elements
        with pytest.raises(InvalidSizeError):
            TotalPreorder([0, 2, 2])      # gap in the ranks
        with pytest.raises(InvalidSizeError, match="empty carrier"):
            TotalPreorder([])
        p = TotalPreorder([1, 0, 1])
        assert p.top == 1
        assert p.classes() == ((1,), (0, 2))

    @pytest.mark.parametrize("ranks", [[0, 1.7, 2.2], [0, True, 2], ["0", "1"]],
                             ids=["floats", "bool", "strings"])
    def test_non_integer_ranks_are_refused(self, ranks):
        with pytest.raises(InvalidSizeError, match="are not all integers"):
            TotalPreorder(ranks)

    def test_from_classes_roundtrip(self):
        p = TotalPreorder.from_classes([[2], [0, 3], [1]], m=4)
        assert p.ranks == (1, 2, 0, 1)
        assert p.strictly_prefers(2, 0)

    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_from_classes_refuses_out_of_range_ids(self, bad):
        with pytest.raises(InvalidSizeError, match=f"element {bad} is out of range"):
            TotalPreorder.from_classes([[0], [1], [bad]], m=3)

    def test_top_is_stored_and_identity_is_the_ranks(self):
        p, q = TotalPreorder([2, 1, 0, 1]), TotalPreorder((2, 1, 0, 1))
        assert p.top == 2 and "top" in TotalPreorder.__slots__
        assert p == q and hash(p) == hash((2, 1, 0, 1))
        assert p != TotalPreorder([0, 1, 2, 1])


class TestEnumeration:
    @pytest.mark.parametrize("m,count", [(2, 2), (3, 9), (4, 52)])
    def test_topped_counts_match_oracle(self, m, count):
        chain = build_chain(m)
        got = enumerate_topped_preorders(chain)
        oracle = topped_preorder_oracle(m)
        assert {p.ranks for p in got} == oracle
        assert len(got) == len(oracle) == count

    def test_enumeration_is_deterministic_and_top_ordered(self, square):
        pool = enumerate_topped_preorders(square)
        assert pool == enumerate_topped_preorders(square)
        tops = [p.top for p in pool]
        assert tops == sorted(tops)

    def test_cap(self):
        with pytest.raises(TooLargeError):
            enumerate_topped_preorders(build_boolean_hypercube(3))

    def test_square_families(self, square):
        assert len(enumerate_unimodal(square)) == 12
        assert len(enumerate_lsu(square)) == 12

    def test_three_chain_families(self):
        chain = build_chain(3)
        assert len(enumerate_unimodal(chain)) == 7
        assert len(enumerate_lsu(chain)) == 5

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_topped_order_is_the_documented_key(self, m):
        got = enumerate_topped_preorders(build_chain(m))
        expected = sorted((TotalPreorder(r) for r in topped_preorder_oracle(m)),
                          key=order_key)
        assert got == expected


class TestDirectEnumeration:
    """The direct enumerators against generate-then-filter, as ordered lists."""

    @pytest.mark.parametrize("name", ["boolean_square", "chain4", "theorem2_square"])
    def test_bundled_lattices(self, name):
        assert_direct_matches_filter(bundled_lattice(name))

    @pytest.mark.parametrize("fixture", ["square", "chain4", "corner_square"])
    def test_fixtures(self, fixture, request):
        assert_direct_matches_filter(request.getfixturevalue(fixture))

    def test_seven_element_carriers(self):
        assert assert_direct_matches_filter(build_chain(7)) == (956, 169)
        rng = random.Random(5120)
        for m in (5, 6, 7, 7):
            assert_direct_matches_filter(seeded_ideal_lattice(rng, m))

    def test_cube3_above_the_default_cap(self, cube3, cube3_filtered):
        cube = bundled_lattice("cube3")
        # the fixture's lists were filtered on the built cube: same ids
        assert (cube.names, sorted(cube.covers)) == (cube3.names, sorted(cube3.covers))
        # generate-then-filter counts on the 3-cube
        assert assert_direct_matches_filter(cube, cap=8,
                                            filtered=cube3_filtered) == (104, 1784)
        for enumerate_family in (enumerate_unimodal, enumerate_lsu):
            with pytest.raises(TooLargeError,
                               match="enumeration over 8 elements exceeds cap 7"):
                enumerate_family(cube)

    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_ideal_lattices_of_random_posets(self, poset):
        lat = build_ideal_lattice(*poset)
        assume(lat.m <= 6)
        assert_direct_matches_filter(lat)

    @pytest.mark.parametrize("fixture,unimodal,lsu", [("cube3", 104, 1784),
                                                      ("grid3x3", 355, 16449)])
    def test_domain_sizes_are_counted_without_generating(self, fixture, unimodal, lsu,
                                                         request, monkeypatch):
        lat = request.getfixturevalue(fixture)

        def refuse(self, top):
            raise AssertionError(f"generated the preorders with top {top}")

        monkeypatch.setattr(LayeredSearch, "topped", refuse)
        for search, expected in ((unimodal_search, unimodal), (lsu_search, lsu)):
            with within(1.0, f"{search.__name__} count on {fixture}"):
                found = search(lat, cap=lat.m)
                assert sum(map(found.count, range(lat.m))) == expected


def assert_counts_within_the_top_bound(lat):
    for search in (unimodal_search(lat, cap=lat.m), lsu_search(lat, cap=lat.m)):
        bound = search.top_bound
        counts = [search.count(t) for t in range(lat.m)]
        assert all(count <= bound for count in counts), (counts, bound)


class TestTopBound:
    """``LayeredSearch.top_bound`` against the counts it stands in for in
    the cap estimates."""

    def test_bound_is_the_topped_count_per_top(self):
        # the ordered Bell numbers of m - 1: every topped preorder with one top
        bounds = [LayeredSearch(m, None).top_bound for m in range(1, 8)]
        assert bounds == [1, 1, 3, 13, 75, 541, 4683]
        for m in range(1, 6):
            assert len(topped_preorder_oracle(m)) == m * bounds[m - 1]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_chains(self, m):
        assert_counts_within_the_top_bound(build_chain(m))

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_fixtures(self, fixture, request):
        assert_counts_within_the_top_bound(request.getfixturevalue(fixture))

    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_ideal_lattices_of_random_posets(self, poset):
        lat = build_ideal_lattice(*poset)
        assume(lat.m <= 7)
        assert_counts_within_the_top_bound(lat)


class TestConvexSets:
    """The lemma ``unimodal_search`` rests on: in a lattice the convex sets
    are the intervals."""

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_fixtures(self, fixture, request):
        assert_convex_sets_are_intervals(request.getfixturevalue(fixture))

    @settings(max_examples=40, deadline=None)
    @given(small_posets())
    def test_ideal_lattices_of_random_posets(self, poset):
        lat = build_ideal_lattice(*poset)
        assume(lat.m <= 10)
        assert_convex_sets_are_intervals(lat)


class TestSinglePeakedness:
    def test_unimodal_examples(self, square):
        ranks = {square.element(s): r
                 for s, r in (("1", 0), ("x", 1), ("0", 2), ("y", 2))}
        a_top = TotalPreorder([ranks[e] for e in range(4)])  # 1 > x > 0~y
        assert is_unimodal(a_top, square)
        bad = TotalPreorder.from_classes(
            [[square.element("x")], [square.element("y")],
             [square.element("0")], [square.element("1")]], m=4)
        assert not is_unimodal(bad, square)  # the top pair traps 1 below both

    def test_moulin_style_preorder_on_three_chain(self):
        chain = build_chain(3)
        p = TotalPreorder([0, 1, 1])  # best at the bottom, rest tied
        assert is_unimodal(p, chain)
        assert not is_locally_strictly_unimodal(p, chain)

    def test_lsu_trivial_on_two_elements(self):
        chain = build_chain(2)
        for p in enumerate_topped_preorders(chain):
            assert is_locally_strictly_unimodal(p, chain)

    def test_carrier_mismatch(self, square):
        with pytest.raises(CarrierMismatchError):
            is_unimodal(TotalPreorder([0, 1]), square)

    def test_separable_requires_hypercube(self, grid3x3):
        with pytest.raises(NotHypercubeError):
            is_separable(TotalPreorder([0] + [1] * 8), grid3x3)

    def test_separable_on_one_item_cube(self):
        segment = build_boolean_hypercube(1)
        for p in enumerate_topped_preorders(segment):
            assert is_separable(p, segment)

    def test_unimodal_template_not_separable(self, square):
        p = TotalPreorder.from_classes(
            [[square.element("1")],
             [square.element("x"), square.element("y"), square.element("0")]],
            m=4)
        assert is_unimodal(p, square)
        assert not is_separable(p, square)

    @pytest.mark.parametrize("k", [2, 3])
    def test_separable_equals_lsu_on_hypercubes(self, k, request):
        cube = build_boolean_hypercube(k)
        if k == 3:
            pool = request.getfixturevalue("cube3_topped")
            lsu = {p.ranks for p in request.getfixturevalue("cube3_filtered")[1]}
        else:
            pool = enumerate_topped_preorders(cube, cap=cube.m)
            lsu = {p.ranks for p in pool if is_locally_strictly_unimodal(p, cube)}
        separable = {p.ranks for p in pool if is_separable(p, cube)}
        assert lsu == separable

    @pytest.mark.parametrize("fixture", ["square", "chain4"])
    def test_filters_partition_the_enumeration(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        pool = enumerate_topped_preorders(lat, cap=lat.m)
        unimodal = set(enumerate_unimodal(lat, cap=lat.m))
        strict = set(enumerate_lsu(lat, cap=lat.m))
        for p in pool:
            assert (p in unimodal) == is_unimodal(p, lat)
            assert (p in strict) == is_locally_strictly_unimodal(p, lat)


class TestStrictRelations:
    def test_top_betweenness_square_atom(self, square):
        # peak alone in its segment: the rest is layered by betweenness
        # from the peak, so y, opposite x, comes last
        o, x, y, i = (square.element(s) for s in "0xy1")
        w = build_lsu_witness(square, x, x)
        assert w.ranks == tuple({x: 0, o: 1, i: 1, y: 2}[e] for e in range(4))
        for a, b in [(x, o), (x, y), (x, i), (o, y), (i, y)]:
            assert w.ranks[a] < w.ranks[b]


class TestWitnessBuilders:
    def test_three_class_shapes(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        w = build_three_class_witness(square, x, o)
        assert w.ranks[x] == 0 and w.ranks[o] == 1
        assert w.ranks[y] == w.ranks[i] == 2
        collapsed = build_three_class_witness(square, x, x)
        assert collapsed.ranks[x] == 0
        assert set(collapsed.ranks) == {0, 1}

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3"])
    def test_three_class_always_unimodal(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        for peak, ref in itertools.product(range(lat.m), repeat=2):
            assert is_unimodal(build_three_class_witness(lat, peak, ref), lat)

    def test_lsu_witness_square(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        w = build_lsu_witness(square, x, o)
        assert w.top == x and w.ranks[o] == 1
        assert w.ranks[i] < w.ranks[y]  # inside ordering follows the peak

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3"])
    def test_lsu_witness_always_strict(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        for peak, ref in itertools.product(range(lat.m), repeat=2):
            w = build_lsu_witness(lat, peak, ref)
            assert w.top == peak
            assert is_locally_strictly_unimodal(w, lat)
            segment = set(lat.interval(peak, ref))
            worst_inside = max(w.ranks[e] for e in segment)
            for e in range(lat.m):
                if e not in segment:
                    assert w.ranks[e] > worst_inside

    @pytest.mark.parametrize("fixture", ["square", "chain4", "corner_square",
                                         "cube3", "grid3x3"])
    def test_lsu_witness_matches_oracle(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        for peak, ref in itertools.product(range(lat.m), repeat=2):
            assert build_lsu_witness(lat, peak, ref) == \
                lsu_witness_oracle(lat, peak, ref), (peak, ref)

    @settings(max_examples=40, deadline=None)
    @given(poset=small_posets())
    def test_lsu_witness_matches_oracle_on_random_lattices(self, poset):
        lat = build_ideal_lattice(*poset)
        for peak, ref in itertools.product(range(lat.m), repeat=2):
            assert build_lsu_witness(lat, peak, ref) == \
                lsu_witness_oracle(lat, peak, ref), (peak, ref)

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_ranked_lists_nonempty_classes_then_leftovers(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        rng = random.Random(fixture)
        for _ in range(50):
            assert_ranked_lists_classes_then_leftovers(lat, rng)

    @settings(max_examples=40, deadline=None)
    @given(poset=small_posets(), seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_ranked_lists_nonempty_classes_then_leftovers_on_random_lattices(self, poset,
                                                                             seed):
        assert_ranked_lists_classes_then_leftovers(build_ideal_lattice(*poset),
                                                   random.Random(seed))

    def test_lsu_witness_descending_chain(self):
        chain = build_chain(4)
        w = build_lsu_witness(chain, 3, 3)
        assert w.ranks == (3, 2, 1, 0)
