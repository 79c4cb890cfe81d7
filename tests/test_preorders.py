import itertools
import random

import pytest
from conftest import seeded_ideal_lattice, small_posets
from hypothesis import assume, given, settings

from medianvoting.errors import (
    CarrierMismatchError,
    InvalidSizeError,
    NotConsistentError,
    NotHypercubeError,
    TooLargeError,
)
from medianvoting.cli import bundled_lattice
from medianvoting.lattice import build_boolean_hypercube, build_chain, build_ideal_lattice
from medianvoting.preorders import (
    PreferenceProfile,
    StrictRelation,
    TotalPreorder,
    build_lsu_witness,
    build_three_class_witness,
    enumerate_lsu,
    enumerate_topped_preorders,
    enumerate_unimodal,
    extend_to_total_preorder,
    is_locally_strictly_unimodal,
    is_s_consistent,
    is_separable,
    is_unimodal,
    strict_top_betweenness,
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


def assert_direct_matches_filter(lat, cap=7):
    unimodal, strict = filter_oracle(lat, cap)
    assert enumerate_unimodal(lat, cap=cap) == unimodal
    assert enumerate_lsu(lat, cap=cap) == strict
    return len(unimodal), len(strict)


class TestTotalPreorder:
    def test_canonical_form_enforced(self):
        with pytest.raises(InvalidSizeError):
            TotalPreorder([0, 0, 1])      # two best elements
        with pytest.raises(InvalidSizeError):
            TotalPreorder([0, 2, 2])      # gap in the ranks
        p = TotalPreorder([1, 0, 1])
        assert p.top == 1
        assert p.classes() == ((1,), (0, 2))

    def test_from_classes_roundtrip(self):
        p = TotalPreorder.from_classes([[2], [0, 3], [1]], m=4)
        assert p.ranks == (1, 2, 0, 1)
        assert p.prefers(0, 1) and p.strictly_prefers(2, 0)
        assert p.indifferent(0, 3)

    def test_profile_carrier_check(self):
        with pytest.raises(CarrierMismatchError):
            PreferenceProfile([TotalPreorder([0, 1]), TotalPreorder([0, 1, 1])])


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

    def test_cube3_above_the_default_cap(self):
        cube = bundled_lattice("cube3")
        # generate-then-filter counts on the 3-cube
        assert assert_direct_matches_filter(cube, cap=8) == (104, 1784)
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
    def test_separable_equals_lsu_on_hypercubes(self, k):
        cube = build_boolean_hypercube(k)
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
    def test_top_betweenness_on_chain(self):
        chain = build_chain(4)
        rel = strict_top_betweenness(chain, 0)
        assert rel.pairs == {(i, j) for i in range(4) for j in range(4) if i < j}

    def test_top_betweenness_square_atom(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        rel = strict_top_betweenness(square, x)
        assert {(x, o), (x, y), (x, i), (o, y), (i, y)} <= rel.pairs
        for a, b in rel.pairs:
            assert (b, a) not in rel.pairs
        for e in range(4):
            if e != x:
                assert (x, e) in rel.pairs

    def test_s_consistency(self, square):
        assert is_s_consistent(StrictRelation(2, []))
        assert not is_s_consistent(StrictRelation(2, [(0, 1), (1, 0)]))
        assert not is_s_consistent(StrictRelation(3, [(0, 1), (1, 2), (2, 0)]))
        for peak in range(4):
            assert is_s_consistent(strict_top_betweenness(square, peak))

    def test_irreflexive_pairs_only(self):
        with pytest.raises(InvalidSizeError):
            StrictRelation(2, [(1, 1)])


class TestExtension:
    def test_empty_relation(self):
        p = extend_to_total_preorder(StrictRelation(3, []))
        assert p.ranks == (0, 1, 1)

    def test_chain_bottom_peak(self):
        chain = build_chain(3)
        p = extend_to_total_preorder(strict_top_betweenness(chain, 0))
        assert p.ranks == (0, 1, 2)

    def test_extension_is_strict(self, square, chain4, cube3):
        for lat in (square, chain4, cube3):
            for peak in range(lat.m):
                rel = strict_top_betweenness(lat, peak)
                ext = extend_to_total_preorder(rel)
                assert ext.top == peak
                for a, b in rel.pairs:
                    assert ext.strictly_prefers(a, b)
                assert is_locally_strictly_unimodal(ext, lat)

    def test_inconsistent_rejected(self):
        with pytest.raises(NotConsistentError):
            extend_to_total_preorder(StrictRelation(2, [(0, 1), (1, 0)]))

    def test_partial_tie_break(self):
        # two sources: the smaller id stays on top, the rest shifts down
        p = extend_to_total_preorder(StrictRelation(3, [(1, 2)]))
        assert p.ranks == (0, 1, 2)
        for a, b in [(1, 2)]:
            assert p.strictly_prefers(a, b)


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

    def test_lsu_witness_descending_chain(self):
        chain = build_chain(4)
        w = build_lsu_witness(chain, 3, 3)
        assert w.ranks == (3, 2, 1, 0)
