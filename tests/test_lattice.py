import itertools
import random

import pytest
from conftest import small_posets
from hypothesis import given, settings

from medianvoting.errors import (
    InvalidSizeError,
    NotALatticeError,
    NotAPosetError,
    NotBoundedError,
    NotDistributiveError,
    TooLargeError,
)
from medianvoting.lattice import (
    Lattice,
    Valuation,
    build_boolean_hypercube,
    build_chain,
    build_from_covers,
    build_ideal_lattice,
    build_product,
)


def order_isomorphic(a, b):
    """Brute-force order isomorphism check; fine for tiny lattices."""
    if a.m != b.m:
        return False
    for perm in itertools.permutations(range(b.m)):
        if all(a.leq(u, v) == b.leq(perm[u], perm[v])
               for u in range(a.m) for v in range(a.m)):
            return True
    return False


def downset_oracle(names, leq_pairs):
    """Independent order-ideal enumeration: filter all subsets directly."""
    n = len(names)
    index = {x: i for i, x in enumerate(names)}
    below = {i: {i} for i in range(n)}
    changed = True
    while changed:
        changed = False
        for lo, hi in leq_pairs:
            lo, hi = index[lo], index[hi]
            if not below[lo] <= below[hi]:
                below[hi] |= below[lo]
                changed = True
    ideals = []
    for bits in range(2 ** n):
        chosen = {i for i in range(n) if bits >> i & 1}
        if all(below[i] <= chosen for i in chosen):
            ideals.append(frozenset(chosen))
    return ideals


class NaiveLattice:
    """Test-only oracle: the order as up-set masks of the reflexive-transitive
    closure of the covers, least upper and greatest lower bounds found by
    scanning those masks, everything else derived from the definitions."""

    def __init__(self, m, covers):
        self.m = m
        up = [1 << v for v in range(m)]
        changed = True
        while changed:
            changed = False
            for a, b in covers:
                if up[a] | up[b] != up[a]:
                    up[a] |= up[b]
                    changed = True
        self.up = up
        everything = range(m)
        self.bottoms = [b for b in everything if all(self.leq(b, v) for v in everything)]
        self.tops = [t for t in everything if all(self.leq(v, t) for v in everything)]
        self.lub = [[self._least(a, b) for b in range(m)] for a in range(m)]
        self.glb = [[self._greatest(a, b) for b in range(m)] for a in range(m)]

    def leq(self, a, b):
        return bool(self.up[a] >> b & 1)

    def _least(self, a, b):
        uppers = self.up[a] & self.up[b]
        for u in range(self.m):
            if uppers >> u & 1 and uppers & ~self.up[u] == 0:
                return u
        return None

    def _greatest(self, a, b):
        lowers = [u for u in range(self.m) if self.leq(u, a) and self.leq(u, b)]
        for u in lowers:
            if all(self.leq(w, u) for w in lowers):
                return u
        return None

    def missing_bound(self):
        """The first pair, in (a, b) order, without a lub or a glb."""
        for a, b in itertools.product(range(self.m), repeat=2):
            if self.lub[a][b] is None or self.glb[a][b] is None:
                return a, b
        return None

    def distributes(self, a, b, c):
        join, meet = self.join, self.meet
        return meet(a, join(b, c)) == join(meet(a, b), meet(a, c))

    def error_class(self):
        """None for a distributive lattice, else the class it must raise."""
        if not self.bottoms or not self.tops:
            return NotBoundedError
        if self.missing_bound() is not None:
            return NotALatticeError
        if not all(self.distributes(*t) for t in itertools.product(range(self.m), repeat=3)):
            return NotDistributiveError
        return None

    def join(self, a, b):
        return self.lub[a][b]

    def meet(self, a, b):
        return self.glb[a][b]

    def median(self, a, b, c):
        join, meet = self.join, self.meet
        return join(join(meet(a, b), meet(b, c)), meet(a, c))

    def between(self, x, z, y):
        return self.leq(self.meet(x, y), z) and self.leq(z, self.join(x, y))

    def interval_mask(self, x, y):
        return sum(1 << z for z in range(self.m) if self.between(x, z, y))

    def lower_covers(self, x):
        below = [c for c in range(self.m) if c != x and self.leq(c, x)]
        return [c for c in below
                if not any(d != c and self.leq(c, d) for d in below)]

    def join_irreducibles(self):
        return {x for x in range(self.m) if len(self.lower_covers(x)) == 1}

    def ranks(self):
        ji = self.join_irreducibles()
        return [sum(1 for j in ji if self.leq(j, x)) for x in range(self.m)]

    def complement(self, x):
        for y in range(self.m):
            if self.join(x, y) == self.tops[0] and self.meet(x, y) == self.bottoms[0]:
                return y
        return None

    def is_chain(self):
        return all(self.leq(a, b) or self.leq(b, a)
                   for a, b in itertools.combinations(range(self.m), 2))

    def is_boolean(self):
        return all(self.complement(x) is not None for x in range(self.m))


def assert_matches_oracle(lat):
    naive = NaiveLattice(lat.m, lat.covers)
    assert naive.error_class() is None
    for a, b in itertools.product(range(lat.m), repeat=2):
        assert lat.join(a, b) == naive.join(a, b)
        assert lat.meet(a, b) == naive.meet(a, b)
        assert lat.interval_mask(a, b) == naive.interval_mask(a, b)
    for a, b, c in itertools.product(range(lat.m), repeat=3):
        assert lat.median(a, b, c) == naive.median(a, b, c)
        assert lat.between(a, b, c) == naive.between(a, b, c)
    assert list(lat.rank_valuation().values) == naive.ranks()
    assert lat.join_irreducibles == naive.join_irreducibles()
    assert [lat.complement(x) for x in range(lat.m)] == \
        [naive.complement(x) for x in range(lat.m)]
    assert lat.is_chain() == naive.is_chain()
    assert lat.is_boolean() == naive.is_boolean()


def random_bounded_poset(rng, m):
    """A bounded poset on m elements with shuffled ids, as its cover relation."""
    ids = list(range(m))
    rng.shuffle(ids)  # ids[0] is the bottom, ids[-1] the top
    density = rng.random()
    less = {(i, j) for i in range(1, m - 1) for j in range(i + 1, m - 1)
            if rng.random() < density}
    less |= {(0, j) for j in range(1, m)} | {(i, m - 1) for i in range(1, m - 1)}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(less), repeat=2):
            if b == c and (a, d) not in less:
                less.add((a, d))
                changed = True
    covers = [(a, b) for a, b in less
              if not any((a, c) in less and (c, b) in less for c in range(m))]
    return [(ids[a], ids[b]) for a, b in sorted(covers)]


class TestAgainstOracle:
    @pytest.mark.parametrize("fixture",
                             ["square", "chain4", "cube3", "grid3x3", "corner_square"])
    def test_fixtures(self, fixture, request):
        assert_matches_oracle(request.getfixturevalue(fixture))

    @settings(max_examples=60, deadline=None)
    @given(small_posets())
    def test_ideal_lattices_of_random_posets(self, poset):
        assert_matches_oracle(build_ideal_lattice(*poset))

    def test_random_bounded_posets(self):
        rng = random.Random(20140619)
        kinds = {None: 0, NotALatticeError: 0, NotDistributiveError: 0}
        for _ in range(4000):
            m = rng.randint(2, 7)
            covers = random_bounded_poset(rng, m)
            names = [f"e{i}" for i in range(m)]
            naive = NaiveLattice(m, covers)
            expected = naive.error_class()
            kinds[expected] += 1
            if expected is None:
                build_from_covers(names, covers)
                continue
            with pytest.raises(expected) as err:
                build_from_covers(names, covers)
            if expected is NotALatticeError:
                assert err.value.witness == naive.missing_bound()
            else:
                assert not naive.distributes(*err.value.witness)
        assert min(kinds.values()) >= 20  # every outcome is exercised


class TestBuildFromCovers:
    def test_four_chain(self, chain4):
        assert chain4.is_chain()
        a, b, d, c = (chain4.element(s) for s in "abdc")
        assert chain4.lt(a, b) and chain4.lt(b, d) and chain4.lt(d, c)
        assert chain4.bottom == a and chain4.top == c

    def test_square(self, square):
        x, y = square.element("x"), square.element("y")
        assert not square.comparable(x, y)
        assert square.atoms == {x, y}
        assert square.is_boolean()

    def test_redundant_cover_rejected(self):
        with pytest.raises(NotAPosetError):
            build_from_covers(["p", "q", "r"],
                              [("p", "q"), ("p", "r"), ("q", "r")])

    def test_cycle_rejected(self):
        with pytest.raises(NotAPosetError):
            build_from_covers(["p", "q"], [("p", "q"), ("q", "p")])

    def test_unbounded_rejected(self):
        with pytest.raises(NotBoundedError):
            build_from_covers(["p", "q", "r", "s"], [("p", "r"), ("q", "s")])

    def test_non_lattice_rejected(self):
        # two minimal and two maximal elements crosswise: no lub for the bottom pair
        with pytest.raises((NotALatticeError, NotBoundedError)):
            build_from_covers(["p", "q", "r", "s"],
                              [("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")])

    def test_non_distributive_pentagon(self):
        with pytest.raises(NotDistributiveError) as err:
            build_from_covers(["0", "u", "v", "w", "1"],
                              [("0", "u"), ("u", "w"), ("w", "1"),
                               ("0", "v"), ("v", "1")])
        assert err.value.witness is not None

    def test_non_distributive_diamond(self):
        with pytest.raises(NotDistributiveError):
            build_from_covers(["0", "u", "v", "w", "1"],
                              [("0", "u"), ("0", "v"), ("0", "w"),
                               ("u", "1"), ("v", "1"), ("w", "1")])

    @pytest.mark.parametrize("names, covers, first", [
        # p and q have the two minimal upper bounds r and s
        ("0pqrs1", "0p 0q pr ps qr qs r1 s1", "pq"),
        # no two elements have the same join-irreducibles below them, and
        # adding an addable join-irreducible always gives some element's set,
        # but not always one above: atoms 1 and 3 have upper bounds 4 and 6
        ("01234567", "01 03 12 14 34 36 26 45 57 67", "13"),
        # no two elements have the same join-irreducibles below them, but one
        # down-set of the join-irreducibles is no element's set
        ("012345678", "01 04 12 16 23 25 38 45 47 58 67 78", None),
    ])
    def test_bounded_non_lattice_names_first_pair(self, names, covers, first):
        covers = [tuple(pair) for pair in covers.split()]
        with pytest.raises(NotALatticeError) as err:
            build_from_covers(list(names), covers)
        a, b = err.value.witness
        ids = [(names.index(lo), names.index(hi)) for lo, hi in covers]
        assert (a, b) == NaiveLattice(len(names), ids).missing_bound()
        assert first is None or names[a] + names[b] == first
        assert f"({names[a]}, {names[b]}) has no" in str(err.value)

    @pytest.mark.parametrize("shape", ["pentagon", "diamond", "chain13xM3"])
    def test_non_distributive_witness_is_a_failing_triple(self, shape):
        if shape == "pentagon":
            names = ["0", "u", "v", "w", "1"]
            covers = [("0", "u"), ("u", "w"), ("w", "1"), ("0", "v"), ("v", "1")]
        elif shape == "diamond":
            names = ["0", "u", "v", "w", "1"]
            covers = [("0", "u"), ("0", "v"), ("0", "w"),
                      ("u", "1"), ("v", "1"), ("w", "1")]
        else:
            # 65 elements: the product of a 13-chain with the diamond M3
            diamond = [("0", "u"), ("0", "v"), ("0", "w"),
                       ("u", "1"), ("v", "1"), ("w", "1")]
            names = [f"{i}{t}" for i in range(13) for t in "0uvw1"]
            covers = [(f"{i}{lo}", f"{i}{hi}") for i in range(13) for lo, hi in diamond]
            covers += [(f"{i}{t}", f"{i + 1}{t}") for i in range(12) for t in "0uvw1"]
        with pytest.raises(NotDistributiveError) as err:
            build_from_covers(names, covers)
        index = {n: i for i, n in enumerate(names)}
        naive = NaiveLattice(len(names), [(index[a], index[b]) for a, b in covers])
        assert naive.missing_bound() is None
        a, b, c = err.value.witness
        assert not naive.distributes(a, b, c)
        assert str(err.value).endswith(f"({names[a]}, {names[b]}, {names[c]})")

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            build_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")],
                              size_cap=2)


class TestConstructors:
    def test_chain_sizes(self):
        single = build_chain(1)
        assert single.bottom == single.top
        two = build_chain(2)
        assert two.m == 2 and two.is_boolean()
        with pytest.raises(InvalidSizeError):
            build_chain(0)

    def test_chain_matches_cover_built(self, chain4):
        assert order_isomorphic(build_chain(4), chain4)

    def test_hypercube(self, square, cube3):
        assert order_isomorphic(build_boolean_hypercube(2), square)
        assert len(cube3.atoms) == 3
        assert cube3.is_boolean()
        assert build_boolean_hypercube(1).m == 2

    def test_product(self, square):
        twice = build_product(build_chain(2), build_chain(2))
        assert order_isomorphic(twice, square)
        trivial = build_product(build_chain(1), build_chain(3))
        assert order_isomorphic(trivial, build_chain(3))

    def test_grid_not_boolean(self, grid3x3):
        assert grid3x3.m == 9
        middles = [e for e in range(9) if grid3x3.complement(e) is None]
        assert len(middles) == 5  # edge midpoints and the centre

    def test_ideal_lattice_against_oracle(self, square):
        antichain = build_ideal_lattice(["p", "q"], [])
        assert antichain.m == len(downset_oracle(["p", "q"], []))
        assert order_isomorphic(antichain, square)

        two_chain = build_ideal_lattice(["p", "q"], [("p", "q")])
        assert two_chain.m == len(downset_oracle(["p", "q"], [("p", "q")]))
        assert order_isomorphic(two_chain, build_chain(3))

        empty = build_ideal_lattice([], [])
        assert empty.m == 1

        vee = build_ideal_lattice(["p", "q", "r"], [("p", "q"), ("p", "r")])
        assert vee.m == len(downset_oracle(["p", "q", "r"],
                                           [("p", "q"), ("p", "r")]))

    def test_ideal_lattice_bad_poset(self):
        with pytest.raises(NotAPosetError):
            build_ideal_lattice(["p", "q"], [("p", "q"), ("q", "p")])


class TestOperations:
    def test_median_examples(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        assert square.median(i, x, y) == i
        for a in range(4):
            assert square.median(square.bottom, a, square.top) == a
            for b in range(4):
                assert square.median(a, b, a) == a

    def test_between_examples(self, square, chain4, corner_square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        assert square.between(o, x, i)
        assert square.between(x, i, y)
        b, c, d = (corner_square.element(s) for s in "bcd")
        assert not corner_square.between(c, b, d)
        a, bb, dd, cc = (chain4.element(s) for s in "abdc")
        assert sorted(chain4.interval(dd, a)) == sorted([a, bb, dd])

    def test_interval(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        assert square.interval(x, x) == (x,)
        assert set(square.interval(x, y)) == {o, x, y, i}

    def test_rank_valuation(self, cube3, square):
        v = cube3.rank_valuation()
        for e in range(cube3.m):
            assert v[e] == cube3.names[e].count("1")
        assert v.distance(cube3.element("000"), cube3.element("111")) == 3
        w = square.rank_valuation()
        assert w[square.bottom] == 0
        assert w.distance(square.element("x"), square.element("y")) == 2
        for k in range(1, 6):
            chain = build_chain(k)
            assert list(chain.rank_valuation().values) == list(range(k))

    @pytest.mark.parametrize("values, first, message", [
        ({"0": 0, "x": 1, "y": 1, "1": 3}, "xy", "valuation identity fails"),
        ({"0": 0, "x": 0, "y": 1, "1": 1}, "0x", "not strictly increasing"),
    ])
    def test_invalid_valuation_names_first_pair(self, square, values, first, message):
        with pytest.raises(NotALatticeError) as err:
            Valuation(square, [values[name] for name in square.names])
        assert err.value.witness == tuple(square.element(name) for name in first)
        assert message in str(err.value)

    def test_distance_is_metric(self, square):
        v = square.rank_valuation()
        for a in range(4):
            assert v.distance(a, a) == 0
            for b in range(4):
                assert v.distance(a, b) == v.distance(b, a)
                assert (v.distance(a, b) == 0) == (a == b)

    def test_join_irreducibles_of_cube(self, cube3):
        units = {cube3.element(s) for s in ("001", "010", "100")}
        assert cube3.join_irreducibles == units
        assert cube3.atoms == units

    def test_sublattice(self, cube3):
        atoms = sorted(cube3.atoms)[:2]
        members = [cube3.bottom, atoms[0], atoms[1],
                   cube3.join(atoms[0], atoms[1])]
        sub = cube3.sublattice(members)
        assert sub.m == 4 and not sub.is_chain()
        with pytest.raises(NotALatticeError):
            cube3.sublattice([atoms[0], atoms[1]])  # join is missing


class TestStructuralInvariants:
    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_betweenness_median_agreement(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        for x, z, y in itertools.product(range(lat.m), repeat=3):
            assert lat.between(x, z, y) == (lat.median(x, y, z) == z)

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_join_meet_via_median(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        for a, b in itertools.product(range(lat.m), repeat=2):
            assert lat.join(a, b) == lat.median(a, b, lat.top)
            assert lat.meet(a, b) == lat.median(a, b, lat.bottom)

    def test_constructed_lattices_validate(self):
        # products and ideal lattices go through the same validation pipeline
        build_product(build_chain(3), build_boolean_hypercube(2))
        build_ideal_lattice(["p", "q", "r", "s"],
                            [("p", "r"), ("q", "r"), ("q", "s")])
