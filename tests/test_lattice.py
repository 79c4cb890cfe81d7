import itertools
import random
import tracemalloc

import pytest
from conftest import seeded_poset, small_posets
from hypothesis import given, settings
from hypothesis import strategies as st

from medianvoting.errors import (
    InvalidSizeError,
    MedianVotingError,
    NotALatticeError,
    NotAPosetError,
    NotBoundedError,
    NotDistributiveError,
    TooLargeError,
)
from medianvoting.lattice import (
    DEFAULT_SIZE_CAP,
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

    @pytest.mark.parametrize("names, covers, message", [
        (["p", "q", "p"], [], "duplicate element names"),
        (["p", "q"], [("p", "z")], r"cover \(p, z\) names an unknown element"),
        (["p", "q"], [("p", 2)], r"cover \(p, 2\) names an unknown element"),
        (["p", "q"], [("p", "p")], r"cover \(p, p\) is a self-loop"),
        (["p", "q"], [("p", "q"), ("p", "q")], "duplicate cover"),
        # names are compared as the strings they are stored as
        ([1, "1"], [(0, 1)], "duplicate element names"),
        # a bool is neither an element id nor an element name
        (["p", "q"], [(True, 0)], r"cover \(True, 0\) has a bool endpoint"),
        (["True", "q"], [(True, "q")], r"cover \(True, q\) has a bool endpoint"),
    ])
    def test_malformed_covers_rejected(self, names, covers, message):
        with pytest.raises(NotAPosetError, match=message):
            Lattice(names, covers)

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
        # refused before any cover is read
        names = [f"e{i}" for i in range(DEFAULT_SIZE_CAP + 1)]
        with pytest.raises(TooLargeError, match=f"{len(names)} elements exceeds cap 4096"):
            build_from_covers(names, [("e0", "nowhere")])

    def test_empty_carrier_rejected(self):
        with pytest.raises(InvalidSizeError, match="at least one element"):
            Lattice([], [])


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

    def test_product_covers_in_upper_cover_order(self, corner_square):
        # factors whose cover lists are not sorted by their ids
        shuffled = build_from_covers(["d", "b", "c", "a"],
                                     [("c", "a"), ("d", "c"), ("b", "a"), ("d", "b")])
        vee = build_ideal_lattice(["r", "p", "q"], [("p", "q"), ("r", "q")])
        for a, b in itertools.permutations([shuffled, vee, corner_square], 2):
            expected = [(i * b.m + j, i2 * b.m + j2)
                        for i in range(a.m) for j in range(b.m)
                        for i2, j2 in [(i2, j) for i2 in a.upper_covers(i)]
                        + [(i, j2) for j2 in b.upper_covers(j)]]
            assert build_product(a, b).covers == tuple(expected)

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
        with pytest.raises(NotAPosetError, match="duplicate poset element names"):
            build_ideal_lattice(["p", "p"], [])
        with pytest.raises(NotAPosetError, match=r"pair \(p, r\) names an unknown element"):
            build_ideal_lattice(["p", "q"], [("p", "r")])

    def test_constructors_refuse_past_the_size_cap(self):
        with pytest.raises(InvalidSizeError, match="dimension must be at least 1"):
            build_boolean_hypercube(0)
        with pytest.raises(TooLargeError, match="2\\^13 elements exceeds cap 4096"):
            build_boolean_hypercube(13)
        assert build_boolean_hypercube(12).m == DEFAULT_SIZE_CAP
        with pytest.raises(TooLargeError, match="4160 elements exceeds cap 4096"):
            build_product(build_chain(65), build_chain(64))
        # an antichain of 13 points has 2^13 order ideals
        with pytest.raises(TooLargeError, match="more than 4096 order ideals"):
            build_ideal_lattice([f"p{i}" for i in range(13)], [])

    def test_ideal_search_stops_at_the_cap_inside_a_level(self):
        # a 20-point antichain has 2^20 order ideals, 184,756 of them on its
        # widest level alone; the search refuses once it has found more than
        # the cap, before any such level is built
        names = [f"p{i}" for i in range(20)]
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="more than 4096 order ideals"):
                build_ideal_lattice(names, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20
        assert build_ideal_lattice(names[:12], []).m == DEFAULT_SIZE_CAP


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


class ScanLattice(Lattice):
    """Test-only oracle: the constructor with the distributivity proof it had
    before the cover count.  Each join-irreducible's bit is set on every
    element of its up-set, and every (element, addable join-irreducible)
    pair is checked to grow into the code of an element above."""

    __slots__ = ()

    def _encode(self, order, succ, irreducibles):
        lower_count = [0] * self.m
        for _, b in self.covers:
            lower_count[b] += 1
        irreducibles = [x for x in range(self.m) if lower_count[x] == 1]
        code = [0] * self.m
        for k, j in enumerate(irreducibles):
            for x in range(self.m):
                if self._up[j] >> x & 1:
                    code[x] |= 1 << k
        decode = {c: x for x, c in enumerate(code)}
        if len(decode) != self.m:
            self._raise_missing_bound()
        self._irreducibles = tuple(irreducibles)
        self._code = code
        self._decode = decode
        lower = [code[j] & ~(1 << k) for k, j in enumerate(irreducibles)]
        for x, c in enumerate(code):
            for k, j in enumerate(irreducibles):
                grown = c | 1 << k
                if grown == c or lower[k] & ~c:
                    continue
                y = decode.get(grown)
                if y is None or not self._up[x] >> y & 1:
                    self._raise_missing_bound()
                    self._raise_not_distributive(x, j)
        self.join_irreducibles = frozenset(irreducibles)
        self.atoms = frozenset(
            x for x in irreducibles
            if self._down[x] == (1 << x) | (1 << self.bottom))


def build_outcome(cls, names, covers):
    """Every field of the built lattice, or the refusal's class, message
    and witness."""
    try:
        lat = cls(names, covers)
    except MedianVotingError as err:
        return type(err), str(err), err.witness
    return (lat.names, lat.covers, lat.bottom, lat.top, lat.atoms,
            lat.join_irreducibles, lat._irreducibles, lat._code, lat._decode,
            lat._up, lat._down)


def assert_proof_matches_scan(names, covers):
    expected = build_outcome(ScanLattice, names, covers)
    assert build_outcome(Lattice, names, covers) == expected
    return expected


def bounded_hasse(names, leq_pairs):
    """The cover relation of a small poset with a new bottom and top added:
    a bounded poset that may or may not be a lattice."""
    p = len(names)
    index = {n: i for i, n in enumerate(names)}
    below = [1 << i for i in range(p)]
    changed = True
    while changed:
        changed = False
        for lo, hi in leq_pairs:
            merged = below[index[hi]] | below[index[lo]]
            if merged != below[index[hi]]:
                below[index[hi]] = merged
                changed = True
    strict = [below[i] & ~(1 << i) for i in range(p)]
    covers = [(names[i], names[j]) for j in range(p) for i in range(p)
              if strict[j] >> i & 1
              and not any(strict[j] >> k & 1 and strict[k] >> i & 1 for k in range(p))]
    covers += [("bot", n) for i, n in enumerate(names) if not strict[i]]
    covers += [(n, "top") for i, n in enumerate(names)
               if not any(strict[j] >> i & 1 for j in range(p))]
    return ["bot", *names, "top"], covers or [("bot", "top")]


# Hand-made cases, as (names, covers) in "lo<hi" notation.
PENTAGON = ("0 u v w 1", "0<u u<w w<1 0<v v<1")
DIAMOND = ("0 u v w 1", "0<u 0<v 0<w u<1 v<1 w<1")
# a and b have two minimal upper bounds, ab and bc.  The codes are
# injective and the addable pairs as many as the covers (10), but the cover
# (b, bc) adds both a and c
TWO_BIT_COVER = ("0 a b c ab bc d 1",
                 "0<a 0<b a<c a<ab b<ab b<bc c<bc ab<d d<1 bc<1")
# a and b have two minimal upper bounds, ab and abc.  The addable pairs are
# as many as the covers (10), but abc and 1 have the same code {a, b, c}
COLLIDING_CODES = ("0 a b c ab abc 1",
                   "0<a 0<b 0<c a<ab b<ab a<abc b<abc c<abc ab<1 abc<1")


def hand_made(case):
    names, covers = case
    return names.split(), [tuple(pair.split("<")) for pair in covers.split()]


class TestCoverCountProof:
    """The constructor's cover-count proof of distributivity against the
    per-(element, join-irreducible) scan it replaced (``ScanLattice``): the
    same lattice, or the same refusal with the same message and witness."""

    def test_random_bounded_posets(self):
        rng = random.Random(20140619)
        kinds = set()
        for _ in range(4000):
            m = rng.randint(2, 7)
            covers = random_bounded_poset(rng, m)
            outcome = assert_proof_matches_scan([f"e{i}" for i in range(m)], covers)
            kinds.add(outcome[0] if isinstance(outcome[0], type) else None)
        assert kinds == {None, NotALatticeError, NotDistributiveError}

    @settings(max_examples=100, deadline=None)
    @given(small_posets())
    def test_small_posets(self, poset):
        lat = build_ideal_lattice(*poset)
        assert_proof_matches_scan(lat.names, lat.covers)
        assert_proof_matches_scan(*bounded_hasse(*poset))

    @pytest.mark.parametrize("case, error", [
        (PENTAGON, NotDistributiveError),
        (DIAMOND, NotDistributiveError),
        (TWO_BIT_COVER, NotALatticeError),
        (COLLIDING_CODES, NotALatticeError),
    ])
    def test_hand_made(self, case, error):
        names, covers = hand_made(case)
        assert assert_proof_matches_scan(names, covers)[0] is error

    @pytest.mark.parametrize("case, injective, widest", [
        (TWO_BIT_COVER, True, 2), (COLLIDING_CODES, False, 2)])
    def test_hand_made_cases_pass_the_count(self, case, injective, widest):
        names, covers = hand_made(case)
        index = {n: i for i, n in enumerate(names)}
        ids = [(index[a], index[b]) for a, b in covers]
        naive = NaiveLattice(len(names), ids)
        irreducibles = sorted(naive.join_irreducibles())
        code = [sum(1 << k for k, j in enumerate(irreducibles) if naive.leq(j, x))
                for x in range(len(names))]
        addable = sum(1 for x in range(len(names)) for j in irreducibles
                      if not naive.leq(j, x)
                      and all(naive.leq(j2, x) for j2 in irreducibles
                              if j2 != j and naive.leq(j2, j)))
        assert addable == len(ids)
        assert (len(set(code)) == len(code)) == injective
        assert max(bin(code[a] ^ code[b]).count("1") for a, b in ids) == widest


def valuation_oracle(lat, values):
    """The pairwise check: the first (a, b), in id order, where the
    valuation identity or strict increase fails, with its message; None for
    a valuation."""
    naive = NaiveLattice(lat.m, lat.covers)
    for a, b in itertools.product(range(lat.m), repeat=2):
        if values[naive.join(a, b)] + values[naive.meet(a, b)] != values[a] + values[b]:
            return "valuation identity fails", (a, b)
        if a != b and naive.leq(a, b) and not values[a] < values[b]:
            return "valuation is not strictly increasing", (a, b)
    return None


class TestValuationAlongCovers:
    def assert_matches_pairwise(self, lat, values):
        expected = valuation_oracle(lat, values)
        if expected is None:
            assert Valuation(lat, values).values == tuple(values)
            return True
        with pytest.raises(NotALatticeError) as err:
            Valuation(lat, values)
        assert (str(err.value), err.value.witness) == expected
        return False

    def test_modular_and_perturbed_valuations(self, square, chain4, cube3, grid3x3):
        rng = random.Random(1406)
        lattices = [square, chain4, cube3, grid3x3]
        lattices += [build_ideal_lattice(*seeded_poset(rng, points, m))
                     for points, m in ((3, 5), (3, 6), (4, 7), (4, 8), (5, 10), (5, 12))]
        verdicts = set()
        for lat in lattices:
            naive = NaiveLattice(lat.m, lat.covers)
            irreducibles = sorted(naive.join_irreducibles())
            for _ in range(30):
                base = rng.randint(-5, 5)
                weights = {j: rng.randint(1, 4) for j in irreducibles}
                values = [base + sum(w for j, w in weights.items() if naive.leq(j, x))
                          for x in range(lat.m)]
                assert self.assert_matches_pairwise(lat, values)
                values[rng.randrange(lat.m)] += rng.choice([-3, -2, -1, 1, 2, 3])
                verdicts.add(self.assert_matches_pairwise(lat, values))
        assert verdicts == {True, False}  # a chain takes any increasing map


class TestIdealLatticeCovers:
    @staticmethod
    def double_loop(names, leq_pairs):
        """The ideal lattice's names and covers as listed before the search
        kept its steps: the ideals by size, then mask, and a cover for every
        ideal s and point i not in s with s plus i an ideal."""
        names = [str(n) for n in names]
        ideals = sorted((sum(1 << i for i in ideal)
                         for ideal in downset_oracle(names, leq_pairs)),
                        key=lambda s: (bin(s).count("1"), s))
        pos = {s: k for k, s in enumerate(ideals)}
        covers = []
        for s in ideals:
            for i in range(len(names)):
                if not s >> i & 1 and (s | 1 << i) in pos:
                    covers.append((pos[s], pos[s | 1 << i]))
        return (tuple("{" + ",".join(names[i] for i in range(len(names)) if s >> i & 1) + "}"
                      for s in ideals), tuple(covers))

    def assert_matches(self, names, leq_pairs):
        lat = build_ideal_lattice(names, leq_pairs)
        assert (lat.names, lat.covers) == self.double_loop(names, leq_pairs)

    @settings(max_examples=100, deadline=None)
    @given(small_posets())
    def test_small_posets(self, poset):
        self.assert_matches(*poset)

    @pytest.mark.parametrize("points, ideals", [
        (3, 5), (4, 9), (6, 20), (8, 50), (9, 100), (10, 200), (11, 400)])
    def test_seeded_posets(self, points, ideals):
        rng = random.Random(points * 1000 + ideals)
        self.assert_matches(*seeded_poset(rng, points, ideals))

    @pytest.mark.parametrize("points, ideals", [(12, 13), (12, 60), (12, 300)])
    def test_relations_against_point_order(self, points, ideals):
        # names reversed: every pair runs from a higher point id to a lower
        # one, and "p10" and "p11" sort before "p2" as strings
        rng = random.Random(points * 1000 + ideals)
        names, pairs = seeded_poset(rng, points, ideals)
        self.assert_matches(names[::-1], pairs)
        rng.shuffle(names)
        self.assert_matches(names, pairs)

    def test_reversed_chain(self):
        names = [f"p{i}" for i in range(12)]
        self.assert_matches(names, [(names[i + 1], names[i]) for i in range(11)])
        self.assert_matches(names, [(names[i], names[i + 1]) for i in reversed(range(11))])


class TestScanOnlyOnFailure:
    """The per-pair scan and the redundant-cover scan are the constructor's
    error paths: a cover-count check that always failed would still give
    every right answer through them, only slower.  So count their calls."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        for name in ("_reject_redundant_covers", "_scan_addable"):
            def counted(lat, name=name, scan=getattr(Lattice, name)):
                calls.append((name, lat.m))
                return scan(lat)

            monkeypatch.setattr(Lattice, name, counted)
        return calls

    def test_never_on_a_distributive_lattice(self, scans, request):
        for fixture in ("square", "chain4", "cube3", "grid3x3", "corner_square"):
            lat = request.getfixturevalue(fixture)  # built once per session
            build_from_covers(lat.names, lat.covers)
        assert build_boolean_hypercube(9).m == 512
        assert build_product(build_chain(16), build_chain(16)).m == 256
        assert build_ideal_lattice(*seeded_poset(random.Random(0), 11, 400)).m == 400
        assert scans == []

    def test_once_on_the_pentagon(self, scans):
        with pytest.raises(NotDistributiveError):
            build_from_covers(*hand_made(PENTAGON))
        assert scans == [("_reject_redundant_covers", 5), ("_scan_addable", 5)]

    @pytest.mark.parametrize("names, covers, error", [
        ("p q r s".split(), [("p", "r"), ("q", "s")], NotBoundedError),
        (*hand_made(COLLIDING_CODES), NotALatticeError),
    ])
    def test_first_on_every_other_failure_path(self, scans, names, covers, error):
        with pytest.raises(error):
            build_from_covers(names, covers)
        assert scans[0] == ("_reject_redundant_covers", len(names))


def first_redundant_cover(names, covers):
    """The redundant-cover rule as the constructor applied it before any
    other check on a cycle-free cover list: the first cover (a, b), in list
    order, with some c strictly between, naming the lowest such c."""
    naive = NaiveLattice(len(names), covers)
    for a, b in covers:
        between = [c for c in range(len(names))
                   if c not in (a, b) and naive.leq(a, c) and naive.leq(c, b)]
        if between:
            return (f"({names[a]}, {names[b]}) is not a cover: "
                    f"{names[between[0]]} lies strictly between", (a, b))
    return None


class TestRedundantCoverOnFailurePaths:
    """A comparable non-cover pair added to the covers of a lattice is refused
    as the redundant-cover rule says, although its scan runs only once another
    check has failed: alone, with a lost bound and with colliding codes."""

    @settings(max_examples=150, deadline=None)
    @given(small_posets(), st.randoms(use_true_random=False),
           st.sampled_from(["alone", "no top", "no bottom", "twin"]))
    def test_same_refusal_as_the_old_rule(self, poset, rng, defect):
        lat = build_ideal_lattice(*poset)
        extra = [(a, b) for a in range(lat.m) for b in range(lat.m)
                 if lat.lt(a, b) and b not in lat.upper_covers(a)]
        twins = [x for x in range(lat.m) if len(lat.lower_covers(x)) > 1 and x != lat.top]
        if not extra or defect == "twin" and not twins:
            return
        names, covers = list(lat.names), list(lat.covers)
        new = len(names)
        if defect == "no top":  # a second maximal element
            names.append("new")
            covers.append((rng.choice([y for y in range(new) if y != lat.top]), new))
        elif defect == "no bottom":  # a second minimal element
            names.append("new")
            covers.append((new, rng.choice([y for y in range(new) if y != lat.bottom])))
        elif defect == "twin":  # same lower and upper covers as x: same code
            x = rng.choice(twins)
            names.append("twin")
            covers += [(y, new) for y in lat.lower_covers(x)]
            covers += [(new, y) for y in lat.upper_covers(x)]
        if defect != "alone":  # the defect alone is refused
            with pytest.raises(NotALatticeError if defect == "twin" else NotBoundedError):
                Lattice(names, covers)
        for pair in rng.sample(extra, min(len(extra), rng.randint(1, 2))):
            covers.insert(rng.randint(0, len(covers)), pair)
        expected = first_redundant_cover(names, covers)
        with pytest.raises(NotAPosetError) as err:
            Lattice(names, covers)
        assert (str(err.value), err.value.witness) == expected
