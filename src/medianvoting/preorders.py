"""Topped total preorders over a lattice carrier.

A preorder is stored as a rank vector (rank 0 = strictly best, single
element; smaller rank = better).  Totality and transitivity then hold by
encoding and only the canonical-form conditions need checking.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import (
    CarrierMismatchError,
    InvalidSizeError,
    NotHypercubeError,
    TooLargeError,
)
from .lattice import Lattice, _bits

DEFAULT_ENUM_CAP = 7


class TotalPreorder:
    """Topped total preorder as a canonical rank vector; ``top`` is the
    strictly best element, stored at construction, and ``better`` its
    strictly-better masks, built on first use."""

    __slots__ = ("ranks", "top", "_better")

    def __init__(self, ranks):
        ranks = tuple(ranks)
        if any(type(r) is not int for r in ranks):
            raise InvalidSizeError(f"ranks {list(ranks)} are not all integers")
        if not ranks:
            raise InvalidSizeError("empty carrier")
        used = set(ranks)
        if used != set(range(max(ranks) + 1)):
            raise InvalidSizeError(f"ranks {sorted(used)} are not contiguous from 0")
        if ranks.count(0) != 1:
            raise InvalidSizeError("a topped preorder needs exactly one best element")
        self.ranks = ranks
        self.top = ranks.index(0)
        self._better = None

    @property
    def m(self) -> int:
        return len(self.ranks)

    def rank(self, element: int) -> int:
        return self.ranks[element]

    def strictly_prefers(self, a: int, b: int) -> bool:
        return self.ranks[a] < self.ranks[b]

    @property
    def better(self) -> tuple:
        """better[o]: bitmask of the elements ranked strictly above o."""
        if self._better is None:
            below = [0] * (max(self.ranks) + 2)    # below[r]: elements of rank < r
            for v, r in enumerate(self.ranks):
                below[r + 1] |= 1 << v
            for r in range(1, len(below)):
                below[r] |= below[r - 1]
            self._better = tuple(below[r] for r in self.ranks)
        return self._better

    def classes(self) -> tuple:
        """Indifference classes, best first, each sorted by element id."""
        out = [[] for _ in range(max(self.ranks) + 1)]
        for e, r in enumerate(self.ranks):
            out[r].append(e)
        return tuple(tuple(c) for c in out)

    @classmethod
    def from_classes(cls, classes, m=None) -> "TotalPreorder":
        size = m if m is not None else sum(len(c) for c in classes)
        ranks = [None] * size
        for r, cl in enumerate(classes):
            for e in cl:
                if not 0 <= e < size:
                    raise InvalidSizeError(f"element {e} is out of range for {size} elements")
                if ranks[e] is not None:
                    raise InvalidSizeError(f"element {e} listed twice")
                ranks[e] = r
        if any(r is None for r in ranks):
            raise InvalidSizeError("classes do not cover the carrier")
        return cls(ranks)

    def __eq__(self, other):
        return isinstance(other, TotalPreorder) and self.ranks == other.ranks

    def __hash__(self):
        return hash(self.ranks)

    def __repr__(self):
        return f"TotalPreorder({list(self.ranks)})"


def _check_carrier(p: TotalPreorder, lat: Lattice):
    if p.m != lat.m:
        raise CarrierMismatchError(
            f"preorder on {p.m} elements, lattice has {lat.m}")


# -- single-peakedness tests ---------------------------------------------------


def is_unimodal(p: TotalPreorder, lat: Lattice) -> bool:
    """Every element between x and y is weakly preferred to x or to y."""
    _check_carrier(p, lat)
    ranks = p.ranks
    for x in range(lat.m):
        for y in range(x, lat.m):
            threshold = max(ranks[x], ranks[y])
            for z in _bits(lat.interval_mask(x, y)):
                if ranks[z] > threshold:
                    return False
    return True


def is_locally_strictly_unimodal(p: TotalPreorder, lat: Lattice) -> bool:
    """Everything strictly between the top and y beats y strictly."""
    _check_carrier(p, lat)
    ranks = p.ranks
    t = p.top
    for y in range(lat.m):
        ry = ranks[y]
        for z in _bits(lat.interval_mask(t, y)):
            if z != y and ranks[z] >= ry:
                return False
    return True


def is_separable(p: TotalPreorder, lat: Lattice) -> bool:
    """On a Boolean hypercube of item sets: adding a good item always strictly
    helps and adding a bad one always strictly hurts.

    Every item must be strictly good ({a} beats the empty set) or strictly
    bad (the empty set beats {a}); an item tied with the empty set already
    disqualifies the preorder.  The items are the atoms.
    """
    _check_carrier(p, lat)
    if not lat.is_boolean():
        raise NotHypercubeError(f"{lat.m} elements but {len(lat.atoms)} atoms")
    ranks = p.ranks
    r_empty = ranks[lat.bottom]
    good = {a: ranks[a] < r_empty for a in lat.atoms}
    for e in range(lat.m):
        r_base = ranks[e]
        for a, helps in good.items():
            if lat.leq(a, e):
                continue
            r_grown = ranks[lat.join(e, a)]
            if helps:
                if not r_grown < r_base:
                    return False
            elif not r_base < r_grown:
                return False
    return True


# -- enumeration ----------------------------------------------------------------


def _submasks_ascending(mask):
    """Nonempty submasks of mask in increasing numeric order."""
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    out.reverse()
    return out


def _check_enum_cap(lat: Lattice, cap: int):
    if lat.m > cap:
        raise TooLargeError(f"enumeration over {lat.m} elements exceeds cap {cap}")


class LayeredSearch:
    """The topped preorders over an m-element carrier whose every rank class
    passes ``admissible``, split by top.

    Rank classes are placed top-down.  ``admissible(top, placed, rest)``
    lists, in ascending order, the nonempty submasks of ``rest`` (the
    unplaced elements) that may form the next rank class below the elements
    of ``placed``.  Only admissible classes are descended into, so for a
    prefix-closed test ``topped(t)`` lazily generates the preorders with top
    t of ``enumerate_topped_preorders`` that pass it, in the same order.
    Each preorder is generated once: a later ``topped(t)`` replays those
    generated so far, then goes on.  Iterating the search concatenates
    ``topped`` over the tops in element-id order.  ``count(t)`` counts the
    preorders with top t without building one, memoised per (top, placed)
    mask; ``top_bound`` bounds every ``count(t)`` without counting.
    """

    def __init__(self, m: int, admissible):
        self.m, self.admissible, self._kept, self._counts = m, admissible, {}, {}

    def topped(self, top: int):
        if top not in self._kept:
            self._kept[top] = [], self._generate(top)
        kept, source = self._kept[top]
        for k in itertools.count():
            if k == len(kept):
                pref = next(source, None)
                if pref is None:
                    return
                kept.append(pref)
            yield kept[k]

    def _generate(self, top):
        full, ranks = (1 << self.m) - 1, [0] * self.m

        def descend(placed, rank):
            rest = full & ~placed
            if not rest:
                yield TotalPreorder(ranks)
                return
            for block in self.admissible(top, placed, rest):
                for e in _bits(block):
                    ranks[e] = rank
                yield from descend(placed | block, rank + 1)

        return descend(1 << top, 1)

    def __iter__(self):
        return itertools.chain.from_iterable(map(self.topped, range(self.m)))

    @functools.cached_property
    def top_bound(self) -> int:
        """An upper bound on every ``count(t)``, known without counting: the
        topped preorders with one given top, which are the ordered set
        partitions of the other m - 1 elements (the ordered Bell number of
        m - 1), since ``topped(t)`` generates each of them at most once."""
        ordered = [1]    # ordered[k]: the ordered set partitions of k elements
        for k in range(1, self.m):
            ordered.append(sum(math.comb(k, j) * ordered[k - j] for j in range(1, k + 1)))
        return ordered[-1]

    def count(self, top: int) -> int:
        """How many preorders ``topped(top)`` generates."""
        return self._count(top, 1 << top)

    def _count(self, top, placed):
        if (top, placed) not in self._counts:
            rest = (1 << self.m) - 1 & ~placed
            self._counts[top, placed] = sum(
                self._count(top, placed | block)
                for block in self.admissible(top, placed, rest)) if rest else 1
        return self._counts[top, placed]


def enumerate_topped_preorders(lat: Lattice, cap: int = DEFAULT_ENUM_CAP):
    """All topped total preorders, deterministically ordered.

    Tops come in element-id order; the remaining elements are split into
    ordered indifference classes, first block enumerated by ascending bitmask.
    """
    _check_enum_cap(lat, cap)
    return list(LayeredSearch(lat.m, lambda top, placed, rest: _submasks_ascending(rest)))


def unimodal_search(lat: Lattice, cap: int = DEFAULT_ENUM_CAP) -> LayeredSearch:
    """The layered search of the unimodal topped preorders.

    A preorder is unimodal iff each weak upper contour set, the elements of
    rank <= r, is convex: it holds the interval between any two of its
    elements.  These sets are exactly the unions of the first rank classes.
    A nonempty convex set holds the meet and the join of its elements, so it
    is the interval between them, and every interval is convex.  So the
    classes admitted below ``placed`` are the ``s ^ placed`` for the
    intervals s strictly above ``placed``, ascending in s and so in class.
    """
    _check_enum_cap(lat, cap)
    intervals = sorted({lat.interval_mask(x, y) for x in range(lat.m) for y in range(x, lat.m)})

    def admissible(top, placed, rest):
        return [s ^ placed for s in intervals if s & placed == placed != s]

    return LayeredSearch(lat.m, admissible)


def lsu_search(lat: Lattice, cap: int = DEFAULT_ENUM_CAP) -> LayeredSearch:
    """The layered search of the locally strictly unimodal topped preorders.

    A preorder with top t is LSU iff every y ranks strictly below everything
    else in the interval [t, y].  So y may join a rank class only once
    ``interval_mask(t, y) & ~(1 << y)`` is already placed, and the classes
    admitted are the nonempty sets of such y.
    """
    _check_enum_cap(lat, cap)
    inside = [[lat.interval_mask(t, y) & ~(1 << y) for y in range(lat.m)]
              for t in range(lat.m)]

    def admissible(top, placed, rest):
        ready = 0
        for y in _bits(rest):
            if not inside[top][y] & ~placed:
                ready |= 1 << y
        return _submasks_ascending(ready)

    return LayeredSearch(lat.m, admissible)


def enumerate_unimodal(lat: Lattice, cap: int = DEFAULT_ENUM_CAP):
    """The unimodal topped preorders, in the order of
    ``enumerate_topped_preorders`` (the same list as filtering it with
    ``is_unimodal``): ``unimodal_search``, top by top."""
    return list(unimodal_search(lat, cap))


def enumerate_lsu(lat: Lattice, cap: int = DEFAULT_ENUM_CAP):
    """The locally strictly unimodal topped preorders, in the order of
    ``enumerate_topped_preorders`` (the same list as filtering it with
    ``is_locally_strictly_unimodal``): ``lsu_search``, top by top."""
    return list(lsu_search(lat, cap))


# -- witness constructions --------------------------------------------------------


def _ranked(lat: Lattice, ordered_classes) -> TotalPreorder:
    """``TotalPreorder.from_classes`` of the nonempty classes, best first,
    then one last class of the elements no class lists (if any)."""
    listed = {e for cls in ordered_classes for e in cls}
    leftover = [e for e in range(lat.m) if e not in listed]
    return TotalPreorder.from_classes([c for c in (*ordered_classes, leftover) if c], lat.m)


def build_three_class_witness(lat: Lattice, peak: int, ref: int) -> TotalPreorder:
    """peak alone on top, then the rest of [peak, ref], then everything else."""
    inner = [e for e in _bits(lat.interval_mask(peak, ref)) if e != peak]
    return _ranked(lat, [[peak], inner])


def build_lsu_witness(lat: Lattice, peak: int, ref: int) -> TotalPreorder:
    """Locally strictly unimodal preorder: the segment [peak, ref] is layered
    above its complement, each part ordered by nearness to the peak."""
    # y beats z whenever both lie in the same part and y lies strictly inside
    # [peak, z].  Then [peak, y] is smaller than [peak, z], so one pass in
    # order of interval size sees every such y before z.
    segment = lat.interval_mask(peak, ref)
    spans = [lat.interval_mask(peak, z) for z in range(lat.m)]
    depth = [0] * lat.m
    for z in sorted(range(lat.m), key=lambda z: spans[z].bit_count()):
        part = segment if segment >> z & 1 else ~segment
        depth[z] = max((depth[y] + 1 for y in _bits(spans[z] & part & ~(1 << z))),
                       default=0)
    shift = max(depth[e] for e in _bits(segment)) + 1
    return TotalPreorder([depth[e] + (0 if segment >> e & 1 else shift)
                          for e in range(lat.m)])
