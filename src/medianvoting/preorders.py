"""Topped total preorders over a lattice carrier.

A preorder is stored as a rank vector (rank 0 = strictly best, single
element; smaller rank = better).  Totality and transitivity then hold by
encoding and only the canonical-form conditions need checking.
"""

from __future__ import annotations

import itertools

from .errors import (
    CarrierMismatchError,
    InvalidSizeError,
    NotConsistentError,
    NotHypercubeError,
    TooLargeError,
)
from .lattice import Lattice, _bits

DEFAULT_ENUM_CAP = 7


class TotalPreorder:
    """Topped total preorder as a canonical rank vector."""

    __slots__ = ("ranks",)

    def __init__(self, ranks):
        ranks = tuple(int(r) for r in ranks)
        if not ranks:
            raise InvalidSizeError("empty carrier")
        used = set(ranks)
        if used != set(range(max(ranks) + 1)):
            raise InvalidSizeError(f"ranks {sorted(used)} are not contiguous from 0")
        if ranks.count(0) != 1:
            raise InvalidSizeError("a topped preorder needs exactly one best element")
        self.ranks = ranks

    @property
    def m(self) -> int:
        return len(self.ranks)

    @property
    def top(self) -> int:
        return self.ranks.index(0)

    def rank(self, element: int) -> int:
        return self.ranks[element]

    def prefers(self, a: int, b: int) -> bool:
        """Weak preference a >= b."""
        return self.ranks[a] <= self.ranks[b]

    def strictly_prefers(self, a: int, b: int) -> bool:
        return self.ranks[a] < self.ranks[b]

    def indifferent(self, a: int, b: int) -> bool:
        return self.ranks[a] == self.ranks[b]

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


class StrictRelation:
    """A set of strict-preference pairs (better, worse) on m elements."""

    __slots__ = ("m", "pairs")

    def __init__(self, m, pairs):
        pairs = frozenset((int(a), int(b)) for a, b in pairs)
        for a, b in pairs:
            if a == b:
                raise InvalidSizeError(f"pair ({a}, {a}) is reflexive")
            if not (0 <= a < m and 0 <= b < m):
                raise InvalidSizeError(f"pair ({a}, {b}) is out of range")
        self.m = m
        self.pairs = pairs

    def __repr__(self):
        return f"StrictRelation(m={self.m}, pairs={sorted(self.pairs)})"


class PreferenceProfile:
    """One topped total preorder per voter, all on the same carrier."""

    __slots__ = ("prefs",)

    def __init__(self, prefs):
        prefs = tuple(prefs)
        if not prefs:
            raise InvalidSizeError("a profile needs at least one voter")
        m = prefs[0].m
        if any(p.m != m for p in prefs):
            raise CarrierMismatchError("profile mixes carriers of different size")
        self.prefs = prefs

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def m(self) -> int:
        return self.prefs[0].m

    def tops(self) -> tuple:
        return tuple(p.top for p in self.prefs)

    def __getitem__(self, voter):
        return self.prefs[voter]

    def __iter__(self):
        return iter(self.prefs)


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


def _enumerate_layered(lat: Lattice, admissible):
    """The topped preorders whose every rank class passes ``admissible``.

    Tops come in element-id order, and rank classes are placed top-down.
    ``admissible(top, placed, rest)`` lists, in ascending order, the
    nonempty submasks of ``rest`` (the unplaced elements) that may form the
    next rank class below the elements of ``placed``.  Only admissible
    classes are descended into, so a prefix-closed test yields the list of
    ``enumerate_topped_preorders`` filtered by it, in the same order.
    """
    full = (1 << lat.m) - 1
    out = []

    def descend(top, placed, rank, ranks):
        rest = full & ~placed
        if not rest:
            out.append(TotalPreorder(ranks))
            return
        for block in admissible(top, placed, rest):
            for e in _bits(block):
                ranks[e] = rank
            descend(top, placed | block, rank + 1, ranks)

    for t in range(lat.m):
        descend(t, 1 << t, 1, [0] * lat.m)
    return out


def enumerate_topped_preorders(lat: Lattice, cap: int = DEFAULT_ENUM_CAP):
    """All topped total preorders, deterministically ordered.

    Tops come in element-id order; the remaining elements are split into
    ordered indifference classes, first block enumerated by ascending bitmask.
    """
    _check_enum_cap(lat, cap)
    return _enumerate_layered(lat, lambda top, placed, rest: _submasks_ascending(rest))


def enumerate_unimodal(lat: Lattice, cap: int = DEFAULT_ENUM_CAP):
    """The unimodal topped preorders, in the order of
    ``enumerate_topped_preorders`` (the same list as filtering it with
    ``is_unimodal``).

    A preorder is unimodal iff each weak upper contour set, the elements of
    rank <= r, is convex: it holds the interval between any two of its
    elements.  These sets are exactly the unions of the first rank classes,
    so each class is admitted only if the elements placed so far, together
    with it, form a convex set.
    """
    _check_enum_cap(lat, cap)
    intervals = [[lat.interval_mask(x, y) for y in range(lat.m)]
                 for x in range(lat.m)]
    convex = {}

    def is_convex(mask):
        if mask not in convex:
            convex[mask] = all(intervals[x][y] & ~mask == 0
                               for x in _bits(mask) for y in _bits(mask))
        return convex[mask]

    def admissible(top, placed, rest):
        return [block for block in _submasks_ascending(rest)
                if is_convex(placed | block)]

    return _enumerate_layered(lat, admissible)


def enumerate_lsu(lat: Lattice, cap: int = DEFAULT_ENUM_CAP):
    """The locally strictly unimodal topped preorders, in the order of
    ``enumerate_topped_preorders`` (the same list as filtering it with
    ``is_locally_strictly_unimodal``).

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

    return _enumerate_layered(lat, admissible)


# -- strict relations and extension ----------------------------------------------


def strict_top_betweenness(lat: Lattice, x: int) -> StrictRelation:
    """y beats z whenever y lies strictly inside the segment from x to z."""
    pairs = []
    for z in range(lat.m):
        for y in _bits(lat.interval_mask(x, z)):
            if y != z:
                pairs.append((y, z))
    return StrictRelation(lat.m, pairs)


def _transitive_closure(m, pairs):
    succ = [0] * m
    for a, b in pairs:
        succ[a] |= 1 << b
    for k in range(m):
        bit = 1 << k
        reach_k = succ[k]
        for a in range(m):
            if succ[a] & bit:
                succ[a] |= reach_k
    return succ


def is_s_consistent(rel: StrictRelation) -> bool:
    """For a strict relation this is acyclicity of the transitive closure."""
    closure = _transitive_closure(rel.m, rel.pairs)
    return all(not closure[v] >> v & 1 for v in range(rel.m))


def _longest_path_ranks(elements, pairs):
    """Rank = length of the longest strict chain above, within ``elements``."""
    inside = set(elements)
    preds = {e: [] for e in elements}
    for a, b in pairs:
        if a in inside and b in inside:
            preds[b].append(a)
    ranks = {}

    def depth(v, trail):
        if v in ranks:
            return ranks[v]
        if v in trail:
            raise NotConsistentError("strict relation has a cycle", witness=v)
        trail.add(v)
        ranks[v] = max((depth(u, trail) + 1 for u in preds[v]), default=0)
        trail.discard(v)
        return ranks[v]

    for e in elements:
        depth(e, set())
    return ranks


def extend_to_total_preorder(rel: StrictRelation) -> TotalPreorder:
    """Canonical topped total preorder whose strict part contains the relation.

    Layers elements by longest chain above them; if that leaves several
    best elements, the smallest id stays on top and everything else is
    pushed down one rank.
    """
    if not is_s_consistent(rel):
        raise NotConsistentError("strict relation has a cycle")
    ranks = _longest_path_ranks(range(rel.m), rel.pairs)
    best = [e for e in range(rel.m) if ranks[e] == 0]
    if len(best) > 1:
        keep = min(best)
        ranks = {e: (0 if e == keep else r + 1) for e, r in ranks.items()}
    return TotalPreorder([ranks[e] for e in range(rel.m)])


# -- witness constructions --------------------------------------------------------


def build_three_class_witness(lat: Lattice, peak: int, ref: int) -> TotalPreorder:
    """peak alone on top, then the rest of [peak, ref], then everything else."""
    segment = lat.interval_mask(peak, ref)
    raw = []
    for e in range(lat.m):
        if e == peak:
            raw.append(0)
        elif segment >> e & 1:
            raw.append(1)
        else:
            raw.append(2)
    # a class may be empty (peak == ref, or the segment is the whole carrier)
    remap = {r: i for i, r in enumerate(sorted(set(raw)))}
    return TotalPreorder([remap[r] for r in raw])


def build_lsu_witness(lat: Lattice, peak: int, ref: int) -> TotalPreorder:
    """Locally strictly unimodal preorder: the segment [peak, ref] is layered
    above its complement, each part ordered by nearness to the peak."""
    rel = strict_top_betweenness(lat, peak)
    segment_mask = lat.interval_mask(peak, ref)
    segment = list(_bits(segment_mask))
    outside = [e for e in range(lat.m) if not segment_mask >> e & 1]
    inner = _longest_path_ranks(segment, rel.pairs)
    ranks = [0] * lat.m
    for e in segment:
        ranks[e] = inner[e]
    if outside:
        shift = max(inner.values()) + 1
        outer = _longest_path_ranks(outside, rel.pairs)
        for e in outside:
            ranks[e] = shift + outer[e]
    return TotalPreorder(ranks)
