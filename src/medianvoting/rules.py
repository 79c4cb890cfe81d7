"""Voting-rule representations, each with one evaluator, and whole-table lanes.

Three interconvertible forms: explicit tables over per-voter ballot spaces,
committee lattice polynomials (join of capped coalition meets), and nested
median trees given by the rule's values on bottom/top corner profiles.
``tabulate`` materializes any of them as a table for the exhaustive sweeps.
Trees and committee rules are tabulated by running the median tree-automaton
on every profile at once: one fold over the voters on ``CodeLanes``, one
Birkhoff-code lane per cell (``Lattice._code``: join is ``|``, meet is ``&``),
turns the 2^n corner leaves into the table, decoded once.  The same lanes and
their kernel ``spread`` serve the sweeps of ``verify`` and ``suites``' mixes.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

from .errors import (
    ArityMismatchError,
    BallotOutOfSpaceError,
    CornerNotInBallotSpaceError,
    InvalidSizeError,
    TooLargeError,
)
from .lattice import Lattice

EXPLICIT_TABLE_CAP = 1 << 20


def full_spaces(lat: Lattice, n: int) -> tuple:
    space = tuple(range(lat.m))
    return (space,) * n


def check_table_size(sizes) -> int:
    """The cell count of a table over spaces of ``sizes`` (a sequence),
    refused beyond ``EXPLICIT_TABLE_CAP``; callers ask before they build any
    cell or profile of it.  A running product of n factors is quadratic in
    n, so past the cap the count raises each size to its multiplicity."""
    size = 1
    for k in sizes:
        size *= k
        if size > EXPLICIT_TABLE_CAP:
            return _counted_size(collections.Counter(sizes))
    return size


def check_full_table_size(m: int, n: int) -> int:
    """``check_table_size([m] * n)``, the cells of an n-voter table over an
    m-element carrier, without building more than 21 sizes: past that a
    carrier of two or more elements is past the cap.  A one-element carrier
    has one cell at every n, so there more than the cap of voters, whose n
    ballot spaces callers would build, is refused instead."""
    if n <= EXPLICIT_TABLE_CAP.bit_length():
        return check_table_size([m] * n)
    size = _counted_size({m: n})
    if n > EXPLICIT_TABLE_CAP:
        raise TooLargeError(f"table over {n} ballot spaces exceeds cap {EXPLICIT_TABLE_CAP}")
    return size


def _counted_size(counts) -> int:
    """The product of k ** e over ``counts`` ({size k: multiplicity e}),
    refused beyond ``EXPLICIT_TABLE_CAP``.  Past the int-to-str digit limit
    a size is named by its bit length, so a product whose bits surely pass
    it (more than 2^16) is never built: ``_log2_floor_text`` reads the bit
    length off the multiplicities."""
    if 0 in counts:
        return 0
    counts = {k: e for k, e in counts.items() if k > 1 and e}
    if sum(e * (k.bit_length() - 1) for k, e in counts.items()) > 1 << 16:
        shown = f"at least 2^{_log2_floor_text(counts)}"
    else:
        size = math.prod(k ** e for k, e in counts.items())
        if size <= EXPLICIT_TABLE_CAP:
            return size
        shown = size if size.bit_length() <= 4096 else f"at least 2^{size.bit_length() - 1}"
    raise TooLargeError(f"table of {shown} entries exceeds cap {EXPLICIT_TABLE_CAP}")


def _log2_floor_text(counts) -> str:
    """floor(log2) of the product of k ** e over ``counts``, all k >= 2,
    never too high: exact over the powers of two, and over the other k
    summed to 60 digits and lowered by a relative 10^-40, far above the
    rounding error, so exact for sums below 10^39 except within that margin
    above an integer.  Written by ``Decimal``, which the int-to-str digit
    limit does not bind."""
    import decimal    # here: only astronomic tables need it, not every start
    whole = sum(e * (k.bit_length() - 1) for k, e in counts.items() if not k & k - 1)
    with decimal.localcontext() as context:
        context.prec = 60
        rest = sum(e * decimal.Decimal(k).ln() for k, e in counts.items() if k & k - 1)
        rest = int(rest / decimal.Decimal(2).ln() * (1 - decimal.Decimal("1e-40")))
    return str(decimal.Decimal(whole + rest))


def _check_corner_count(n: int) -> None:
    """Refuse a rule's 2^n corner leaves beyond the cap before any is built."""
    if n >= EXPLICIT_TABLE_CAP.bit_length():
        raise TooLargeError(f"rule of 2^{n} corner leaves exceeds cap {EXPLICIT_TABLE_CAP}")


def _strides(sizes) -> tuple:
    """Row-major strides of a table over spaces of the given sizes."""
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return tuple(out)


# -- lanes ------------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _line_masks(sizes: tuple, w: int) -> tuple:
    """Per voter the (shifts, rest, heads) of ``spread`` for w-byte lanes over
    spaces of ``sizes``; the heads are where the voter casts its first ballot."""
    count, out = math.prod(sizes), []
    for k, s in zip(sizes, _strides(sizes)):
        d, top = 8 * w * s, 1 << k.bit_length() - 1
        heads = int.from_bytes((b"\xff" * w * s + bytes(w * s * (k - 1))) * (count // (k * s)),
                               "little")
        out.append((tuple(d << j for j in range(top.bit_length() - 1)), (k - top) * d, heads))
    return tuple(out)


def spread(lanes: int, line) -> int:
    """``lanes`` OR-reduced along every line of one voter and broadcast back
    over the line, with ``line`` that voter's entry of ``_line_masks``.

    The lane kernel of the three sweeps.  A line's k cells lie d bits apart.
    With 2^a <= k < 2^(a+1), shifts down by d, 2d, ..., 2^(a-1)d leave in
    each lane the union of the 2^a cells from it up its line, and one more,
    by (k - 2^a)d, joins two such windows into exactly the k cells from a
    head.  The head mask drops the other lanes, and the same shifts up copy
    each head over its line.  Bitwise operations never carry across lanes,
    so one pass reduces every line at once.
    """
    shifts, rest, heads = line
    for s in shifts:
        lanes |= lanes >> s
    lanes = (lanes | lanes >> rest) & heads
    for s in shifts:
        lanes |= lanes << s
    return lanes | lanes << rest


class _Lanes:
    """Tables over ``spaces`` as lane ints: one little-endian int per table,
    one w-byte lane per cell in row-major order, ``lane[e]`` for element e.
    ``pack`` writes a table, ``constant`` one lane into every cell."""

    def __init__(self, spaces, lane):
        self.spaces, self.lane, self.w = spaces, lane, len(lane[0])
        self.sizes = tuple(map(len, spaces))
        self.strides, self.count = _strides(self.sizes), math.prod(self.sizes)

    def pack(self, table) -> int:
        """The table with ``lane[e]`` in each cell holding element e."""
        return int.from_bytes(b"".join(map(self.lane.__getitem__, table)), "little")

    def constant(self, lane: bytes) -> int:
        """The table with the w-byte ``lane`` in every cell."""
        return int.from_bytes(lane * self.count, "little")

    def lowest(self, lanes: int) -> int:
        """The index of the lowest nonzero lane of ``lanes``."""
        return ((lanes & -lanes).bit_length() - 1) // (8 * self.w)

    def at(self, c: int) -> tuple:
        """The ballot tuple of cell c."""
        return tuple(space[c // s % len(space)] for space, s in zip(self.spaces, self.strides))

    def line(self, table, c: int, i: int):
        """The ballots of cell c and the outcomes along voter i's line
        through it, in space order."""
        s = self.strides[i]
        off = c - c // s % self.sizes[i] * s
        return self.at(c), table[off:off + self.sizes[i] * s:s]

    def tile(self, i: int, lanes) -> int:
        """``lanes[b]`` in every lane where voter i casts a key b, else zero."""
        s, zero = self.strides[i], bytes(self.w)
        return int.from_bytes(b"".join([lanes.get(b, zero) * s for b in self.spaces[i]])
                              * (self.count // (self.sizes[i] * s)), "little")


class CodeLanes(_Lanes):
    """``_Lanes`` of w = max(1, ceil(|J|/8)) bytes holding each cell's
    Birkhoff code (``Lattice._code``).

    Join, meet and the median act on whole tables bitwise, since no operation
    carries a bit across lanes: med(A, B, C) = ``A&B | B&C | A&C``, and the
    constant table of element e is ``constant(lane[e])``.  ``of``
    keeps the lanes of the last few (codes, spaces) pairs.  The sweep masks
    and ballot tiles (``_sweep``) and the fold's ballot ints
    (``_fold_ballots``) are built on first use: ``tabulate`` reads only
    ``lane``, ``_fold_ballots`` and ``decode``, so every rule tabulated over
    one pair shares them.
    """

    _kept: dict = {}

    def __init__(self, lat: Lattice, spaces):
        w = max(1, -(-len(lat._irreducibles) // 8))
        super().__init__(spaces, [c.to_bytes(w, "little") for c in lat._code])

    @classmethod
    def of(cls, lat: Lattice, spaces: tuple) -> "CodeLanes":
        """The lanes of (``lat``, ``spaces``), built once per pair of codes
        and spaces: the sweeps ask for the same few pairs once per table.
        Keyed by the codes, not the lattice, so copies of one lattice (a
        file parsed once per command) share them and none is kept alive.
        The last 16 pairs are kept."""
        key, kept = (cls, tuple(lat._code), spaces), CodeLanes._kept
        if key not in kept:
            if len(kept) == 16:
                del kept[next(iter(kept))]
            kept[key] = cls(lat, spaces)
        return kept[key]

    @functools.cached_property
    def _sweep(self) -> tuple:
        """(full, lines, ballots): the all-ones table, the ``_line_masks`` of
        T stacked on ~T (one more, leading voter of two ballots) and each
        voter's ballot tile."""
        return ((1 << 8 * self.w * self.count) - 1, _line_masks((2,) + self.sizes, self.w)[1:],
                [self.tile(i, {b: self.lane[b] for b in space})
                 for i, space in enumerate(self.spaces)])

    @functools.cached_property
    def _fold_ballots(self) -> tuple:
        """Per voter, from the last to the first, ``_fold``'s x at that
        voter's level: each of its ballots' code repeated over the cells of
        the later voters' spaces, in space order."""
        out, cells = [], 1
        for space in reversed(self.spaces):
            out.append(int.from_bytes(b"".join([self.lane[b] * cells for b in space]), "little"))
            cells *= len(space)
        return tuple(out)

    def ballots(self, i: int) -> int:
        """Voter i's ballot code in every lane: the projection onto voter i."""
        return self._sweep[2][i]

    @functools.cached_property
    def decode(self):
        """The function from a lane int to its element-id table, built once.
        One-byte lanes go through one ``bytes.translate``.  Wider lanes are
        split into w byte planes (byte j of every lane is ``data[j::w]``) and
        zipped back into per-lane byte tuples, which key the element ids;
        nothing reads a lane as a native int, so the host's byte order never
        enters."""
        size, w = self.w * self.count, self.w
        key = {tuple(b): e for e, b in enumerate(self.lane)}
        if w == 1:
            ids = bytes(key.get((c,), 0) for c in range(256))
            return lambda cells: tuple(cells.to_bytes(size, "little").translate(ids))

        def decode(cells):
            data = cells.to_bytes(size, "little")
            return tuple(map(key.__getitem__, zip(*[data[j::w] for j in range(w)])))
        return decode

    def first_failure(self, cells: int):
        """The lowest (cell index, voter) whose cell fails interval
        monotonicity along that voter's line (the lower voter on a tie), or
        None; see ``verify.find_monotonicity_violation``."""
        (full, lines, tiles), bits = self._sweep, 8 * self.w * self.count
        first, stacked = (self.count, len(self.spaces)), cells | (cells ^ full) << bits
        for i, (line, ballots) in enumerate(zip(lines, tiles)):
            both = spread(stacked, line)
            fail = ballots & both & ~cells | cells & ~ballots & both >> bits
            if fail:
                first = min(first, (self.lowest(fail), i))
        return None if first[1] == len(self.spaces) else first


class ExplicitRule:
    """Rule given as a row-major table over the product of ballot spaces."""

    __slots__ = ("n", "spaces", "table", "_pos", "_strides")

    def __init__(self, spaces, table):
        self.spaces = tuple(map(tuple, spaces))
        self.n = len(self.spaces)
        if self.n == 0:
            raise InvalidSizeError("a rule needs at least one voter")
        self._pos = tuple({b: i for i, b in enumerate(s)} for s in self.spaces)
        sizes = list(map(len, self.spaces))
        for i, (size, pos) in enumerate(zip(sizes, self._pos)):
            if not size:
                raise InvalidSizeError("empty ballot space")
            if len(pos) != size:
                raise InvalidSizeError(f"voter {i} lists a ballot twice")
        size = check_table_size(sizes)
        self.table = tuple(table)
        if len(self.table) != size:
            raise InvalidSizeError(
                f"table has {len(self.table)} entries, expected {size}")
        self._strides = _strides(sizes)

    @classmethod
    def from_function(cls, spaces, fn) -> "ExplicitRule":
        spaces = tuple(tuple(s) for s in spaces)
        check_table_size([len(s) for s in spaces])
        table = [fn(ballots) for ballots in itertools.product(*spaces)]
        return cls(spaces, table)

    def index(self, ballots) -> int:
        if len(ballots) != self.n:
            raise ArityMismatchError(f"expected {self.n} ballots")
        idx = 0
        for i, b in enumerate(ballots):
            pos = self._pos[i].get(b)
            if pos is None:
                raise BallotOutOfSpaceError(
                    f"ballot {b} is not allowed for voter {i}")
            idx += pos * self._strides[i]
        return idx

    def evaluate(self, lat: Lattice, ballots) -> int:
        return self.table[self.index(ballots)]

    def ballot_spaces(self, lat: Lattice) -> tuple:
        return self.spaces


class CommitteeRule:
    """Join over coalition terms of (meet of the coalition's ballots) ^ constant.

    The empty coalition's meet is the top element; an empty term list
    evaluates to the bottom element.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = int(n)
        if self.n < 1:
            raise InvalidSizeError("a rule needs at least one voter")
        norm = []
        for coalition, constant in terms:
            coalition = frozenset(int(i) for i in coalition)
            if any(i < 0 or i >= self.n for i in coalition):
                raise ArityMismatchError(
                    f"coalition {sorted(coalition)} out of range for n={self.n}")
            norm.append((coalition, int(constant)))
        self.terms = tuple(norm)

    def evaluate(self, lat: Lattice, ballots) -> int:
        if len(ballots) != self.n:
            raise ArityMismatchError(f"expected {self.n} ballots")
        out = lat.bottom
        for coalition, constant in self.terms:
            part = constant
            for i in coalition:
                part = lat.meet(part, ballots[i])
                if part == lat.bottom:
                    break
            out = lat.join(out, part)
        return out

    def ballot_spaces(self, lat: Lattice) -> tuple:
        check_full_table_size(lat.m, self.n)    # before the n spaces are built
        return full_spaces(lat, self.n)


def _held_by(codes, top: int, k: int) -> list:
    """held[s], s = 0..k: the code bits set in at least s of ``codes``, the
    join over size-s coalitions of their meet (``top``, the top's code, at 0)."""
    held = [top] + [0] * k
    for x in codes:
        for s in range(k, 0, -1):
            held[s] |= held[s - 1] & x
    return held


def extended_median(lat: Lattice, ballots) -> int:
    """Simple majority: join of meets over all strict-majority coalitions,
    the join-irreducibles below at least n // 2 + 1 of the n ballots."""
    if not ballots:
        raise InvalidSizeError("a rule needs at least one voter")
    quota = len(ballots) // 2 + 1
    code = lat._code
    return lat._decode[_held_by([code[b] for b in ballots], code[lat.top], quota)[quota]]


def extended_median_rule(lat: Lattice, n: int) -> CommitteeRule:
    return CommitteeRule(n, [(frozenset(coalition), lat.top)
                             for size in range(n // 2 + 1, n + 1)
                             for coalition in itertools.combinations(range(n), size)])


# -- median trees -----------------------------------------------------------------


class MedianTree:
    """Perfectly nested median tree of depth n, stored as its 2^n corner values.

    The node at depth k takes voter k's ballot in the middle; the constant
    leaves are the corner values in binary order (voter 0 most significant,
    bottom = 0). ``evaluate`` is the behaviour of the median tree-automaton on
    this canonical term: the rule's value on a profile.
    """

    __slots__ = ("n", "_values")

    def __init__(self, n, corner_values):
        self.n = int(n)
        if self.n < 1:
            raise InvalidSizeError("a rule needs at least one voter")
        values = tuple(int(v) for v in corner_values)
        # the bit length first: 2 ** n is only built once n is known to be small
        if len(values).bit_length() != self.n + 1 or len(values) != 1 << self.n:
            need = 1 << self.n if self.n < 64 else f"2^{self.n}"
            raise InvalidSizeError(
                f"need {need} corner values for {self.n} voters, "
                f"got {len(values)}")
        self._values = values

    def evaluate(self, lat: Lattice, ballots) -> int:
        """Fold the leaves bottom-up: voter k merges each sibling pair of
        depth-(k+1) subtrees into med(left, ballots[k], right)."""
        if len(ballots) != self.n:
            raise ArityMismatchError(f"expected {self.n} ballots")
        median = lat.median
        values = self._values
        for k in range(self.n - 1, -1, -1):
            x = ballots[k]
            values = [median(values[j], x, values[j + 1])
                      for j in range(0, len(values), 2)]
        return values[0]

    def corner_values(self) -> tuple:
        """The 2^n constant leaves, left to right."""
        return self._values

    def ballot_spaces(self, lat: Lattice) -> tuple:
        return full_spaces(lat, self.n)


def build_canonical_median_tree(corner_values, n: int) -> MedianTree:
    return MedianTree(n, corner_values)


def _corner_positions(spaces, lat: Lattice) -> list:
    """Per voter the positions of bottom and top in its space, refused with
    ``CornerNotInBallotSpaceError`` where it lacks either."""
    out = []
    for i, s in enumerate(spaces):
        if lat.bottom not in s or lat.top not in s:
            raise CornerNotInBallotSpaceError(
                f"voter {i} cannot cast both bottom and top")
        out.append((s.index(lat.bottom), s.index(lat.top)))
    return out


def corners(rule, lat: Lattice) -> tuple:
    """Rule outputs on all bottom/top profiles, in binary order: the table
    over the bottom/top spaces.  More than the table cap of them are refused
    before any is evaluated."""
    n = rule.n
    _check_corner_count(n)
    _corner_positions(rule.ballot_spaces(lat), lat)
    return tabulate(rule, lat, ((lat.bottom, lat.top),) * n)[1]


def table_corners(spaces, table, lat: Lattice) -> tuple:
    """``corners`` read off a table over ``spaces`` (bottom and top anywhere
    in each space): its cells at the bottom/top profiles, in binary order."""
    _check_corner_count(len(spaces))
    cells = [0]
    for (lo, hi), s in zip(_corner_positions(spaces, lat), _strides(tuple(map(len, spaces)))):
        cells = [c + p * s for c in cells for p in (lo, hi)]
    return tuple(map(table.__getitem__, cells))


def committee_from_corners(values, n: int) -> CommitteeRule:
    """The committee with one term per coalition S whose constant is
    ``values`` at the corner where exactly S votes top (voter i is bit
    n-1-i of the corner's index)."""
    return CommitteeRule(n, [(frozenset(i for i in range(n) if c >> (n - 1 - i) & 1), v)
                             for c, v in enumerate(values)])


def tree_to_committee(tree: MedianTree, lat: Lattice) -> CommitteeRule:
    """Committee normal form: ``committee_from_corners`` of the tree's
    value at each corner.  That is its leaf only when the leaves are
    monotone, so the values come from ``corners``."""
    return committee_from_corners(corners(tree, lat), tree.n)


def _fold(leaves, lanes: CodeLanes, pair) -> tuple:
    """Fold 2^n leaf codes, one-lane ints, into the table over ``lanes.spaces``.

    Voter k, from n-1 down to 0, takes each sibling pair (l, h) of tables
    over voters k+1..n-1: the halves of a block of leaves where its bit (the
    (n-1-k)-th, so voter 0 is the most significant) is 0 and 1.  With
    (p, q) = ``pair(l, h)``, the node over voters k..n-1 is p | x&q, where p
    and q are copied once per ballot of voter k by bytes repetition (a
    multiplication by a sparse int would be superlinear) and x holds each
    ballot's code over its copy.  The x of every level depends only on the
    lanes, so it is read from ``lanes._fold_ballots``, built once per lanes.
    """
    tables, cells = leaves, 1
    for space, x in zip(reversed(lanes.spaces), lanes._fold_ballots):
        size, rows = lanes.w * cells, len(space)
        tables = [int.from_bytes(p.to_bytes(size, "little") * rows, "little")
                  | x & int.from_bytes(q.to_bytes(size, "little") * rows, "little")
                  for p, q in map(pair, tables[::2], tables[1::2])]
        cells *= rows
    return lanes.decode(tables[0])


def tabulate(rule, lat: Lattice, spaces=None):
    """Materialize a rule as (spaces, row-major table) for exhaustive sweeps.

    A median tree or committee rule is tabulated by ``_fold``: the tree
    automaton run on all profiles at once, 2^k operations on lane ints of
    prod(|spaces[k:]|) cells at voter k instead of one evaluation per
    profile.  A committee rule's leaf T is the join of the constants of
    its terms with coalition T (voter i is bit n-1-i of T, the corner order
    of ``tree_to_committee``), and its nodes are l v (x ^ h).  Any other rule
    is evaluated cell by cell.  Tables beyond ``EXPLICIT_TABLE_CAP`` cells,
    and folds over more leaves than that, are refused before any is built.
    """
    if spaces is None:
        spaces = rule.ballot_spaces(lat)
    spaces = tuple(tuple(s) for s in spaces)
    if isinstance(rule, ExplicitRule) and spaces == rule.spaces:
        return spaces, rule.table
    check_table_size([len(s) for s in spaces])
    if not isinstance(rule, (MedianTree, CommitteeRule)):
        return spaces, tuple(rule.evaluate(lat, ballots)
                             for ballots in itertools.product(*spaces))
    n = rule.n
    if len(spaces) != n:
        raise ArityMismatchError(f"expected {n} ballot spaces, got {len(spaces)}")
    _check_corner_count(n)
    code, lanes = lat._code, CodeLanes.of(lat, spaces)
    if isinstance(rule, MedianTree):    # med(l, x, h) = l&h | x&(l|h)
        leaves = [code[v] for v in rule.corner_values()]
        return spaces, _fold(leaves, lanes, lambda l, h: (l & h, l | h))
    leaves = [0] * (1 << n)
    for coalition, constant in rule.terms:
        leaves[sum(1 << (n - 1 - i) for i in coalition)] |= code[constant]
    return spaces, _fold(leaves, lanes, lambda l, h: (l, h))
