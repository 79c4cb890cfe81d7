"""Voting-rule representations, each with one evaluator.

Three interconvertible forms: explicit tables over per-voter ballot spaces,
committee lattice polynomials (join of capped coalition meets), and nested
median trees given by the rule's values on bottom/top corner profiles.
``tabulate`` materializes any of them as a table for the exhaustive sweeps.
Trees and committee rules are tabulated by running the median tree-automaton
on every profile at once: one fold over the voters on Birkhoff codes
(``Lattice._code``, where join is ``|`` and meet is ``&``) turns the 2^n
corner leaves into the whole table, decoded once at the end.
"""

from __future__ import annotations

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


def check_table_size(size: int) -> None:
    """Refuse a table of more than ``EXPLICIT_TABLE_CAP`` cells; callers ask
    before they build any cell or profile of it."""
    if size > EXPLICIT_TABLE_CAP:
        # past the int-to-str digit limit a size is named by its bit length
        shown = size if size.bit_length() <= 4096 else f"at least 2^{size.bit_length() - 1}"
        raise TooLargeError(f"table of {shown} entries exceeds cap {EXPLICIT_TABLE_CAP}")


def _strides(sizes) -> tuple:
    """Row-major strides of a table over spaces of the given sizes."""
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return tuple(out)


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
        size = math.prod(sizes)
        check_table_size(size)
        self.table = tuple(table)
        if len(self.table) != size:
            raise InvalidSizeError(
                f"table has {len(self.table)} entries, expected {size}")
        self._strides = _strides(sizes)

    @classmethod
    def from_function(cls, spaces, fn) -> "ExplicitRule":
        spaces = tuple(tuple(s) for s in spaces)
        check_table_size(math.prod(map(len, spaces)))
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
    quota = n // 2 + 1
    terms = []
    for size in range(quota, n + 1):
        for coalition in itertools.combinations(range(n), size):
            terms.append((frozenset(coalition), lat.top))
    return CommitteeRule(n, terms)


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


def corners(rule, lat: Lattice) -> tuple:
    """Rule outputs on all bottom/top profiles, in binary order."""
    n = rule.n
    spaces = rule.ballot_spaces(lat)
    for i, s in enumerate(spaces):
        if lat.bottom not in s or lat.top not in s:
            raise CornerNotInBallotSpaceError(
                f"voter {i} cannot cast both bottom and top")
    out = []
    for bits in itertools.product((lat.bottom, lat.top), repeat=n):
        out.append(rule.evaluate(lat, bits))
    return tuple(out)


def tree_to_committee(tree: MedianTree, lat: Lattice) -> CommitteeRule:
    """Committee normal form: one term per coalition S, with constant equal to
    the corner value where exactly S votes top."""
    values = tree.corner_values()
    n = tree.n
    terms = []
    for mask in range(2 ** n):
        coalition = frozenset(i for i in range(n) if mask >> i & 1)
        corner_index = 0
        for i in coalition:
            corner_index |= 1 << (n - 1 - i)
        terms.append((coalition, values[corner_index]))
    return CommitteeRule(n, terms)


def _tree_cells(lows, highs, xs):
    """One tree node over every profile: med(l, x, h) = l&h | x&(l|h)."""
    ands = [l & h for l, h in zip(lows, highs)]
    ors = [l | h for l, h in zip(lows, highs)]
    return [a | x & o for x in xs for a, o in zip(ands, ors)]


def _committee_cells(lows, highs, xs):
    """One committee split over every profile: the terms without the voter,
    joined with the voter's ballot met with the terms that include it."""
    return [l | x & h for x in xs for l, h in zip(lows, highs)]


def _fold(leaves, lat: Lattice, spaces, cells) -> tuple:
    """Fold 2^n leaf codes into the row-major table over ``spaces``.

    Voter k splits each block of leaves into the halves where its bit (the
    (n-1-k)-th, so voter 0 is the most significant) is 0 and 1; the two
    sub-tables over voters k+1..n-1 merge cell by cell for each of voter
    k's ballots, in space order.  Level k makes 2^k tables of
    prod(|spaces[k:]|) cells.
    """
    code = lat._code
    tables = [[c] for c in leaves]
    for k in range(len(spaces) - 1, -1, -1):
        xs = [code[b] for b in spaces[k]]
        tables = [cells(tables[j], tables[j + 1], xs)
                  for j in range(0, len(tables), 2)]
    return tuple(map(lat._decode.__getitem__, tables[0]))


def tabulate(rule, lat: Lattice, spaces=None):
    """Materialize a rule as (spaces, row-major table) for exhaustive sweeps.

    A median tree or committee rule is tabulated by ``_fold``: the tree
    automaton run on all profiles at once, about sum of 2^k * m^(n-k)
    bitwise operations for m ballots per voter instead of m^n per-profile
    evaluations.  A committee rule's leaf T is the join of the constants of
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
    check_table_size(math.prod(len(s) for s in spaces))
    if not isinstance(rule, (MedianTree, CommitteeRule)):
        return spaces, tuple(rule.evaluate(lat, ballots)
                             for ballots in itertools.product(*spaces))
    n = rule.n
    if len(spaces) != n:
        raise ArityMismatchError(f"expected {n} ballot spaces, got {len(spaces)}")
    if n >= EXPLICIT_TABLE_CAP.bit_length():
        raise TooLargeError(
            f"fold over 2^{n} corner leaves exceeds cap {EXPLICIT_TABLE_CAP}")
    code = lat._code
    if isinstance(rule, MedianTree):
        leaves = [code[v] for v in rule.corner_values()]
        return spaces, _fold(leaves, lat, spaces, _tree_cells)
    leaves = [0] * (1 << n)
    for coalition, constant in rule.terms:
        leaves[sum(1 << (n - 1 - i) for i in coalition)] |= code[constant]
    return spaces, _fold(leaves, lat, spaces, _committee_cells)
