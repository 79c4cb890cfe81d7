"""Voting-rule representations and the generic tree-automaton evaluator.

Three interconvertible forms: explicit tables over per-voter ballot spaces,
committee lattice polynomials (join of capped coalition meets), and nested
median trees driven by the rule's values on bottom/top corner profiles.
"""

from __future__ import annotations

import itertools

from .errors import (
    ArityMismatchError,
    BadLeafIndexError,
    BallotOutOfSpaceError,
    CornerNotInBallotSpaceError,
    InvalidSizeError,
    MalformedTreeError,
    TooLargeError,
    UnboundVariableError,
)
from .lattice import Lattice

EXPLICIT_TABLE_CAP = 1 << 20


def full_spaces(lat: Lattice, n: int) -> tuple:
    space = tuple(range(lat.m))
    return (space,) * n


class ExplicitRule:
    """Rule given as a row-major table over the product of ballot spaces."""

    __slots__ = ("n", "spaces", "table", "_pos", "_strides")

    def __init__(self, spaces, table):
        self.spaces = tuple(tuple(s) for s in spaces)
        self.n = len(self.spaces)
        if self.n == 0:
            raise InvalidSizeError("a rule needs at least one voter")
        size = 1
        for i, s in enumerate(self.spaces):
            if not s:
                raise InvalidSizeError("empty ballot space")
            if len(set(s)) != len(s):
                raise InvalidSizeError(f"voter {i} lists a ballot twice")
            size *= len(s)
        if size > EXPLICIT_TABLE_CAP:
            raise TooLargeError(f"table of {size} entries exceeds cap")
        self.table = tuple(table)
        if len(self.table) != size:
            raise InvalidSizeError(
                f"table has {len(self.table)} entries, expected {size}")
        self._pos = tuple({b: i for i, b in enumerate(s)} for s in self.spaces)
        strides = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            strides[i] = strides[i + 1] * len(self.spaces[i + 1])
        self._strides = tuple(strides)

    @classmethod
    def from_function(cls, spaces, fn) -> "ExplicitRule":
        spaces = tuple(tuple(s) for s in spaces)
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

    def coalitions(self):
        return [c for c, _ in self.terms]

    def is_order_filter(self) -> bool:
        """Whether the coalition family is upward closed in the subset order."""
        present = set(self.coalitions())
        everyone = frozenset(range(self.n))
        for c in present:
            for extra in everyone - c:
                if frozenset(c | {extra}) not in present:
                    return False
        return True

    def constants_monotone(self, lat: Lattice) -> bool:
        by_coalition = dict(self.terms)
        for small, y_small in by_coalition.items():
            for big, y_big in by_coalition.items():
                if small < big and not lat.leq(y_small, y_big):
                    return False
        return True


def extended_median(lat: Lattice, ballots) -> int:
    """Simple majority: join of meets over all strict-majority coalitions."""
    return extended_median_rule(lat, len(ballots)).evaluate(lat, ballots)


def extended_median_rule(lat: Lattice, n: int) -> CommitteeRule:
    quota = n // 2 + 1
    terms = []
    for size in range(quota, n + 1):
        for coalition in itertools.combinations(range(n), size):
            terms.append((frozenset(coalition), lat.top))
    return CommitteeRule(n, terms)


# -- median trees -----------------------------------------------------------------


class BallotLeaf:
    __slots__ = ("voter",)

    def __init__(self, voter):
        self.voter = int(voter)

    def __repr__(self):
        return f"BallotLeaf({self.voter})"


class ConstLeaf:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = int(value)

    def __repr__(self):
        return f"ConstLeaf({self.value})"


class MedianNode:
    __slots__ = ("left", "mid", "right")

    def __init__(self, left, mid, right):
        self.left, self.mid, self.right = left, mid, right

    def __repr__(self):
        return f"MedianNode({self.left!r}, {self.mid!r}, {self.right!r})"


class MedianTree:
    """Perfectly nested median tree of depth n.

    The node at depth k takes voter k's ballot in the middle; the 2^n
    constant leaves are corner values in binary order (voter 0 most
    significant, bottom = 0).
    """

    __slots__ = ("n", "root")

    def __init__(self, n, root):
        self.n = int(n)
        if self.n < 1:
            raise InvalidSizeError("a rule needs at least one voter")
        self.root = root

    def evaluate(self, lat: Lattice, ballots) -> int:
        if len(ballots) != self.n:
            raise ArityMismatchError(f"expected {self.n} ballots")

        def walk(node):
            if isinstance(node, ConstLeaf):
                return node.value
            if isinstance(node, BallotLeaf):
                if node.voter >= len(ballots):
                    raise BadLeafIndexError(
                        f"leaf references voter {node.voter}, n={len(ballots)}")
                return ballots[node.voter]
            return lat.median(walk(node.left), walk(node.mid), walk(node.right))

        return walk(self.root)

    def corner_values(self) -> tuple:
        """The 2^n constant leaves, left to right."""
        out = []

        def walk(node, depth):
            if depth == self.n:
                if not isinstance(node, ConstLeaf):
                    raise MalformedTreeError("expected a constant leaf")
                out.append(node.value)
                return
            if not isinstance(node, MedianNode):
                raise MalformedTreeError("expected a median node")
            if not isinstance(node.mid, BallotLeaf) or node.mid.voter != depth:
                raise MalformedTreeError(
                    f"middle child at depth {depth} must read voter {depth}")
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

        walk(self.root, 0)
        return tuple(out)

    def ballot_spaces(self, lat: Lattice) -> tuple:
        return full_spaces(lat, self.n)


def build_canonical_median_tree(corner_values, n: int) -> MedianTree:
    if n < 1:
        raise InvalidSizeError("a rule needs at least one voter")
    corner_values = tuple(corner_values)
    if len(corner_values) != 2 ** n:
        raise InvalidSizeError(
            f"need {2 ** n} corner values for {n} voters, got {len(corner_values)}")

    def node(depth, lo, hi):
        if depth == n:
            return ConstLeaf(corner_values[lo])
        half = (hi - lo) // 2
        return MedianNode(node(depth + 1, lo, lo + half),
                          BallotLeaf(depth),
                          node(depth + 1, lo + half, hi))

    return MedianTree(n, node(0, 0, 2 ** n))


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


# -- generic tree automata -----------------------------------------------------------


class Signature:
    """Finitary type: operation symbols with their arities."""

    __slots__ = ("arities",)

    def __init__(self, arities):
        self.arities = {str(s): int(a) for s, a in dict(arities).items()}
        if any(a < 0 for a in self.arities.values()):
            raise InvalidSizeError("arities must be nonnegative")

    def arity(self, symbol):
        return self.arities.get(symbol)

    def __contains__(self, symbol):
        return symbol in self.arities


class Term:
    """Finite labelled tree: inner nodes carry symbols, leaves symbols or variables."""

    __slots__ = ("label", "children")

    def __init__(self, label, children=()):
        self.label = str(label)
        self.children = tuple(children)

    def __repr__(self):
        if not self.children:
            return f"Term({self.label!r})"
        return f"Term({self.label!r}, {list(self.children)!r})"


class TreeAutomaton:
    """States, one operation per symbol, and an output map.

    ``operations[s]`` must accept ``arity(s)`` state arguments.  The carrier
    is optional; when given, every computed state is checked against it.
    """

    __slots__ = ("signature", "carrier", "operations", "output", "variables")

    def __init__(self, signature, operations, output=None, variables=(), carrier=None):
        self.signature = signature
        self.operations = dict(operations)
        for s in self.operations:
            if s not in signature:
                raise MalformedTreeError(f"operation {s!r} missing from signature")
        for s in signature.arities:
            if s not in self.operations:
                raise MalformedTreeError(f"no operation bound to symbol {s!r}")
        self.output = output if output is not None else (lambda q: q)
        self.variables = frozenset(str(v) for v in variables)
        self.carrier = None if carrier is None else frozenset(carrier)


def run_tree_automaton(automaton: TreeAutomaton, init, term: Term):
    """Initialize variables, fold the term bottom-up, apply the output map."""

    def state(node):
        if node.label in automaton.variables:
            if node.children:
                raise MalformedTreeError(
                    f"variable {node.label!r} cannot have children")
            if node.label not in init:
                raise UnboundVariableError(f"variable {node.label!r} not initialized")
            return init[node.label]
        arity = automaton.signature.arity(node.label)
        if arity is None:
            raise MalformedTreeError(f"unknown symbol {node.label!r}")
        if len(node.children) != arity:
            raise MalformedTreeError(
                f"symbol {node.label!r} has arity {arity}, "
                f"got {len(node.children)} children")
        value = automaton.operations[node.label](*(state(c) for c in node.children))
        if automaton.carrier is not None and value not in automaton.carrier:
            raise MalformedTreeError(f"operation left the carrier at {node.label!r}")
        return value

    return automaton.output(state(term))


def median_automaton(lat: Lattice, corner_values, n: int) -> TreeAutomaton:
    """Automaton over one ternary median symbol plus nullary corner/bound symbols."""
    corner_values = tuple(corner_values)
    arities = {"med": 3, "bot": 0, "top": 0}
    operations = {"med": lat.median,
                  "bot": lambda: lat.bottom,
                  "top": lambda: lat.top}
    for i, v in enumerate(corner_values):
        arities[f"c{i}"] = 0
        operations[f"c{i}"] = (lambda value=v: value)
    signature = Signature(arities)
    variables = [f"x{i}" for i in range(n)]
    return TreeAutomaton(signature, operations, output=None,
                         variables=variables, carrier=range(lat.m))


def canonical_median_term(n: int) -> Term:
    """The nested-median input term whose leaves are corner symbols c0..c(2^n-1)."""

    def node(depth, lo, hi):
        if depth == n:
            return Term(f"c{lo}")
        half = (hi - lo) // 2
        return Term("med", [node(depth + 1, lo, lo + half),
                            Term(f"x{depth}"),
                            node(depth + 1, lo + half, hi)])

    return node(0, 0, 2 ** n)


def tabulate(rule, lat: Lattice, spaces=None):
    """Materialize a rule as (spaces, row-major table) for exhaustive sweeps."""
    if spaces is None:
        spaces = rule.ballot_spaces(lat)
    spaces = tuple(tuple(s) for s in spaces)
    if isinstance(rule, ExplicitRule) and spaces == rule.spaces:
        return spaces, rule.table
    table = tuple(rule.evaluate(lat, ballots)
                  for ballots in itertools.product(*spaces))
    return spaces, table
