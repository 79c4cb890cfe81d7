"""Exhaustive checkers: interval monotonicity, strategy-proofness, coalition
manipulation search, and the structural axioms of voting rules.

All searches are deterministic: ballot tuples run in row-major order over the
declared ballot spaces, preference profiles in enumeration-index order, and
the coalition search decides sizes from largest to smallest before fixing
the witness (see ``find_coalitional_manipulation``), so it is reproducible.

Every sweep runs on one of two shared kernels.  Lane ints, one lane per
cell, share ``rules.spread``: monotonicity runs on Birkhoff-code lanes
(``rules.CodeLanes``), and the strategy sweep (the size-1 case), the
coalition search, anonymity and weak efficiency on a domain's outcome
lanes (``OutcomeLanes``), where any per-outcome mask reaches a table
through its outcome split only.  Cell images (``_local_cells``) serve
local neutrality and local sovereignty.

The sweeps decide on a domain's gain tables.  On the full single-peaked
domains these are Lemma 1's interval table, so a verdict there generates no
preference; the strategy sweep and the coalition fix-up walk a voter's
preferences top by top (``DomainDescriptor.runs``) only to name a witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import CarrierMismatchError, InvalidSizeError, TooLargeError
from .lattice import Lattice, _bits
from .preorders import (TotalPreorder, build_lsu_witness, build_three_class_witness,
                        lsu_search, unimodal_search)
from .rules import (CodeLanes, ExplicitRule, _Lanes, _line_masks, _strides, full_spaces,
                    build_canonical_median_tree, check_full_table_size, spread, tabulate)

DEFAULT_EVAL_CAP = 10 ** 8


# -- domains ------------------------------------------------------------------------


class DomainDescriptor:
    """Per-voter ballot spaces and admissible preference sets.

    A custom domain is given its preference sets.  The full single-peaked
    domains (``full_unimodal``, ``full_lsu``) enumerate nothing when built.
    By Lemma 1 their gain tables are the rows of the interval table
    (``interval_gains``, one per lattice, so both full domains on a lattice
    share it) at each voter's tops, which decide every sweep.  Their
    preferences come from the domain's own ``LayeredSearch`` top by top,
    generated only when a sweep names a witness and kept per top, so voters
    and sweeps share the objects and their ``better`` masks.  Only that and
    the counts make the search (``_layered``), so a full domain builds on
    any lattice and refuses past the enumeration cap only there.  The cap
    estimates read ``preference_bound`` first and count the preferences,
    without generating any, only where that bound could exceed the cap.
    Lemma 1's witness preorders (``strategy_witness_from``) are kept per
    (peak, ref), at most m^2 of them, so every rule whose violations share
    a pair shares the preorder and its ``better`` masks.
    """

    __slots__ = ("lattice", "spaces", "flavor", "_sets", "_maker", "_search", "_tops",
                 "_count", "_gains", "_held", "_lanes", "_witnesses")

    def __init__(self, lattice: Lattice, spaces, preference_sets):
        self._start(lattice, spaces, "custom", None)
        self._sets = tuple(tuple(ps) for ps in preference_sets)
        if len(self.spaces) != len(self._sets):
            raise InvalidSizeError("one ballot space and one preference set per voter")
        for i, (space, prefs) in enumerate(zip(self.spaces, self._sets)):
            if not prefs:
                raise InvalidSizeError(f"voter {i} has an empty preference set")
            for p in prefs:
                if p.m != lattice.m:
                    raise CarrierMismatchError(
                        f"voter {i} has a preorder on {p.m} elements")
                if p.top not in space:
                    raise InvalidSizeError(
                        f"voter {i} holds a preference whose top "
                        f"{lattice.names[p.top]} is outside the ballot space")

    def _start(self, lattice, spaces, flavor, maker):
        self.lattice, self.spaces, self.flavor = lattice, tuple(map(tuple, spaces)), flavor
        self._sets, self._maker, self._search = None, maker, None
        self._count = self._gains = self._held = None
        self._lanes, self._witnesses = {}, {}

    @property
    def n(self) -> int:
        return len(self.spaces)

    @property
    def preference_sets(self) -> tuple:
        """Each voter's preferences in index order, built on first read."""
        if self._sets is None:
            self._sets = tuple(tuple(p for _, run in self.runs(i) for p in run)
                               for i in range(self.n))
        return self._sets

    def runs(self, i: int):
        """Voter i's preferences in index order, as (top, preferences) runs
        of one top each; a full domain generates a run only as it is read."""
        if self._maker is None:
            return itertools.groupby(self._sets[i], operator.attrgetter("top"))
        search = self._layered()
        return ((t, search.topped(t)) for t in self._tops[i])

    def _layered(self):
        """A full domain's ``LayeredSearch``, made by its maker on first use."""
        if self._search is None:
            self._search = self._maker(self.lattice)
        return self._search

    def preference_count(self) -> int:
        """The number of (voter, preference) pairs, counted on first use; on
        a full domain the search counts them per top without generating any,
        which the cap estimates ask for only where ``preference_bound`` could
        exceed the cap (``_preference_estimate``)."""
        if self._count is None:
            self._count = (sum(map(len, self._sets)) if self._maker is None else
                           sum(map(self._layered().count, itertools.chain(*self._tops))))
        return self._count

    def preference_bound(self) -> int:
        """An upper bound on ``preference_count()`` known without counting:
        on a full domain, each voter's tops times the search's
        ``top_bound``; on a custom domain, the count itself."""
        if self._maker is None:
            return self.preference_count()
        return self._layered().top_bound * sum(map(len, self._tops))

    def gain_masks(self):
        """``gain[i][t][o]``: the union of ``p.better[o]`` over voter i's
        preferences p with top t, built on first use and kept with the domain
        (on a full domain, Lemma 1's interval table at voter i's tops)."""
        if self._gains is None and self._maker is not None:
            rows = interval_gains(self.lattice)
            self._gains = tuple({t: rows[t] for t in tops} for tops in self._tops)
        elif self._gains is None:
            gain = []
            for prefs in self._sets:
                by_top = {}
                for p in prefs:
                    by_top.setdefault(p.top, []).append(p.better)
                gain.append({t: [functools.reduce(operator.or_, column)
                                 for column in zip(*group)]
                             for t, group in by_top.items()})
            self._gains = tuple(gain)
        return self._gains

    def holds(self, i: int, pref: TotalPreorder) -> bool:
        """Whether voter i may hold ``pref``, by a set built on first use."""
        self._held = self._held or tuple(map(frozenset, self.preference_sets))
        return pref in self._held[i]

    def lanes(self, semantics: str = "truthful") -> "OutcomeLanes":
        """The domain's ``OutcomeLanes`` under ``semantics`` ("truthful" or
        "literal"), built once."""
        if semantics not in ("truthful", "literal"):
            raise ValueError(f"unknown semantics {semantics!r}")
        if semantics not in self._lanes:
            gain = self.gain_masks()
            if semantics == "literal":    # one anchor: the union over every preference
                gain = [dict.fromkeys(space, [functools.reduce(operator.or_, masks)
                                              for masks in zip(*by_top.values())])
                        for space, by_top in zip(self.spaces, gain)]
            self._lanes[semantics] = OutcomeLanes(self.spaces, self.lattice.m, gain)
        return self._lanes[semantics]

    @classmethod
    def full_unimodal(cls, lattice: Lattice, n: int, spaces=None) -> "DomainDescriptor":
        return cls._searched(lattice, n, spaces, unimodal_search, "full_unimodal")

    @classmethod
    def full_lsu(cls, lattice: Lattice, n: int, spaces=None) -> "DomainDescriptor":
        return cls._searched(lattice, n, spaces, lsu_search, "full_lsu")

    @classmethod
    def _searched(cls, lattice, n, spaces, maker, flavor):
        """A full domain: each voter holds the preferences of ``maker``'s
        search whose top lies in its ballot space, and every element tops one."""
        domain = cls.__new__(cls)
        domain._start(lattice, full_spaces(lattice, n) if spaces is None else spaces,
                      flavor, maker)
        domain._tops = tuple(tuple(sorted(set(space).intersection(range(lattice.m))))
                             for space in domain.spaces)
        empty = next((i for i, tops in enumerate(domain._tops) if not tops), None)
        if empty is not None:
            raise InvalidSizeError(f"voter {empty} has an empty preference set")
        return domain


# -- witnesses -----------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityWitness:
    """A ballot tuple where one voter's deviation pulls the outcome off the
    segment between the voter's ballot and the deviant outcome."""
    ballots: tuple
    voter: int
    deviation: int
    outcome: int
    deviant_outcome: int

    def describe(self, lat: Lattice) -> dict:
        return {
            "ballots": [lat.names[b] for b in self.ballots],
            "voter": self.voter,
            "deviation": lat.names[self.deviation],
            "outcome": lat.names[self.outcome],
            "deviant_outcome": lat.names[self.deviant_outcome],
        }


@dataclass(frozen=True)
class StrategyWitness:
    """Voter ``voter`` holding ``preference`` gains strictly by casting
    ``deviant_ballots[voter]`` instead of its top."""
    voter: int
    preference: TotalPreorder
    truthful_ballots: tuple
    deviant_ballots: tuple
    truthful_outcome: int
    deviant_outcome: int

    def validate(self, rule, lat: Lattice) -> bool:
        """Re-evaluate the rule and re-check that the voter reports its top,
        deviates alone, and strictly gains."""
        truthful = rule.evaluate(lat, self.truthful_ballots)
        deviant = rule.evaluate(lat, self.deviant_ballots)
        if truthful != self.truthful_outcome or deviant != self.deviant_outcome:
            return False
        i = self.voter
        return (self.preference.top == self.truthful_ballots[i]
                and self.truthful_ballots[:i] == self.deviant_ballots[:i]
                and self.truthful_ballots[i + 1:] == self.deviant_ballots[i + 1:]
                and self.preference.strictly_prefers(deviant, truthful))

    def describe(self, lat: Lattice) -> dict:
        return {
            "voter": self.voter,
            "preference": [[lat.names[e] for e in c] for c in self.preference.classes()],
            "truthful_ballots": [lat.names[b] for b in self.truthful_ballots],
            "deviant_ballots": [lat.names[b] for b in self.deviant_ballots],
            "truthful_outcome": lat.names[self.truthful_outcome],
            "deviant_outcome": lat.names[self.deviant_outcome],
        }


@dataclass(frozen=True)
class ManipulationWitness:
    """A profile, coalition and joint deviation every member strictly gains by.

    ``origin_ballots`` is None under truthful-origin semantics (members start
    from their tops, outsiders cast theirs); under literal semantics it holds
    the arbitrary starting ballots.
    """
    profile: tuple
    coalition: tuple
    context_ballots: tuple
    deviation: tuple
    outcome_truthful: int
    outcome_deviant: int
    origin_ballots: tuple | None = None

    def truthful_ballots(self) -> tuple:
        if self.origin_ballots is not None:
            return self.origin_ballots
        ballots = [p.top for p in self.profile]
        outsiders = [j for j in range(len(self.profile)) if j not in self.coalition]
        for j, b in zip(outsiders, self.context_ballots):
            ballots[j] = b
        return tuple(ballots)

    def deviant_ballots(self) -> tuple:
        ballots = list(self.truthful_ballots())
        for i, b in zip(self.coalition, self.deviation):
            ballots[i] = b
        return tuple(ballots)

    def validate(self, rule, lat: Lattice) -> bool:
        """Re-evaluate the rule and re-check every member's strict gain.
        An empty coalition manipulates nothing, so it never validates."""
        if not self.coalition:
            return False
        truthful = rule.evaluate(lat, self.truthful_ballots())
        deviant = rule.evaluate(lat, self.deviant_ballots())
        if truthful != self.outcome_truthful or deviant != self.outcome_deviant:
            return False
        return all(self.profile[i].strictly_prefers(deviant, truthful)
                   for i in self.coalition)

    def describe(self, lat: Lattice) -> dict:
        out = {
            "coalition": list(self.coalition),
            "coalition_tops": [lat.names[self.profile[i].top] for i in self.coalition],
            "context_ballots": [lat.names[b] for b in self.context_ballots],
            "deviation": [lat.names[b] for b in self.deviation],
            "outcome_truthful": lat.names[self.outcome_truthful],
            "outcome_deviant": lat.names[self.outcome_deviant],
        }
        if self.origin_ballots is not None:
            out["origin_ballots"] = [lat.names[b] for b in self.origin_ballots]
        return out


# -- outcome lanes ----------------------------------------------------------------------


class OutcomeLanes(_Lanes):
    """Table-independent outcome lanes over ``spaces`` of an m-element
    carrier, from voter i's gains ``gain[i][a][o]`` at each anchor a of a
    domain (``DomainDescriptor.lanes``).

    Its lanes have w = ceil(m/8) bytes, one bit per outcome (``outcomes``).
    The gain tile G[i][o] holds ``gain[i][b][o]`` where voter i casts an
    anchor b, zero elsewhere.  Built on first use, ``start`` (read by the
    coalition search) is full where every voter sits at an anchor (every
    cell for literal gain tables, which key every ballot), and
    ``cells(i, b)`` (read by its fix-up, the strategy sweep and the
    anonymity check) where voter i casts b.
    """

    def __init__(self, spaces, m: int, gain):
        super().__init__(spaces, [(1 << o).to_bytes(-(-m // 8), "little") for o in range(m)])
        self.gain, self._tiles, self._cells = gain, [{} for _ in spaces], {}

    @property
    def lines(self) -> tuple:
        return _line_masks(self.sizes, self.w)

    def cells(self, i: int, ballot: int) -> int:
        """Full lanes where voter i casts ``ballot``."""
        if (i, ballot) not in self._cells:
            self._cells[i, ballot] = self.tile(i, {ballot: b"\xff" * self.w})
        return self._cells[i, ballot]

    @functools.cached_property
    def start(self) -> int:
        return functools.reduce(operator.and_, [
            self.tile(i, dict.fromkeys(gain, b"\xff" * self.w)) for i, gain in enumerate(self.gain)])

    def outcomes(self, table):
        """(onehot, equal) of a table over the domain's spaces: bit table[c]
        in lane c, and per outcome o in the table, in ascending order, the
        full lanes where the table holds o (bit o moved to each lane's lowest
        bit, then filled across the lane)."""
        onehot = self.pack(table)
        lsb = self.constant(b"\x01" + bytes(self.w - 1))
        return onehot, {o: (onehot >> o & lsb) * ((1 << 8 * self.w) - 1)
                        for o in sorted(set(table))}

    def gains(self, i: int, equal) -> int:
        """Voter i's gain lanes on a table: OR_o (equal[o] & G[i][o])."""
        tiles, gain, out = self._tiles[i], self.gain[i], 0
        for o, cells in equal.items():
            if o not in tiles:
                tiles[o] = self.tile(i, {b: row[o].to_bytes(self.w, "little")
                                         for b, row in gain.items()})
            out |= cells & tiles[o]
        return out


# -- interval monotonicity -------------------------------------------------------------


def _check_sweep_size(sweep: str, estimate: int, cap: int) -> None:
    """Refuse a sweep of ``estimate`` evaluations beyond ``cap``."""
    if estimate > cap:
        raise TooLargeError(
            f"{sweep} sweep of {estimate} evaluations exceeds the evaluation cap {cap}")


def _preference_estimate(domain: DomainDescriptor, factor: int, cap: int) -> int:
    """``factor`` times the domain's preference count where that may exceed
    ``cap``, else ``factor * domain.preference_bound()``, which fits ``cap``.
    So a full domain counts its preferences only where a refusal may follow,
    and a result beyond ``cap`` is always the exact product."""
    bound = factor * domain.preference_bound()
    return bound if bound <= cap else factor * domain.preference_count()


def find_monotonicity_violation(rule, lat: Lattice, cap: int = DEFAULT_EVAL_CAP):
    """First (ballots, voter, deviation) whose outcome leaves the segment
    between the voter's ballot and the deviant outcome, or None.

    The witness is the first in the order ballot tuples row-major, voters
    ascending, deviations in space order.  On Birkhoff codes
    (``Lattice._code``) o lies in [x, d] iff x&d <= o <= x|d, and along voter
    i's line (the cells that differ only in i's ballot) U(x&d) = x&U(d) and
    I(x|d) = x|I(d) for the union U and intersection I of the outcome codes.
    So the cell with ballot x and outcome o survives every deviation of
    voter i iff x&U <= o <= x|I.

    Three steps: pack, sweep, rescan.  ``CodeLanes.pack`` puts the table into
    one big int T, one code lane per cell.  ``CodeLanes.first_failure``
    stacks T over its complement ~T and ``spread``s the stack along voter
    i's lines once, giving U and ~I in every lane.  With X
    (``CodeLanes.ballots``) holding i's ballot code in every lane,
    ``X & U & ~T | T & ~X & ~I`` is nonzero in exactly the failing lanes.
    The lowest over the voters (the lower voter on a tie) is the witness
    cell, and a rescan of its line names the deviation.  Callers holding
    lane ints call ``first_failure`` themselves.
    """
    spaces, table = tabulate(rule, lat)
    _check_sweep_size("monotonicity", len(table) * sum(map(len, spaces)), cap)
    lanes = CodeLanes.of(lat, spaces)
    first = lanes.first_failure(lanes.pack(table))
    if first is None:
        return None
    idx, i = first
    cell, line = lanes.line(table, idx, i)
    out = table[idx]
    dev, other = next((dev, other) for dev, other in zip(spaces[i], line)
                      if not lat.between(cell[i], out, other))
    return MonotonicityWitness(cell, i, dev, out, other)


# -- individual strategy-proofness ----------------------------------------------------


def find_strategy_violation(rule, domain: DomainDescriptor,
                            cap: int = DEFAULT_EVAL_CAP):
    """First profitable unilateral deviation from a truthful top, or None.

    The witness is the first in the order voters ascending, the voter's
    preferences in index order, the others' ballots row-major, deviations in
    space order.  It is the coalition search's size-1 case on the domain's
    ``OutcomeLanes``: reach_i = ``spread(onehot, line_i)`` holds in each cell
    the outcomes voter i can force from there, and a preference with top t
    gains in a cell where i casts t iff its better set at the cell's outcome
    meets reach_i.  Voter i's gain lanes hold there the union of those sets
    over i's preferences with top t, so they miss reach_i iff no preference
    of i gains anywhere: skipping the voter then is exact, and so is
    skipping a run of preferences with top t (``DomainDescriptor.runs``)
    where they miss reach_i on the cells of t.  Otherwise each preference p
    of the run, in index order, gains where ``reach_i & cells(i, p.top) &
    OR_o (equal[o] & constant(p.better[o]))`` is nonzero: the coalition
    fix-up's form, over every outcome.  The cells of p.top, in row-major
    order, are i's lines through it in row-major order of the others,
    so the lowest set lane is on the first line where the preference gains,
    and a rescan of that line names the first deviation.  A full domain
    generates preferences only in a run that gains.  The cap estimate is
    the table size times the domain's preference count, which a full
    domain counts, without generating, only where its bound times the table
    size exceeds ``cap`` (``_preference_estimate``); a refusal names the
    exact estimate.
    """
    spaces, table = tabulate(rule, domain.lattice, domain.spaces)
    _check_sweep_size("strategy-proofness", _preference_estimate(domain, len(table), cap), cap)
    lanes = domain.lanes()
    onehot, equal = lanes.outcomes(table)
    for i, line in enumerate(lanes.lines):
        gaining = spread(onehot, line) & lanes.gains(i, equal)
        if not gaining:
            continue
        for top, prefs in domain.runs(i):
            row = gaining & lanes.cells(i, top)
            if not row:
                continue
            for pref in prefs:
                masks = pref.better
                hit = row & sum(    # disjoint: OR
                    cells_o & lanes.constant(masks[o].to_bytes(lanes.w, "little"))
                    for o, cells_o in equal.items())
                if hit:
                    c = lanes.lowest(hit)
                    truthful, line = lanes.line(table, c, i)
                    q, o_d = next((q, o) for q, o in enumerate(line)
                                  if masks[table[c]] >> o & 1)
                    deviant = truthful[:i] + (spaces[i][q],) + truthful[i + 1:]
                    return StrategyWitness(i, pref, truthful, deviant, table[c], o_d)
    return None


def strategy_witness_from(violation: MonotonicityWitness,
                          domain: DomainDescriptor) -> StrategyWitness:
    """Lemma 1's construction: a monotonicity violation becomes a profitable
    deviation on a full single-peaked domain.

    Voter i's preference is peaked at its ballot x_i with the deviant outcome
    d as reference (the three-class preorder on ``full_unimodal`` domains,
    the LSU witness on ``full_lsu``), so d beats the truthful outcome, which
    lies outside [x_i, d].  Once validated, the witness proves "not monotone
    implies not strategy-proof" without a sweep; the converse is left to
    ``find_strategy_violation``.  The preorder depends only on the domain
    and (x_i, d), so the domain builds it once per pair and keeps it.
    """
    builders = {"full_unimodal": build_three_class_witness,
                "full_lsu": build_lsu_witness}
    if domain.flavor not in builders:
        raise ValueError(f"no Lemma 1 construction for a {domain.flavor!r} domain")
    i = violation.voter
    truthful = violation.ballots
    deviant = truthful[:i] + (violation.deviation,) + truthful[i + 1:]
    key = (truthful[i], violation.deviant_outcome)
    if key not in domain._witnesses:
        domain._witnesses[key] = builders[domain.flavor](domain.lattice, *key)
    return StrategyWitness(i, domain._witnesses[key], truthful, deviant, violation.outcome,
                           violation.deviant_outcome)


# -- coalitional manipulation ----------------------------------------------------------


def check_coalition_search_size(domain: DomainDescriptor, semantics: str = "truthful",
                                cap: int = DEFAULT_EVAL_CAP) -> None:
    """Refuse a coalition search on ``domain`` beyond ``cap`` before any table
    is built.  The estimate, read off the domain's ``OutcomeLanes``, counts
    the (start, coalition, joint deviation) triples the lanes decide, each
    voter staying out or casting one of its ballots, and the (start, tried
    preference) pairs the fix-up may test, one lane pass per preference,
    with the domain's ``preference_count``.  A full domain counts its
    preferences, without generating any, only where the deviations exceed
    ``cap`` or the scans may by its ``preference_bound``, so a refusal
    names the exact scan count.  A literal search's gain tables key every
    ballot, so every cell starts."""
    lanes = domain.lanes(semantics)    # refuses an unknown semantics first
    starts = math.prod(map(len, lanes.gain))
    deviations = (starts if semantics == "literal" else 1) * math.prod(k + 1 for k in lanes.sizes)
    if deviations > cap or _preference_estimate(domain, starts, cap) > cap:
        raise TooLargeError(
            f"coalition search of {deviations} deviations and "
            f"{starts * domain.preference_count()} preference scans exceeds the "
            f"evaluation cap {cap}")


def find_coalitional_manipulation(rule, domain: DomainDescriptor,
                                  semantics: str = "truthful",
                                  cap: int = DEFAULT_EVAL_CAP):
    """First coalition deviation making every member strictly better off.

    Truthful semantics: coalition members start from the tops of their
    reported preferences and the outside voters cast theirs.  Literal
    semantics additionally quantifies the starting ballots over the whole
    joint ballot space.

    The reported witness is the first under the key (coalition size
    descending, truthful-outcome id ascending, profile enumeration index,
    starting ballots under literal semantics, coalition bitmask ascending,
    deviation in ballot order).

    A voter's gain set for an anchor (its top; under literal semantics any
    ballot) and outcome is the union of the strictly-better sets over the
    preferences it may hold from that anchor (``DomainDescriptor.gain_masks``).
    Preference choices are independent across voters, so a prefix of chosen
    preference indices admits a witness iff some start cell with the given
    truthful outcome and some coalition of the given size have a common gain
    (exact sets for chosen voters, gain sets for the others) meeting the
    outcomes the coalition can force.

    All of it runs on the domain's ``OutcomeLanes``.  ``lane_gains[i]``
    holds voter i's gain set at its ballot and the cell's outcome (zero off
    its anchors), and reach(M), the outcomes coalition M can force from each
    cell, is ``spread`` of reach(M minus its lowest member) along that
    member's lines.  Lane c of ``hits(size)``, the OR over coalitions M of
    start & reach(M) & AND(lane_gains[i] for i in M), is nonzero iff the
    test holds for the empty prefix at cell c.  The first size, from n
    down, with such a lane, and its lowest truthful outcome o_t there, hold
    the witness.

    The fix-up takes voters in order, their preferences in index order.
    Trying preference k of voter i sets ``lane_gains[i]`` to the
    ``constant`` lanes of k's better set at o_t, which inside equal[o_t] is
    its better set at the cell's outcome, and, under truthful semantics,
    narrows the target, start & equal[o_t], to the cells where i casts k's
    top; k is chosen iff ``hits`` on the target is nonzero.  ``hits`` is a
    union over bits of ``lane_gains[i]``, so a run of preferences with top
    t (``DomainDescriptor.runs``) is tried first with voter i's gain set at
    (t, o_t), the union of their better sets there: where it misses, no
    preference of the run hits, and the run is skipped without generating
    it.  The lowest lane of the final hits is the start.  The coalition is
    the lowest mask whose box, the cells where the outsiders keep their
    start ballots, meets equal[o] for an o in the members' common better
    set; the lowest lane of that meet is the first deviation in ballot
    order.
    """
    n = domain.n
    table = tabulate(rule, domain.lattice, domain.spaces)[1]
    check_coalition_search_size(domain, semantics, cap)
    lanes, literal = domain.lanes(semantics), semantics == "literal"
    lines = lanes.lines
    onehot, equal = lanes.outcomes(table)
    lane_gains = [lanes.gains(i, equal) for i in range(n)]

    def hits(size, below=n, reach=onehot, common=lanes.start):
        """start & reach & gains, ORed over ``size`` more members below ``below``."""
        if not size:
            return reach & common
        out = 0
        for i in range(size - 1, below):
            joint = common & lane_gains[i]
            if joint:
                out |= hits(size - 1, i, spread(reach, lines[i]), joint)
        return out

    for size in range(n, 0, -1):
        found = hits(size)
        if found:
            break
    else:
        return None
    o_t = next(o for o, cells_o in equal.items() if found & cells_o)

    def trial_hits(i, better, trial):
        lane_gains[i] = lanes.constant(better[o_t].to_bytes(lanes.w, "little"))
        return hits(size, common=trial)

    # fix the profile voter by voter; the lanes guarantee each voter a hit
    target, profile, gain = lanes.start & equal[o_t], [], domain.gain_masks()
    for i in range(n):
        for top, prefs in domain.runs(i):
            trial = target if literal else target & lanes.cells(i, top)
            if trial_hits(i, gain[i][top], trial):
                pref = next((p for p in prefs if trial_hits(i, p.better, trial)), None)
                if pref is not None:
                    break
        target = trial
        profile.append(pref)
    found = hits(size, common=target)

    origin = lanes.at(lanes.lowest(found))
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) != size:
            continue
        outsiders = [j for j in range(n) if not mask >> j & 1]
        common = functools.reduce(operator.and_, [profile[i].better[o_t] for i in members])
        forced = sum(cells_o for o, cells_o in equal.items() if common >> o & 1)  # disjoint: OR
        box = functools.reduce(operator.and_, [lanes.cells(j, origin[j]) for j in outsiders],
                               forced)
        if box:
            d = lanes.lowest(box)
            return ManipulationWitness(
                profile=tuple(profile),
                coalition=tuple(members),
                context_ballots=tuple(origin[j] for j in outsiders),
                deviation=tuple(lanes.at(d)[i] for i in members),
                outcome_truthful=o_t,
                outcome_deviant=table[d],
                origin_ballots=origin if literal else None)


# -- structural axioms ------------------------------------------------------------------


@dataclass
class AxiomCheck:
    anonymous: bool
    locally_ji_neutral: bool
    locally_sovereign: bool
    locally_idempotent: bool
    efficient: bool
    witnesses: dict = field(default_factory=dict)

    def all_hold(self) -> bool:
        return (self.anonymous and self.locally_ji_neutral and
                self.locally_sovereign and self.locally_idempotent and
                self.efficient)


@functools.lru_cache(maxsize=16)
def _local_cells(local: tuple, m: int, n: int) -> tuple:
    """Row-major indices into an n-voter full-carrier table of the ballot
    tuples over ``local``, in ``itertools.product(local, repeat=n)`` order.
    Cached: the quota-rule sweeps ask for the same few (local, n) pairs once
    per rule."""
    cells = [0]
    for s in _strides([m] * n):
        cells = [c + b * s for c in cells for b in local]
    return tuple(cells)


def find_local_sovereignty_gap(table, lat: Lattice, local, n: int):
    """The elements of ``local`` that no ballot tuple over ``local`` reaches,
    in the order given, or None when the full-carrier table reaches them all."""
    seen = set(map(table.__getitem__, _local_cells(tuple(local), lat.m, n)))
    unreachable = [z for z in local if z not in seen]
    return unreachable or None


def find_local_neutrality_violation(table, lat: Lattice, local, n: int):
    """First (ballots over ``local``, (j, k)) where swapping the
    join-irreducibles j < k of ``local`` does not commute with the
    full-carrier table, or None."""
    direct = [table[c] for c in _local_cells(tuple(local), lat.m, n)]
    ji_local = sorted(lat.join_irreducibles & set(local))
    for j, k in itertools.combinations(ji_local, 2):
        swap = list(range(lat.m))
        swap[j], swap[k] = k, j
        image = _local_cells(tuple(swap[b] for b in local), lat.m, n)
        for pos, (c, out) in enumerate(zip(image, direct)):
            if table[c] != swap[out]:
                width = len(local)
                return (tuple(local[pos // width ** (n - 1 - v) % width]
                              for v in range(n)), (j, k))
    return None


def interval_gains(lat: Lattice) -> dict:
    """Lemma 1's interval table: ``gains[x][o]`` masks the y with o outside
    [x, y], which single-peakedness lets, and Lemma 1's witnesses make, some
    full unimodal or full LSU preference topped at x rank above o.  Built
    on first use per lattice object and kept in the lattice
    (``Lattice._interval_gains``), so the full domains on a lattice share
    one table, freed with the lattice; callers only read it."""
    if lat._interval_gains is None:
        lat._interval_gains = _interval_table(lat)
    return lat._interval_gains


def _interval_table(lat: Lattice) -> dict:
    """``interval_gains``' table, built from the m^2 interval masks,
    clearing sum |[x, y]| <= m^3 bits."""
    m, gains = lat.m, {}
    for x in range(m):
        row = gains[x] = [(1 << m) - 1] * m
        for y in range(m):
            for o in _bits(lat.interval_mask(x, y)):
                row[o] ^= 1 << y
    return gains


def check_axioms(rule, lat: Lattice, local_set, cap: int = DEFAULT_EVAL_CAP) -> AxiomCheck:
    """Exhaustive anonymity / local neutrality / local sovereignty / local
    idempotence / weak efficiency check over the full carrier.

    The rule must be total (evaluable on every carrier tuple), and a
    local-set element outside ``range(lat.m)`` is refused.  An axiom
    fails iff ``witnesses`` holds its witness, the first in row-major order.
    Anonymity and efficiency read one ``outcomes`` call on outcome lanes.
    Swapping voters k and k+1 moves a cell where they cast a < b up by
    (b - a)(m - 1) strides of voter k+1, so the one-hot lanes where they cast
    (a, b), XORed with those where they cast (b, a) shifted down that far,
    are nonzero where the swap changes the outcome.  A mismatched pair's
    earlier cell has a < b, so the lowest such lane is the first mismatch.
    Efficiency: every voter's gains are ``interval_gains`` (m^3 bits at most,
    counted against ``cap``), so the lowest set bit of the AND of all voters'
    ``gains`` names the first dominated cell and its lowest dominator.
    """
    n, m, names = rule.n, lat.m, lat.names
    local = sorted(set(local_set))
    outside = [z for z in local if not 0 <= z < m]
    if outside:
        raise InvalidSizeError(f"local-set elements {outside} are outside the {m}-element carrier")
    spaces, table = tabulate(rule, lat, full_spaces(lat, n))
    _check_sweep_size("axiom", len(table) * (n + m), cap)
    _check_sweep_size("interval-table", m ** 3, cap)
    lanes = DomainDescriptor.full_unimodal(lat, n, spaces).lanes()
    strides, witnesses = lanes.strides, {}
    onehot, equal = lanes.outcomes(table)

    for k in range(n - 1):
        d, mismatch = 8 * lanes.w * (m - 1) * strides[k + 1], 0
        for a, b in itertools.combinations(range(m), 2):
            ab = onehot & lanes.cells(k, a) & lanes.cells(k + 1, b)
            ba = onehot & lanes.cells(k, b) & lanes.cells(k + 1, a)
            mismatch |= ab ^ ba >> (b - a) * d
        if mismatch:
            ballots = lanes.at(lanes.lowest(mismatch))
            witnesses["anonymous"] = {"ballots": [names[x] for x in ballots], "swap": (k, k + 1)}
            break

    violation = find_local_neutrality_violation(table, lat, local, n)
    if violation is not None:
        ballots, (j, k) = violation
        witnesses["locally_ji_neutral"] = {"ballots": [names[b] for b in ballots],
                                           "transposition": (names[j], names[k])}

    unreachable = find_local_sovereignty_gap(table, lat, local, n)
    if unreachable is not None:
        witnesses["locally_sovereign"] = {"unreachable": [names[z] for z in unreachable]}

    z = next((z for z in local if table[z * sum(strides)] != z), None)
    if z is not None:
        witnesses["locally_idempotent"] = {"element": names[z]}

    common = functools.reduce(operator.and_, [lanes.gains(i, equal) for i in range(n)])
    if common:
        c, x = divmod((common & -common).bit_length() - 1, 8 * lanes.w)
        witnesses["efficient"] = {"tops": [names[t] for t in lanes.at(c)],
                                  "outcome": names[table[c]], "dominated_by": names[x]}

    return AxiomCheck(*(key not in witnesses for key in (
        "anonymous", "locally_ji_neutral", "locally_sovereign", "locally_idempotent",
        "efficient")), witnesses)


# -- reports -------------------------------------------------------------------------------


@dataclass
class CheckResult:
    claim: str
    passed: bool
    witness: object = None
    detail: str = ""

    def to_dict(self):
        return {"claim": self.claim, "pass": self.passed,
                "witness": self.witness, "detail": self.detail}


@dataclass
class VerificationReport:
    suite: str
    checks: list
    elapsed_ms: float = 0.0

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {"suite": self.suite,
                "checks": [c.to_dict() for c in self.checks],
                "elapsed_ms": round(self.elapsed_ms, 3)}

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: "
                 f"{'PASS' if self.passed() else 'FAIL'} "
                 f"({len(self.checks)} checks, {self.elapsed_ms:.0f} ms)"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = f"  [{mark}] {c.claim}"
            if c.detail:
                line += f" -- {c.detail}"
            if not c.passed and c.witness is not None:
                line += f" witness={c.witness}"
            lines.append(line)
        return "\n".join(lines)


# -- random rule generators (quota rules: suites._quota_tables) ----------------------


def sample_monotone_rule(lat: Lattice, n: int, rng) -> ExplicitRule:
    """Random interval-monotonic rule: random corner values expanded through
    the canonical median tree (nested medians are always monotonic)."""
    values = [rng.randrange(lat.m) for _ in range(2 ** n)]
    tree = build_canonical_median_tree(values, n)
    spaces, table = tabulate(tree, lat)
    return ExplicitRule(spaces, table)


def random_explicit_rule(lat: Lattice, n: int, rng) -> ExplicitRule:
    size = check_full_table_size(lat.m, n)
    return ExplicitRule(full_spaces(lat, n), [rng.randrange(lat.m) for _ in range(size)])
