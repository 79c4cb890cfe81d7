"""Exhaustive checkers: interval monotonicity, strategy-proofness, coalition
manipulation search, and the structural axioms of voting rules.

All searches are deterministic: ballot tuples run in row-major order over the
declared ballot spaces, preference profiles in enumeration-index order, and
the coalition search visits coalition sizes from largest to smallest (see
``find_coalitional_manipulation``), so the first witness is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CarrierMismatchError, InvalidSizeError, TooLargeError
from .lattice import Lattice
from .preorders import TotalPreorder, enumerate_lsu, enumerate_unimodal
from .rules import ExplicitRule, build_canonical_median_tree, full_spaces, tabulate

DEFAULT_EVAL_CAP = 10 ** 8


def _strides(sizes):
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return tuple(out)


# -- domains ------------------------------------------------------------------------


class DomainDescriptor:
    """Per-voter ballot spaces and admissible preference sets."""

    __slots__ = ("lattice", "spaces", "preference_sets", "flavor")

    def __init__(self, lattice: Lattice, spaces, preference_sets, flavor="custom"):
        self.lattice = lattice
        self.spaces = tuple(tuple(s) for s in spaces)
        self.preference_sets = tuple(tuple(ps) for ps in preference_sets)
        if len(self.spaces) != len(self.preference_sets):
            raise InvalidSizeError("one ballot space and one preference set per voter")
        for i, (space, prefs) in enumerate(zip(self.spaces, self.preference_sets)):
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
        self.flavor = flavor

    @property
    def n(self) -> int:
        return len(self.spaces)

    @classmethod
    def full_unimodal(cls, lattice: Lattice, n: int, spaces=None) -> "DomainDescriptor":
        pool = enumerate_unimodal(lattice)
        return cls._from_pool(lattice, n, spaces, pool, "full_unimodal")

    @classmethod
    def full_lsu(cls, lattice: Lattice, n: int, spaces=None) -> "DomainDescriptor":
        pool = enumerate_lsu(lattice)
        return cls._from_pool(lattice, n, spaces, pool, "full_lsu")

    @classmethod
    def _from_pool(cls, lattice, n, spaces, pool, flavor):
        if spaces is None:
            spaces = full_spaces(lattice, n)
        spaces = tuple(tuple(s) for s in spaces)
        prefs = tuple(tuple(p for p in pool if p.top in space) for space in spaces)
        return cls(lattice, spaces, prefs, flavor)

    @classmethod
    def custom(cls, lattice, spaces, preference_sets) -> "DomainDescriptor":
        return cls(lattice, spaces, preference_sets, "custom")


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
    voter: int
    preference: TotalPreorder
    truthful_ballots: tuple
    deviant_ballots: tuple
    truthful_outcome: int
    deviant_outcome: int

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
        """Re-evaluate the rule and re-check every member's strict gain."""
        truthful = rule.evaluate(lat, self.truthful_ballots())
        deviant = rule.evaluate(lat, self.deviant_ballots())
        if truthful != self.outcome_truthful or deviant != self.outcome_deviant:
            return False
        return all(self.profile[i].strictly_prefers(deviant, truthful)
                   for i in self.coalition)

    def describe(self, lat: Lattice) -> dict:
        return {
            "coalition": list(self.coalition),
            "coalition_tops": [lat.names[self.profile[i].top] for i in self.coalition],
            "context_ballots": [lat.names[b] for b in self.context_ballots],
            "deviation": [lat.names[b] for b in self.deviation],
            "outcome_truthful": lat.names[self.outcome_truthful],
            "outcome_deviant": lat.names[self.outcome_deviant],
        }


# -- interval monotonicity -------------------------------------------------------------


def find_monotonicity_violation(rule, lat: Lattice, spaces=None,
                                cap: int = DEFAULT_EVAL_CAP):
    """First (ballots, voter, deviation) whose outcome leaves the segment
    between the voter's ballot and the deviant outcome, or None."""
    spaces, table = tabulate(rule, lat, spaces)
    n = len(spaces)
    sizes = [len(s) for s in spaces]
    strides = _strides(sizes)
    estimate = len(table) * sum(sizes)
    if estimate > cap:
        raise TooLargeError(
            f"monotonicity sweep of {estimate} evaluations exceeds the "
            f"evaluation cap {cap}")
    imask = [[lat.interval_mask(x, y) for y in range(lat.m)] for x in range(lat.m)]
    ranges = [range(k) for k in sizes]
    for idx, pos in enumerate(itertools.product(*ranges)):
        out = table[idx]
        for i in range(n):
            base = idx - pos[i] * strides[i]
            row = imask[spaces[i][pos[i]]]
            for q, dev in enumerate(spaces[i]):
                other = table[base + q * strides[i]]
                if not row[other] >> out & 1:
                    ballots = tuple(spaces[j][pos[j]] for j in range(n))
                    return MonotonicityWitness(ballots, i, dev, out, other)
    return None


def is_b_monotonic(rule, lat: Lattice, spaces=None, cap: int = DEFAULT_EVAL_CAP) -> bool:
    return find_monotonicity_violation(rule, lat, spaces, cap) is None


# -- individual strategy-proofness ----------------------------------------------------


def find_strategy_violation(rule, domain: DomainDescriptor,
                            cap: int = DEFAULT_EVAL_CAP):
    """First profitable unilateral deviation from a truthful top, or None."""
    lat = domain.lattice
    spaces, table = tabulate(rule, lat, domain.spaces)
    n = len(spaces)
    sizes = [len(s) for s in spaces]
    strides = _strides(sizes)
    estimate = sum(len(domain.preference_sets[i])
                   * (len(table) // sizes[i]) * sizes[i] for i in range(n))
    if estimate > cap:
        raise TooLargeError(
            f"strategy-proofness sweep of {estimate} evaluations exceeds the "
            f"evaluation cap {cap}")
    pos_of = [{b: q for q, b in enumerate(s)} for s in spaces]
    for i in range(n):
        other_ranges = [range(sizes[j]) for j in range(n) if j != i]
        other_strides = [strides[j] for j in range(n) if j != i]
        other_spaces = [spaces[j] for j in range(n) if j != i]
        for pref in domain.preference_sets[i]:
            ranks = pref.ranks
            top_pos = pos_of[i][pref.top]
            for ctx in itertools.product(*other_ranges):
                base = sum(q * s for q, s in zip(ctx, other_strides))
                truthful = table[base + top_pos * strides[i]]
                r_truthful = ranks[truthful]
                for q in range(sizes[i]):
                    deviant = table[base + q * strides[i]]
                    if ranks[deviant] < r_truthful:
                        context = [sp[c] for sp, c in zip(other_spaces, ctx)]
                        truthful_ballots = tuple(
                            context[j] if j < i else (pref.top if j == i else context[j - 1])
                            for j in range(n))
                        deviant_ballots = list(truthful_ballots)
                        deviant_ballots[i] = spaces[i][q]
                        return StrategyWitness(i, pref, truthful_ballots,
                                               tuple(deviant_ballots),
                                               truthful, deviant)
    return None


def is_strategy_proof(rule, domain: DomainDescriptor,
                      cap: int = DEFAULT_EVAL_CAP) -> bool:
    return find_strategy_violation(rule, domain, cap) is None


# -- coalitional manipulation ----------------------------------------------------------


def _better_masks(pref) -> tuple:
    """better[o]: bitmask of the elements ``pref`` ranks strictly above o."""
    below = [0] * (max(pref.ranks) + 2)    # below[r]: elements of rank < r
    for v, r in enumerate(pref.ranks):
        below[r + 1] |= 1 << v
    for r in range(1, len(below)):
        below[r] |= below[r - 1]
    return tuple(below[r] for r in pref.ranks)


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

    One exact search finds it without enumerating profiles.  A voter's gain
    set for an anchor (its top; None under literal semantics) and outcome is
    the union of the strictly-better sets over the preferences it may hold
    from that anchor.  Preference choices are independent across voters, so a
    prefix of chosen preference indices admits a witness iff some starting
    ballot tuple with the given truthful outcome and some coalition of the
    given size have a common gain (exact sets for chosen voters, gain sets
    for the others) meeting the outcomes the coalition can force.  For each
    size and truthful outcome the profile is then fixed voter by voter with
    the smallest index that still admits a witness, without backtracking.
    """
    if semantics not in ("truthful", "literal"):
        raise ValueError(f"unknown semantics {semantics!r}")
    literal = semantics == "literal"
    lat = domain.lattice
    n = domain.n
    spaces, table = tabulate(rule, lat, domain.spaces)
    sizes = [len(s) for s in spaces]
    strides = _strides(sizes)
    pos_of = [{b: q for q, b in enumerate(s)} for s in spaces]

    space_product = 1
    for k in sizes:
        space_product *= k
    deviation_mass = 1
    for k in sizes:
        deviation_mass *= (k + 1)
    origin_mass = space_product if literal else 1
    pref_sets = domain.preference_sets
    tops = [[p.top for p in prefs] for prefs in pref_sets]
    # the voter-by-voter fix-up never enumerates profiles: each tried
    # preference costs one first_hit scan over at most start_mass start tuples
    start_mass = 1
    for i in range(n):
        start_mass *= sizes[i] if literal else len(set(tops[i]))
    scan_mass = start_mass * sum(len(prefs) for prefs in pref_sets)
    if origin_mass * deviation_mass > cap or scan_mass > cap:
        raise TooLargeError(
            f"coalition search of {origin_mass * deviation_mass} deviations and "
            f"{scan_mass} preference scans exceeds the evaluation cap {cap}")

    better = [[_better_masks(p) for p in prefs] for prefs in pref_sets]
    # (ballot, table offset) per voter: every ballot under literal semantics,
    # the distinct tops under truthful semantics
    starts = [[(b, pos_of[i][b] * strides[i])
               for b in (spaces[i] if literal else dict.fromkeys(tops[i]))]
              for i in range(n)]
    gain = []
    for i in range(n):
        gain_i = {}
        for k, t in enumerate(tops[i]):
            anchor = None if literal else t
            for o in range(lat.m):
                gain_i[anchor, o] = gain_i.get((anchor, o), 0) | better[i][k][o]
        gain.append(gain_i)
    members_of = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
    masks_by_size = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        masks_by_size[len(members_of[mask])].append(mask)

    reached = {}

    def reach(mask, base):
        """Outcomes the voters in mask can force while the others keep the
        positions in base (members at position 0)."""
        key = base << n | mask
        hit = reached.get(key)
        if hit is None:
            low = mask & -mask
            i = low.bit_length() - 1
            rest = mask ^ low
            hit = 0
            for q in range(sizes[i]):
                if rest:
                    hit |= reach(rest, base + q * strides[i])
                else:
                    hit |= 1 << table[base + q * strides[i]]
            reached[key] = hit
        return hit

    def first_hit(choice, size, o_t):
        """First (start, idx, mask, common) completing the preference prefix
        ``choice`` into a witness of this size and truthful outcome, or None."""
        options = []
        for i in range(n):
            if i < len(choice):
                k = choice[i]
                own = starts[i] if literal else [s for s in starts[i]
                                                 if s[0] == tops[i][k]]
                options.append([(b, off, better[i][k][o_t]) for b, off in own])
            else:
                options.append([(b, off, gain[i][None if literal else b, o_t])
                                for b, off in starts[i]])
        for start in itertools.product(*options):
            idx = 0
            usable = 0
            for i, (_, off, gains) in enumerate(start):
                idx += off
                if gains:
                    usable |= 1 << i
            if table[idx] != o_t:
                continue
            for mask in masks_by_size[size]:
                if mask & ~usable:
                    continue
                common = -1
                base = idx
                for i in members_of[mask]:
                    common &= start[i][2]
                    base -= start[i][1]
                if common and common & reach(mask, base):
                    return start, idx, mask, common
        return None

    outcomes = set(table)
    for size in range(n, 0, -1):
        for o_t in range(lat.m):
            if o_t not in outcomes:
                continue
            hit = first_hit((), size, o_t)
            if hit is None:
                continue
            choice = ()
            for i in range(n):
                failed = set()    # same top and better set: same completions
                for k in range(len(pref_sets[i])):
                    signature = (tops[i][k], better[i][k][o_t])
                    if signature in failed:
                        continue
                    found = first_hit(choice + (k,), size, o_t)
                    if found is not None:
                        choice += (k,)
                        hit = found
                        break
                    failed.add(signature)
            start, idx, mask, common = hit
            members = members_of[mask]
            base = idx - sum(start[i][1] for i in members)
            for dev in itertools.product(*(range(sizes[i]) for i in members)):
                o_d = table[base + sum(q * strides[i] for i, q in zip(members, dev))]
                if common >> o_d & 1:
                    outsiders = [j for j in range(n) if not mask >> j & 1]
                    origin = tuple(b for b, _, _ in start)
                    return ManipulationWitness(
                        profile=tuple(pref_sets[i][choice[i]] for i in range(n)),
                        coalition=tuple(members),
                        context_ballots=tuple(origin[j] for j in outsiders),
                        deviation=tuple(spaces[i][q] for i, q in zip(members, dev)),
                        outcome_truthful=o_t,
                        outcome_deviant=o_d,
                        origin_ballots=origin if literal else None)
    return None


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


def find_local_sovereignty_gap(table, lat: Lattice, local, n: int):
    """The elements of ``local`` that no ballot tuple over ``local`` reaches,
    in the order given, or None when the full-carrier table reaches them all."""
    strides = _strides([lat.m] * n)
    reached = set()
    for ballots in itertools.product(local, repeat=n):
        reached.add(table[sum(b * s for b, s in zip(ballots, strides))])
    unreachable = [z for z in local if z not in reached]
    return unreachable or None


def find_local_neutrality_violation(table, lat: Lattice, local, n: int):
    """First (ballots over ``local``, (j, k)) where swapping the
    join-irreducibles j < k of ``local`` does not commute with the
    full-carrier table, or None."""
    strides = _strides([lat.m] * n)
    ji_local = sorted(lat.join_irreducibles & set(local))
    for j, k in itertools.combinations(ji_local, 2):
        swap = list(range(lat.m))
        swap[j], swap[k] = k, j
        for ballots in itertools.product(local, repeat=n):
            image = table[sum(swap[b] * s for b, s in zip(ballots, strides))]
            direct = table[sum(b * s for b, s in zip(ballots, strides))]
            if image != swap[direct]:
                return ballots, (j, k)
    return None


def check_axioms(rule, lat: Lattice, local_set, unimodal_pool=None,
                 cap: int = DEFAULT_EVAL_CAP) -> AxiomCheck:
    """Exhaustive anonymity / local neutrality / local sovereignty / local
    idempotence / weak efficiency check over the full carrier.

    The rule must be total (evaluable on every carrier tuple).  Efficiency
    quantifies top-profiles of the full unimodal preference pool.
    """
    n = rule.n
    m = lat.m
    local = sorted(set(local_set))
    spaces, table = tabulate(rule, lat, full_spaces(lat, n))
    strides = _strides([m] * n)
    estimate = len(table) * (n + m)
    if estimate > cap:
        raise TooLargeError(
            f"axiom sweep of {estimate} evaluations exceeds the evaluation cap {cap}")
    witnesses = {}

    anonymous = True
    for k in range(n - 1):
        if not anonymous:
            break
        for idx, pos in enumerate(itertools.product(*(range(m),) * n)):
            if pos[k] == pos[k + 1]:
                continue
            swapped = (idx + (pos[k + 1] - pos[k]) * strides[k]
                       + (pos[k] - pos[k + 1]) * strides[k + 1])
            if table[idx] != table[swapped]:
                anonymous = False
                witnesses["anonymous"] = {"ballots": [lat.names[b] for b in pos],
                                          "swap": (k, k + 1)}
                break

    violation = find_local_neutrality_violation(table, lat, local, n)
    neutral = violation is None
    if not neutral:
        ballots, (j, k) = violation
        witnesses["locally_ji_neutral"] = {
            "ballots": [lat.names[b] for b in ballots],
            "transposition": (lat.names[j], lat.names[k])}

    unreachable = find_local_sovereignty_gap(table, lat, local, n)
    sovereign = unreachable is None
    if not sovereign:
        witnesses["locally_sovereign"] = {
            "unreachable": [lat.names[z] for z in unreachable]}

    idempotent = True
    for z in local:
        if table[sum(z * s for s in strides)] != z:
            idempotent = False
            witnesses["locally_idempotent"] = {"element": lat.names[z]}
            break

    if unimodal_pool is None:
        unimodal_pool = enumerate_unimodal(lat)
    dominance = [[set() for _ in range(m)] for _ in range(m)]  # [top][outcome]
    for p in unimodal_pool:
        t = p.top
        for o in range(m):
            for x in range(m):
                if p.ranks[x] < p.ranks[o]:
                    dominance[t][o].add(x)
    efficient = True
    for idx, tops in enumerate(itertools.product(*(range(m),) * n)):
        o = table[idx]
        for x in range(m):
            if x != o and all(x in dominance[t][o] for t in tops):
                efficient = False
                witnesses["efficient"] = {
                    "tops": [lat.names[t] for t in tops],
                    "outcome": lat.names[o],
                    "dominated_by": lat.names[x]}
                break
        if not efficient:
            break

    return AxiomCheck(anonymous, neutral, sovereign, idempotent, efficient,
                      witnesses)


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


# -- rule generators ---------------------------------------------------------------------


def nondecreasing_tuples(lat: Lattice, length: int):
    """All lattice-order-nondecreasing tuples over the carrier, lexicographic."""
    out = []

    def rec(prefix):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        last = prefix[-1] if prefix else None
        for e in range(lat.m):
            if last is None or lat.leq(last, e):
                rec(prefix + [e])

    rec([])
    return out


def enumerate_quota_rules(lat: Lattice, n: int, include_empty: bool = True):
    """Anonymous committee rules whose constants depend only on coalition size,
    nondecreasing in size.  Returns (constant-vector, CommitteeRule) pairs."""
    from .rules import CommitteeRule

    length = n + 1 if include_empty else n
    rules = []
    for constants in nondecreasing_tuples(lat, length):
        padded = constants if include_empty else (None,) + constants
        terms = []
        if include_empty:
            terms.append((frozenset(), padded[0]))
        for size in range(1, n + 1):
            for coalition in itertools.combinations(range(n), size):
                terms.append((frozenset(coalition), padded[size]))
        rules.append((padded, CommitteeRule(n, terms)))
    return rules


def sample_monotone_rule(lat: Lattice, n: int, rng) -> ExplicitRule:
    """Random interval-monotonic rule: random corner values expanded through
    the canonical median tree (nested medians are always monotonic)."""
    values = [rng.randrange(lat.m) for _ in range(2 ** n)]
    tree = build_canonical_median_tree(values, n)
    spaces, table = tabulate(tree, lat)
    return ExplicitRule(spaces, table)


def random_explicit_rule(lat: Lattice, n: int, rng) -> ExplicitRule:
    spaces = full_spaces(lat, n)
    size = lat.m ** n
    return ExplicitRule(spaces, [rng.randrange(lat.m) for _ in range(size)])
