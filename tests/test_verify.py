import collections
import functools
import itertools
import operator
import random
import signal
import time
import tracemalloc
from dataclasses import replace

import pytest
from conftest import (
    enumerate_quota_rules,
    evaluate_table,
    monotonicity_violations,
    seeded_ideal_lattice,
    small_posets,
    within,
)
from hypothesis import assume, given, settings, strategies as st

from medianvoting.errors import (
    CarrierMismatchError,
    InvalidSizeError,
    NoSuitableSublatticeError,
    NotAChainError,
    NotALatticeError,
    NotEnoughAtomsError,
    TooLargeError,
)
from medianvoting.lattice import (
    Lattice,
    build_boolean_hypercube,
    build_chain,
    build_ideal_lattice,
    build_product,
)
from medianvoting.preorders import (
    TotalPreorder,
    build_lsu_witness,
    build_three_class_witness,
    enumerate_lsu,
    enumerate_topped_preorders,
    enumerate_unimodal,
)
from medianvoting.rules import (
    EXPLICIT_TABLE_CAP,
    CommitteeRule,
    ExplicitRule,
    build_canonical_median_tree,
    corners,
    extended_median_rule,
    full_spaces,
    tabulate,
    tree_to_committee,
)
from medianvoting import cli, preorders, suites, verify
from medianvoting.suites import (
    _diamond_labels,
    _four_chain_labels,
    _quota_tables,
    _quota_threshold,
    _roundtrips_exact,
    boolean_square,
    boolean_square_suite,
    chain_equivalence_suite,
    claim1_suite,
    lemma1_suite,
    lemma2_suite,
    theorem1_suite,
    theorem2_suite,
    theorem3_suite,
)
from medianvoting.verify import (
    CodeLanes,
    DomainDescriptor,
    ManipulationWitness,
    MonotonicityWitness,
    StrategyWitness,
    check_axioms,
    check_coalition_search_size,
    find_coalitional_manipulation,
    interval_gains,
    find_local_neutrality_violation,
    find_local_sovereignty_gap,
    find_monotonicity_violation,
    find_strategy_violation,
    random_explicit_rule,
    sample_monotone_rule,
    strategy_witness_from,
)


def local_sovereignty_gap_oracle(table, lat, local, n):
    """Cell-by-cell oracle of ``find_local_sovereignty_gap``."""
    strides = [lat.m ** (n - 1 - v) for v in range(n)]
    reached = set()
    for ballots in itertools.product(local, repeat=n):
        reached.add(table[sum(b * s for b, s in zip(ballots, strides))])
    unreachable = [z for z in local if z not in reached]
    return unreachable or None


def local_neutrality_violation_oracle(table, lat, local, n):
    """Cell-by-cell oracle of ``find_local_neutrality_violation``."""
    strides = [lat.m ** (n - 1 - v) for v in range(n)]
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


def lemma2_oracle(lat, n, median_table):
    """Per-cell oracle of ``lemma2_suite`` with ``median_table`` as its
    extended median: (the distinct mixed tables swept, in order, the triples
    tested, the first failing mix's witness or None)."""
    spaces = full_spaces(lat, n)
    pool = [tuple(b[i] for b in itertools.product(*spaces)) for i in range(n)]
    pool += [(c,) * lat.m ** n for c in range(lat.m)]
    pool.append(tuple(median_table))
    swept = []
    tested = 0
    for triple in itertools.combinations_with_replacement(pool, 3):
        tested += 1
        mixed = tuple(lat.median(a, b, c) for a, b, c in zip(*triple))
        if mixed in swept:
            continue
        swept.append(mixed)
        violation = find_monotonicity_violation(ExplicitRule(spaces, mixed), lat)
        if violation is not None:
            return swept, tested, violation.describe(lat)
    return swept, tested, None


def efficiency_oracle(table, lat, n, pool):
    """Set-by-set oracle of ``check_axioms``' efficiency sweep: (efficient,
    witness or None)."""
    m = lat.m
    dominance = [[set() for _ in range(m)] for _ in range(m)]  # [top][outcome]
    for p in pool:
        for o in range(m):
            for x in range(m):
                if p.ranks[x] < p.ranks[o]:
                    dominance[p.top][o].add(x)
    for idx, tops in enumerate(itertools.product(range(m), repeat=n)):
        o = table[idx]
        for x in range(m):
            if x != o and all(x in dominance[t][o] for t in tops):
                return False, {"tops": [lat.names[t] for t in tops],
                               "outcome": lat.names[o],
                               "dominated_by": lat.names[x]}
    return True, None


def anonymity_idempotence_oracle(table, lat, n, local):
    """Cell-by-cell oracle of ``check_axioms``' anonymity and idempotence:
    (the first (swap, ballots) in swap order, then row-major order, where
    exchanging the ballots of voters k and k+1 changes the outcome, the first
    element z of ``local`` whose unanimous profile does not give z), each
    None when there is none."""
    strides = [lat.m ** (n - 1 - v) for v in range(n)]

    def outcome(ballots):
        return table[sum(b * s for b, s in zip(ballots, strides))]

    swapped = next((((k, k + 1), ballots) for k in range(n - 1)
                    for ballots in itertools.product(range(lat.m), repeat=n)
                    if outcome(ballots) != outcome(ballots[:k] + (ballots[k + 1], ballots[k])
                                                   + ballots[k + 2:])), None)
    idle = next((z for z in sorted(set(local)) if outcome((z,) * n) != z), None)
    return swapped, idle


def assert_anonymity_and_idempotence_match_the_oracle(table, lat, n, local):
    """``check_axioms`` on the table against the oracle; returns the two verdicts."""
    axioms = check_axioms(ExplicitRule(full_spaces(lat, n), table), lat, local)
    swapped, idle = anonymity_idempotence_oracle(table, lat, n, local)
    assert axioms.witnesses.get("anonymous") == (swapped and {
        "ballots": [lat.names[b] for b in swapped[1]], "swap": swapped[0]})
    assert axioms.witnesses.get("locally_idempotent") == (
        None if idle is None else {"element": lat.names[idle]})
    assert (axioms.anonymous, axioms.locally_idempotent) == (swapped is None, idle is None)
    return axioms.anonymous, axioms.locally_idempotent


def axiom_tables(lat, n, rng):
    """Random, monotone, few-valued, unanimity-keeping and symmetric tables,
    and symmetric tables with one cell changed."""
    spaces = full_spaces(lat, n)
    tables = [tabulate(extended_median_rule(lat, n), lat)[1]]
    for _ in range(3):
        tables.append(random_explicit_rule(lat, n, rng).table)
        tables.append(sample_monotone_rule(lat, n, rng).table)
        outputs = rng.sample(range(lat.m), min(lat.m, rng.randint(1, 3)))
        tables.append(tuple(rng.choice(outputs) for _ in range(lat.m ** n)))
        tables.append(ExplicitRule.from_function(
            spaces, lambda b: b[0] if len(set(b)) == 1 else rng.randrange(lat.m)).table)
        chosen = {}
        symmetric = ExplicitRule.from_function(
            spaces, lambda b: chosen.setdefault(tuple(sorted(b)), rng.randrange(lat.m))).table
        tables.append(symmetric)
        cell = rng.randrange(len(symmetric))
        tables.append(symmetric[:cell] + ((symmetric[cell] + 1) % lat.m,)
                      + symmetric[cell + 1:])
    return tables


class SkewedLattice:
    """A lattice whose ``between`` (flipped), ``median`` (shifted) or
    ``interval_mask`` (bit z of [u, v] flipped, for a chosen (u, v, z))
    answers wrong on the chosen tuples; ``interval`` lists the skewed mask,
    and everything else is the wrapped lattice's."""

    def __init__(self, lat, method, bad):
        self._lat, self._method, self._bad = lat, method, set(bad)

    def __getattr__(self, name):
        return getattr(self._lat, name)

    def between(self, x, z, y):
        truth = self._lat.between(x, z, y)
        return truth != (self._method == "between" and (x, z, y) in self._bad)

    def median(self, a, b, c):
        truth = self._lat.median(a, b, c)
        if self._method == "median" and (a, b, c) in self._bad:
            return (truth + 1) % self._lat.m
        return truth

    def interval_mask(self, u, v):
        mask = self._lat.interval_mask(u, v)
        if self._method == "interval_mask":
            for z in range(self._lat.m):
                mask ^= ((u, v, z) in self._bad) << z
        return mask

    def interval(self, u, v):
        mask = self.interval_mask(u, v)
        return tuple(e for e in range(self._lat.m) if mask >> e & 1)


def first_failure(lat, arity, fails):
    """Names of the first tuple in ``itertools.product`` order that fails."""
    for t in itertools.product(range(lat.m), repeat=arity):
        if fails(*t):
            return [lat.names[e] for e in t]
    return None


def claim1_oracle(lat):
    """Each claim1 check's first failing tuple, by naive loops."""
    btw, med = lat.between, lat.median
    dist = lat.rank_valuation().distance
    convexity = None
    for x, y in itertools.product(range(lat.m), repeat=2):
        for u, v in itertools.product(lat.interval(x, y), repeat=2):
            for z in lat.interval(u, v):
                if convexity is None and not btw(x, z, y):
                    convexity = [lat.names[e] for e in (x, u, v, z, y)]
    return {
        "betweenness-symmetry": first_failure(
            lat, 3, lambda x, z, y: btw(x, z, y) and not btw(y, z, x)),
        "betweenness-closure": first_failure(
            lat, 2, lambda x, y: not (btw(x, x, y) and btw(x, y, y))),
        "betweenness-idempotence": first_failure(
            lat, 2, lambda x, y: btw(x, y, x) and y != x),
        "betweenness-convexity": convexity,
        "betweenness-antisymmetry": first_failure(
            lat, 3, lambda x, y, z: btw(x, y, z) and btw(y, x, z) and x != y),
        "median-absorbs-bounds": first_failure(
            lat, 1, lambda a: med(lat.bottom, a, lat.top) != a),
        "median-majority-of-repeats": first_failure(
            lat, 2, lambda a, b: med(a, b, a) != a),
        "median-symmetry": first_failure(
            lat, 3, lambda a, b, c: not med(a, b, c) == med(b, a, c) == med(b, c, a)),
        "median-redistribution": first_failure(
            lat, 5, lambda a, b, c, d, e:
            med(med(a, b, c), d, e) != med(med(a, d, e), b, med(c, d, e))),
        "median-defines-betweenness": first_failure(
            lat, 3, lambda x, z, y: btw(x, z, y) != (med(x, y, z) == z)),
        "join-meet-are-medians": first_failure(
            lat, 2, lambda a, b: med(a, b, lat.top) != lat.join(a, b)
            or med(a, b, lat.bottom) != lat.meet(a, b)),
        "valuation-metric-geodesics": first_failure(
            lat, 3, lambda x, y, z: btw(x, y, z) != (dist(x, z) == dist(x, y) + dist(y, z))),
    }


def remark3_rule(chain4):
    a, d = chain4.element("a"), chain4.element("d")
    b, c = chain4.element("b"), chain4.element("c")
    value = {(a, a): a, (a, d): b, (d, a): c, (d, d): d}
    return ExplicitRule.from_function(
        ((a, d), (a, d), tuple(range(4))),
        lambda ballots: value[(ballots[0], ballots[1])])


def remark3_domains(chain4):
    a, b, c, d = (chain4.element(s) for s in "abcd")
    pair = (a, d)
    carrier = tuple(range(4))
    p_a = TotalPreorder.from_classes([[a], [b], [c, d]], m=4)   # a > b > c~d
    p_d = TotalPreorder.from_classes([[d], [b], [c, a]], m=4)   # d > b > c~a
    q_a = TotalPreorder.from_classes([[a], [b], [c], [d]], m=4)
    q_d = TotalPreorder.from_classes([[d], [b], [c], [a]], m=4)
    pool = enumerate_unimodal(chain4)
    dom_u = DomainDescriptor(chain4, (pair, pair, carrier),
                             ((p_a, p_d), (p_a, p_d), pool))
    dom_s = DomainDescriptor(chain4, (pair, pair, carrier),
                             ((q_a, q_d), (q_a, q_d), pool))
    return dom_u, dom_s


def brute_force_manipulation(rule, lat, spaces, preference_sets, literal):
    """Naive coalition search: every profile, starting ballot tuple, coalition
    and joint deviation, keeping the minimum of the documented witness key
    (size descending, truthful outcome, profile index, starting ballots under
    literal semantics, coalition bitmask, deviation in ballot order)."""
    n = len(spaces)
    outcome = {b: rule.evaluate(lat, b) for b in itertools.product(*spaces)}
    positions = [range(len(s)) for s in spaces]
    best_key, best = None, None
    for choice in itertools.product(*(range(len(ps)) for ps in preference_sets)):
        profile = tuple(preference_sets[i][k] for i, k in enumerate(choice))
        if literal:
            origins = list(itertools.product(*positions))
        else:
            origins = [tuple(spaces[i].index(p.top) for i, p in enumerate(profile))]
        for origin in origins:
            start = tuple(spaces[i][q] for i, q in enumerate(origin))
            o_t = outcome[start]
            for mask in range(1, 1 << n):
                members = [i for i in range(n) if mask >> i & 1]
                for dev in itertools.product(*(positions[i] for i in members)):
                    ballots = list(start)
                    for i, q in zip(members, dev):
                        ballots[i] = spaces[i][q]
                    o_d = outcome[tuple(ballots)]
                    if not all(profile[i].strictly_prefers(o_d, o_t) for i in members):
                        continue
                    key = (-len(members), o_t, choice, origin if literal else (),
                           mask, dev)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = ManipulationWitness(
                            profile=profile,
                            coalition=tuple(members),
                            context_ballots=tuple(start[j] for j in range(n)
                                                  if not mask >> j & 1),
                            deviation=tuple(spaces[i][q] for i, q in zip(members, dev)),
                            outcome_truthful=o_t,
                            outcome_deviant=o_d,
                            origin_ballots=start if literal else None)
    return best


def peaked_preferences(rng, lat, space, count):
    """``count`` or fewer distinct preferences peaked on ballots of ``space``:
    three-class and LSU witnesses towards random elements, and random ranks
    below the peak; a ballot may be left without any."""
    pool = []
    for peak in space:
        ref = rng.randrange(lat.m)
        pool += [build_three_class_witness(lat, peak, ref), build_lsu_witness(lat, peak, ref)]
        ranks = [0 if e == peak else rng.randint(1, 3) for e in range(lat.m)]
        dense = {r: i for i, r in enumerate(sorted(set(ranks)))}
        pool.append(TotalPreorder([dense[r] for r in ranks]))
    pool = list(dict.fromkeys(pool))
    return tuple(rng.sample(pool, min(count, len(pool))))


def brute_force_strategy_violation(rule, domain):
    """Naive sweep over every profile, voter and deviation, keeping the
    minimum of the documented witness key (voter, the voter's preference
    index, the others' truthful ballots in row-major order, deviation in
    ballot order).  The sweep under test runs the others over whole ballot
    spaces; on the full domains every ballot is the top of a held
    preference, so the profiles reach the same contexts."""
    lat, spaces, preference_sets = domain.lattice, domain.spaces, domain.preference_sets
    outcome = {b: rule.evaluate(lat, b) for b in itertools.product(*spaces)}
    best_key, best = None, None
    for choice in itertools.product(*(range(len(ps)) for ps in preference_sets)):
        profile = [preference_sets[i][k] for i, k in enumerate(choice)]
        truthful = tuple(p.top for p in profile)
        o_t = outcome[truthful]
        for i, pref in enumerate(profile):
            others = tuple(spaces[j].index(b) for j, b in enumerate(truthful) if j != i)
            for q, b in enumerate(spaces[i]):
                deviant = truthful[:i] + (b,) + truthful[i + 1:]
                o_d = outcome[deviant]
                key = (i, choice[i], others, q)
                if pref.strictly_prefers(o_d, o_t) and (best_key is None or key < best_key):
                    best_key = key
                    best = StrategyWitness(i, pref, truthful, deviant, o_t, o_d)
    return best


class TestDomainDescriptor:
    def test_full_domains(self, square):
        dom = DomainDescriptor.full_unimodal(square, 3)
        assert dom.n == 3
        assert all(len(prefs) == 12 for prefs in dom.preference_sets)

    def test_restricted_spaces_filter_tops(self, square):
        x = square.element("x")
        dom = DomainDescriptor.full_unimodal(
            square, 2, spaces=((x,), tuple(range(4))))
        assert all(p.top == x for p in dom.preference_sets[0])
        assert len(dom.preference_sets[0]) == 3

    def test_top_outside_space_rejected(self, square):
        p = TotalPreorder([0, 1, 1, 1])
        with pytest.raises(InvalidSizeError):
            DomainDescriptor(square, ((1, 2), (1, 2)), ((p,), (p,)))

    def test_malformed_domains_rejected(self, square):
        p = TotalPreorder([0, 1, 1, 1])
        with pytest.raises(InvalidSizeError, match="one ballot space and one preference set"):
            DomainDescriptor(square, ((0, 1), (0, 1)), ((p,),))
        with pytest.raises(InvalidSizeError, match="voter 1 has an empty preference set"):
            DomainDescriptor(square, ((0, 1), (0, 1)), ((p,), ()))
        with pytest.raises(CarrierMismatchError, match="voter 0 has a preorder on 3 elements"):
            DomainDescriptor(square, ((0, 1),), ((TotalPreorder([0, 1, 1]),),))

    @settings(max_examples=30, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=2))
    def test_better_masks_and_gain_tables_match_the_ranks(self, poset, n):
        lat = build_ideal_lattice(*poset)
        assume(lat.m <= 6)

        def above(p, o):
            return sum(1 << e for e in range(lat.m) if p.ranks[e] < p.ranks[o])

        for p in enumerate_topped_preorders(lat):
            assert p.better == tuple(above(p, o) for o in range(lat.m))
        for factory in (DomainDescriptor.full_unimodal, DomainDescriptor.full_lsu):
            domain = factory(lat, n)
            gains = domain.gain_masks()
            assert len(gains) == n and domain.gain_masks() is gains
            for prefs, gain in zip(domain.preference_sets, gains):
                tops = sorted({p.top for p in prefs})
                assert sorted(gain) == tops
                for t in tops:
                    assert gain[t] == [functools.reduce(
                        operator.or_, [above(p, o) for p in prefs if p.top == t])
                        for o in range(lat.m)]
        # the masks belong to the preorders: domains from one pool share them
        pool = enumerate_lsu(lat)
        first = DomainDescriptor(lat, full_spaces(lat, n), [pool] * n)
        first.gain_masks()
        kept = [p.better for p in pool]
        second = DomainDescriptor(lat, full_spaces(lat, 1), [pool[::-1]])
        second.gain_masks()
        assert all(p.better is masks
                   for p, masks in zip(second.preference_sets[0][::-1], kept))

    @settings(max_examples=40, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_lazy_full_domains_match_the_filtered_pools(self, poset, n, seed):
        # a full domain generates its preferences top by top and counts them
        # without generating; either must give the pool filtered by the
        # spaces, in pool order, and the pool's gain tables
        lat = build_ideal_lattice(*poset)
        assume(lat.m <= 7)
        rng = random.Random(seed)
        spaces = [tuple(rng.sample(range(lat.m), rng.randint(1, lat.m))) for _ in range(n)]
        for factory, enumerate_family in ((DomainDescriptor.full_unimodal, enumerate_unimodal),
                                          (DomainDescriptor.full_lsu, enumerate_lsu)):
            pool = enumerate_family(lat)
            filtered = [tuple(p for p in pool if p.top in space) for space in spaces]
            domain = factory(lat, n, spaces)
            # read part of one run first: the rest is generated after it
            top, run = next(domain.runs(n - 1))
            assert next(run).top == top
            assert domain.preference_count() == sum(map(len, filtered))
            assert domain.preference_sets == tuple(filtered)
            assert domain.gain_masks() == DomainDescriptor(lat, spaces, filtered).gain_masks()
            # voters holding one top share its preference objects
            first = {}
            for prefs in domain.preference_sets:
                for p in prefs:
                    assert first.setdefault(p, p) is p

    @pytest.fixture
    def searches(self, monkeypatch):
        """The names of the searches made through ``verify``'s makers."""
        made = []
        for name in ("unimodal_search", "lsu_search"):
            def spy(lat, maker=getattr(verify, name), name=name):
                made.append(name)
                return maker(lat)
            monkeypatch.setattr(verify, name, spy)
        return made

    @pytest.mark.parametrize("fixture", ["cube3", "grid3x3", "chain8"])
    def test_full_domains_past_the_cap_refuse_only_where_they_enumerate(
            self, fixture, request, searches):
        # building, the gain tables, both lanes and Lemma 1's witnesses make
        # no search; whatever counts or generates preferences refuses
        lat = build_chain(8) if fixture == "chain8" else request.getfixturevalue(fixture)
        rule = random_explicit_rule(lat, 2, random.Random(0))
        violation = find_monotonicity_violation(rule, lat)
        message = f"enumeration over {lat.m} elements exceeds cap 7"
        domains = DomainDescriptor.full_unimodal(lat, 2), DomainDescriptor.full_lsu(lat, 2)
        witnesses = [strategy_witness_from(violation, domain) for domain in domains]
        for domain, witness in zip(domains, witnesses):
            assert domain.gain_masks()[1] == interval_gains(lat)
            assert domain.lanes("truthful").gain is domain.gain_masks()
            assert domain.lanes("literal").gain is not domain.gain_masks()
            assert witness.validate(rule, lat)
        assert searches == []
        for domain, witness in zip(domains, witnesses):
            for ask in (lambda: domain.runs(0), domain.preference_count,
                        domain.preference_bound,
                        lambda: domain.holds(0, witness.preference),
                        lambda: find_strategy_violation(rule, domain),
                        lambda: check_coalition_search_size(domain)):
                with pytest.raises(TooLargeError, match=message):
                    ask()

    @pytest.mark.parametrize("fixture", ["square", "chain4"])
    def test_a_full_domain_makes_its_search_once(self, fixture, request, searches):
        lat = request.getfixturevalue(fixture)
        for factory in (DomainDescriptor.full_unimodal, DomainDescriptor.full_lsu):
            domain = factory(lat, 2)
            for seed in range(4):
                rule = random_explicit_rule(lat, 2, random.Random(seed))
                find_strategy_violation(rule, domain)
                find_coalitional_manipulation(rule, domain)
                find_coalitional_manipulation(rule, domain, semantics="literal")
                assert domain.preference_count() <= domain.preference_bound()
                assert domain.holds(1, next(next(domain.runs(1))[1]))
        assert searches == ["unimodal_search", "lsu_search"]

    def test_holds_is_membership(self, square):
        x = square.element("x")
        dom = DomainDescriptor.full_unimodal(square, 2, spaces=((x,), tuple(range(4))))
        for p in enumerate_topped_preorders(square):
            for i, prefs in enumerate(dom.preference_sets):
                assert dom.holds(i, TotalPreorder(p.ranks)) == (p in prefs)

    def test_one_domain_serves_every_sweep_as_fresh_domains_do(self, square, chain4,
                                                               monkeypatch):
        # the strategy, truthful-coalition and literal-coalition sweeps share
        # one domain in changing orders over several rules: each answer
        # equals a fresh domain's, and each semantics' lanes and the gain
        # masks are built once
        built = []

        class Counting(verify.OutcomeLanes):
            def __init__(self, spaces, m, gain):
                # a domain passes its own spaces tuple, which names it, and
                # its own gain masks only under truthful semantics
                built.append((spaces, gain))
                super().__init__(spaces, m, gain)

        monkeypatch.setattr(verify, "OutcomeLanes", Counting)
        sweeps = [find_strategy_violation,
                  functools.partial(find_coalitional_manipulation, semantics="truthful"),
                  functools.partial(find_coalitional_manipulation, semantics="literal")]
        rng = random.Random(1712)
        found = 0
        for lat, n, factory in ((square, 2, DomainDescriptor.full_unimodal),
                                (chain4, 2, DomainDescriptor.full_lsu),
                                (square, 3, DomainDescriptor.full_lsu)):
            spaces = random_spaces(rng, lat, n)
            shared = factory(lat, n, spaces)
            kept = None
            for case in range(6):
                rule = random_rule(rng, lat, spaces, ("random", "median", "mixed")[case % 3])
                for sweep in rng.sample(sweeps, 3):
                    witness = sweep(rule, shared)
                    assert witness == sweep(rule, factory(lat, n, spaces)), case
                    found += witness is not None
                    now = (shared.gain_masks(), shared.lanes("truthful"),
                           shared.lanes("literal"), shared.lanes("literal").start)
                    kept = kept or now
                    assert all(a is b for a, b in zip(now, kept))
            assert sorted(gain is not shared.gain_masks() for spaces, gain in built
                          if spaces is shared.spaces) == [False, True]
        # both answers occur
        assert found == 43


class TestMonotonicity:
    def test_projection_and_constant(self, square):
        spaces = full_spaces(square, 2)
        proj = ExplicitRule.from_function(spaces, lambda b: b[1])
        const = ExplicitRule.from_function(spaces, lambda b: 2)
        assert find_monotonicity_violation(proj, square) is None
        assert find_monotonicity_violation(const, square) is None

    def test_majority_is_monotone(self, square):
        rule = extended_median_rule(square, 5)
        assert find_monotonicity_violation(rule, square) is None

    def test_remark3_witness(self, chain4):
        rule = remark3_rule(chain4)
        witness = find_monotonicity_violation(rule, chain4)
        a, c, d = (chain4.element(s) for s in "acd")
        assert witness is not None
        assert witness.ballots[:2] == (d, a)
        assert witness.voter == 0 and witness.deviation == a
        assert witness.outcome == c
        assert not chain4.between(d, c, witness.deviant_outcome)

    def test_cap(self, square):
        rule = extended_median_rule(square, 5)
        with pytest.raises(TooLargeError):
            find_monotonicity_violation(rule, square, cap=10)

    def test_matches_brute_force_oracle(self, square, chain4, corner_square,
                                        cube3, grid3x3):
        rng = random.Random(5120)
        carriers = [square, chain4, corner_square, cube3, grid3x3]
        found = {"random": 0, "median": 0, "mixed": 0}
        for case in range(150):
            lat = carriers[case % len(carriers)]
            n = rng.choice((1, 2, 3) if lat.m <= 4 else (1, 2))
            spaces = random_spaces(rng, lat, n)
            kind = ("random", "median", "mixed")[case // len(carriers) % 3]
            rule = random_rule(rng, lat, spaces, kind)
            found[kind] += assert_sweep_matches_oracle(rule, lat, spaces) is not None
        # nested medians never violate; the other kinds do, but not always
        assert found["median"] == 0
        assert 30 <= found["random"] < 50 and 5 <= found["mixed"] < 50

    @settings(max_examples=60, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=2),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           kind=st.sampled_from(("random", "median", "mixed")))
    def test_matches_brute_force_oracle_on_random_lattices(self, poset, n, seed, kind):
        lat = build_ideal_lattice(*poset)
        assume(2 <= lat.m <= 8)
        rng = random.Random(seed)
        spaces = random_spaces(rng, lat, n)
        assert_sweep_matches_oracle(random_rule(rng, lat, spaces, kind), lat, spaces)

    def test_matches_brute_force_oracle_on_uneven_lines(self, square, chain4,
                                                       cube3, grid3x3):
        # one voter with a single ballot (a line of length 1) in every
        # position, and three voters with pairwise different space sizes
        rng = random.Random(1406)
        shapes = [(1, 3), (3, 1), (1, 1), (1, 2, 3), (2, 1, 4), (4, 3, 1),
                  (2, 3, 4), (4, 2, 3), (3, 4, 1)]
        found = 0
        for case in range(108):
            lat = (square, chain4, cube3, grid3x3)[case % 4]
            sizes = shapes[case // 4 % len(shapes)]
            spaces = [tuple(sorted(rng.sample(range(lat.m), k))) for k in sizes]
            rule = random_rule(rng, lat, spaces, ("random", "mixed", "median")[case % 3])
            found += assert_sweep_matches_oracle(rule, lat, spaces) is not None
        assert 30 <= found < 100

    def test_matches_brute_force_oracle_on_wide_lanes_and_edge_carriers(self):
        # 9 and 11 join-irreducibles (chains of 10 and 12, the 5x6 grid, the
        # 9-cube) need two-byte lanes; the one-element lattice has none
        rng = random.Random(1407)
        cube9 = build_boolean_hypercube(9)
        cases = [(lat, n) for lat in (build_chain(10), build_chain(12),
                                      build_product(build_chain(5), build_chain(6)))
                 for n in (1, 2)]
        found = {"random": 0, "median": 0, "mixed": 0}
        for lat, n in cases + [(cube9, 1)]:
            for kind in found:
                for _ in range(5):
                    spaces = ([tuple(sorted(rng.sample(range(lat.m), 40)))]
                              if lat is cube9 else random_spaces(rng, lat, n))
                    rule = random_rule(rng, lat, spaces, kind)
                    found[kind] += assert_sweep_matches_oracle(rule, lat, spaces) is not None
        point = build_chain(1)
        for n in (1, 2):
            spaces = full_spaces(point, n)
            for kind in found:
                assert assert_sweep_matches_oracle(
                    random_rule(rng, point, spaces, kind), point, spaces) is None
        assert found == {"random": 34, "median": 0, "mixed": 32}

    def test_four_to_the_ten_cells_within_three_seconds(self, chain4):
        def too_slow(signum, frame):
            raise TimeoutError("sweeping 4^10 cells took over 3 s")

        rule = ExplicitRule(*tabulate(extended_median_rule(chain4, 10), chain4))
        previous = signal.signal(signal.SIGALRM, too_slow)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 3.0)
        try:
            assert find_monotonicity_violation(rule, chain4) is None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # an alarm that lands in a garbage-collector callback (hypothesis
        # installs one) is reported as unraisable and lost, so time it too
        assert time.perf_counter() - start < 3.0

    def test_cap_refusal_names_estimate_and_cap(self, square):
        rule = extended_median_rule(square, 2)
        with pytest.raises(TooLargeError) as err:
            find_monotonicity_violation(rule, square, cap=7)
        # 16 table cells times 4 + 4 deviations
        assert "128 evaluations" in str(err.value)
        assert "cap 7" in str(err.value)


def random_spaces(rng, lat, n):
    """Full ballot spaces, or random restricted ones of 2-4 ballots."""
    if rng.random() < 0.3:
        return full_spaces(lat, n)
    return [tuple(sorted(rng.sample(range(lat.m), rng.randint(2, min(4, lat.m)))))
            for _ in range(n)]


def random_rule(rng, lat, spaces, kind):
    """A random table, a nested median, or a nested median with one or two
    cells overwritten ("mixed": monotone except near those cells)."""
    n = len(spaces)
    if kind == "random":
        return ExplicitRule(spaces, [rng.randrange(lat.m)
                                     for _ in itertools.product(*spaces)])
    tree = build_canonical_median_tree(
        [rng.randrange(lat.m) for _ in range(2 ** n)], n)
    if kind == "median":
        return tree
    table = list(tabulate(tree, lat, spaces)[1])
    for _ in range(rng.randint(1, 2)):
        table[rng.randrange(len(table))] = rng.randrange(lat.m)
    return ExplicitRule(spaces, table)


def assert_sweep_matches_oracle(rule, lat, spaces):
    table = tabulate(rule, lat, spaces)[1]
    witness = find_monotonicity_violation(ExplicitRule(spaces, table), lat)
    assert witness == next(monotonicity_violations(rule, lat, spaces), None)
    return witness


class TestStrategyProofness:
    def test_majority_sp_both_domains(self, square):
        rule = extended_median_rule(square, 5)
        for factory in (DomainDescriptor.full_unimodal, DomainDescriptor.full_lsu):
            assert find_strategy_violation(rule, factory(square, 5)) is None

    def test_remark3_sp_on_restricted(self, chain4):
        rule = remark3_rule(chain4)
        dom_u, dom_s = remark3_domains(chain4)
        assert find_strategy_violation(rule, dom_u) is None
        assert find_strategy_violation(rule, dom_s) is None

    def test_remark3_not_sp_on_full(self, chain4):
        rule = remark3_rule(chain4)
        a, d = chain4.element("a"), chain4.element("d")
        dom = DomainDescriptor.full_unimodal(
            chain4, 3, spaces=((a, d), (a, d), tuple(range(4))))
        witness = find_strategy_violation(rule, dom)
        assert witness is not None
        assert witness.preference.strictly_prefers(witness.deviant_outcome,
                                                   witness.truthful_outcome)

    def test_witness_self_consistency(self, square):
        rng = random.Random(5)
        dom = DomainDescriptor.full_unimodal(square, 2)
        for _ in range(30):
            rule = random_explicit_rule(square, 2, rng)
            witness = find_strategy_violation(rule, dom)
            if witness is None:
                continue
            assert rule.evaluate(square, witness.truthful_ballots) == \
                witness.truthful_outcome
            assert rule.evaluate(square, witness.deviant_ballots) == \
                witness.deviant_outcome

    def test_witness_from_monotonicity_violation(self, chain4):
        rule = remark3_rule(chain4)
        violation = find_monotonicity_violation(rule, chain4)
        a, b, c, d = (chain4.element(s) for s in "abcd")
        spaces = ((a, d), (a, d), tuple(range(4)))
        for factory in (DomainDescriptor.full_unimodal, DomainDescriptor.full_lsu):
            domain = factory(chain4, 3, spaces=spaces)
            witness = strategy_witness_from(violation, domain)
            assert witness.truthful_ballots == (d, a, a)
            assert witness.deviant_ballots == (a, a, a)
            assert (witness.truthful_outcome, witness.deviant_outcome) == (c, a)
            assert witness.validate(rule, chain4)
            assert witness.preference in domain.preference_sets[0]
            # each tampered copy breaks exactly one condition: the outcome,
            # the top, a second deviator (voter 2 is ignored by the rule),
            # or the strict gain
            for tampered in (
                    replace(witness, truthful_outcome=a),
                    replace(witness, preference=TotalPreorder.from_classes(
                        [[a], [b, c, d]], m=4)),
                    replace(witness, deviant_ballots=(a, a, b)),
                    replace(witness, preference=TotalPreorder.from_classes(
                        [[d], [c], [a, b]], m=4))):
                assert not tampered.validate(rule, chain4)
        with pytest.raises(ValueError, match="'custom' domain"):
            strategy_witness_from(violation, remark3_domains(chain4)[0])

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3"])
    def test_witness_preorders_are_built_once_per_pair(self, fixture, request):
        # Lemma 1's preorder depends only on (peak, ref): a domain keeps one
        # per pair, equal to a fresh build, and shares it between conversions
        lat = request.getfixturevalue(fixture)
        pool = [build_three_class_witness(lat, top, top) for top in range(lat.m)]
        for factory, build in ((DomainDescriptor.full_unimodal, build_three_class_witness),
                               (DomainDescriptor.full_lsu, build_lsu_witness)):
            # past the enumeration cap (cube3) too: the conversion makes no search
            domain, fresh = factory(lat, 2), factory(lat, 2)
            for peak, ref in itertools.product(range(lat.m), repeat=2):
                first = strategy_witness_from(
                    MonotonicityWitness((peak, lat.bottom), 0, lat.top, lat.top, ref), domain)
                again = strategy_witness_from(
                    MonotonicityWitness((ref, peak), 1, lat.bottom, peak, ref), domain)
                other = strategy_witness_from(
                    MonotonicityWitness((peak, peak), 0, ref, lat.bottom, ref), fresh)
                assert first.preference == build(lat, peak, ref) == other.preference
                assert again.preference is first.preference
                assert other.preference is not first.preference
                assert (first.voter, again.voter) == (0, 1)
                assert again.truthful_ballots == (ref, peak)
        custom = DomainDescriptor(lat, full_spaces(lat, 2), [pool] * 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="'custom' domain"):
                strategy_witness_from(MonotonicityWitness((0, 0), 0, 1, 0, 1), custom)

    def test_matches_brute_force_oracle(self, square, chain4):
        rng = random.Random(5120)
        carriers = [square, chain4] + [seeded_ideal_lattice(rng, m) for m in (5, 6)]
        found = 0
        for case in range(80):
            # every carrier meets both rule kinds and both domains
            lat = carriers[case // 2 % len(carriers)]
            n = rng.choice((2, 3) if lat.m <= 4 else (2,))
            spaces = [tuple(sorted(rng.sample(range(lat.m), rng.randint(2, 4))))
                      for _ in range(n)]
            if case % 2:
                rule = ExplicitRule(spaces, [rng.randrange(lat.m)
                                             for _ in itertools.product(*spaces)])
            else:    # nested medians: monotone, so often strategy-proof
                rule = build_canonical_median_tree(
                    [rng.randrange(lat.m) for _ in range(2 ** n)], n)
            factory = (DomainDescriptor.full_unimodal,
                       DomainDescriptor.full_lsu)[case // 8 % 2]
            domain = factory(lat, n, spaces=spaces)
            witness = find_strategy_violation(rule, domain)
            assert witness == brute_force_strategy_violation(rule, domain), case
            found += witness is not None
        # both answers occur, so neither side can pass by always agreeing on one
        assert 20 <= found <= 60

    @settings(max_examples=60, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=2),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           factory=st.sampled_from((DomainDescriptor.full_unimodal,
                                    DomainDescriptor.full_lsu)),
           kind=st.sampled_from(("random", "median")))
    def test_matches_brute_force_oracle_on_random_lattices(self, poset, n, seed,
                                                           factory, kind):
        lat = build_ideal_lattice(*poset)
        assume(2 <= lat.m <= 6)
        rng = random.Random(seed)
        spaces = random_spaces(rng, lat, n)
        domain = factory(lat, n, spaces=spaces)
        profiles = 1
        for prefs in domain.preference_sets:
            profiles *= len(prefs)
        assume(profiles <= 10_000)
        rule = random_rule(rng, lat, spaces, kind)
        assert find_strategy_violation(rule, domain) == \
            brute_force_strategy_violation(rule, domain)

    def test_matches_brute_force_oracle_on_shared_tops(self, square, chain4):
        # each ballot is the top of a unimodal preference, listed first, and
        # of one or two arbitrary topped preorders with other better-sets;
        # under a monotone rule only the later ones can gain, so a sweep that
        # skipped a top on its first preference alone would miss them
        rng = random.Random(8)
        carriers = [square, chain4] + [seeded_ideal_lattice(rng, m) for m in (5, 6)]
        pools = [(enumerate_unimodal(lat), enumerate_topped_preorders(lat))
                 for lat in carriers]
        found = 0
        for case in range(60):
            lat = carriers[case % len(carriers)]
            unimodal, topped = pools[case % len(carriers)]
            n = rng.choice((1, 2, 2, 3) if lat.m <= 4 else (1, 2))
            spaces = random_spaces(rng, lat, n)
            prefs = []
            for space in spaces:
                held = []
                for t in space:
                    held.append(rng.choice([p for p in unimodal if p.top == t]))
                    held += rng.sample([p for p in topped if p.top == t],
                                       rng.randint(1, 2))
                prefs.append(held)
            domain = DomainDescriptor(lat, spaces, prefs)
            rule = random_rule(rng, lat, spaces, ("median", "mixed")[case % 2])
            witness = find_strategy_violation(rule, domain)
            assert witness == brute_force_strategy_violation(rule, domain), case
            found += witness is not None
        assert 10 <= found < 60

    def test_matches_brute_force_oracle_on_wide_lanes_and_edge_carriers(self):
        # the 10-chain and the 3x4 grid need two-byte outcome lanes, the
        # 3-cube fills a one-byte lane up to its top bit, the one- and
        # two-element chains are the smallest carriers, and a one-ballot
        # space gives its voter lines of one cell
        rng = random.Random(1406)
        carriers = [build_chain(10), build_product(build_chain(3), build_chain(4)),
                    build_boolean_hypercube(3), build_chain(1), build_chain(2)]

        def shared_tops(lat, spaces, peaked_only=False):
            # every ballot is the top of one to three preferences with
            # different better-sets, so the oracle's profiles reach every
            # context of the sweep; the third is not single-peaked
            prefs = []
            for space in spaces:
                held = []
                for peak in space:
                    ranks = [0 if e == peak else rng.randint(1, 3) for e in range(lat.m)]
                    dense = {r: i for i, r in enumerate(sorted(set(ranks)))}
                    held += [build_three_class_witness(lat, peak, rng.randrange(lat.m)),
                             build_lsu_witness(lat, peak, rng.randrange(lat.m))]
                    held += [] if peaked_only else [TotalPreorder([dense[r] for r in ranks])]
                prefs.append(tuple(dict.fromkeys(held)))
            return DomainDescriptor(lat, spaces, prefs)

        found = cases = 0
        for lat in carriers:
            for n in (1, 1, 2, 2, 2, 3, 3):
                spaces = [tuple(rng.sample(range(lat.m),
                                           rng.randint(1, min(lat.m, (4, 3, 2)[n - 1]))))
                          for _ in range(n)]
                domains = [shared_tops(lat, spaces)]
                if lat.m <= 7:    # the full domains' enumeration cap
                    domains += [DomainDescriptor.full_unimodal(lat, n, spaces),
                                DomainDescriptor.full_lsu(lat, n, spaces)]
                for domain in domains:
                    for kind in ("random", "median", "mixed"):
                        rule = random_rule(rng, lat, spaces, kind)
                        witness = find_strategy_violation(rule, domain)
                        assert witness == brute_force_strategy_violation(rule, domain), \
                            (lat.m, n, kind)
                        found += witness is not None
                        cases += 1
        # one domain serves twelve rules, its lanes filled as outcomes
        # appear; on a chain nested medians are strategy-proof there
        chain10 = carriers[0]
        spaces = [tuple(sorted(rng.sample(range(10), 4))) for _ in range(2)]
        domain = shared_tops(chain10, spaces, peaked_only=True)
        on_chain = 0
        for case in range(12):
            rule = random_rule(rng, chain10, spaces, ("median", "mixed", "random")[case % 3])
            witness = find_strategy_violation(rule, domain)
            assert witness == brute_force_strategy_violation(rule, domain), case
            on_chain += witness is not None
        # both answers occur, so neither side can pass by always agreeing on one
        assert (cases, found, on_chain) == (189, 46, 8)

    def test_cap_refusal_and_gain_masks_built_once(self, square):
        rule = extended_median_rule(square, 2)
        domain = DomainDescriptor.full_unimodal(square, 2)
        with pytest.raises(TooLargeError) as err:
            find_strategy_violation(rule, domain, cap=20)
        # 12 preferences per voter, each over 4 contexts times 4 deviations
        assert str(err.value) == ("strategy-proofness sweep of 384 evaluations "
                                  "exceeds the evaluation cap 20")
        assert find_strategy_violation(rule, domain) is None
        masks = domain.gain_masks()
        assert find_coalitional_manipulation(rule, domain) is not None
        find_strategy_violation(rule, domain)
        assert domain.gain_masks() is masks

    @pytest.mark.parametrize("factory", [DomainDescriptor.full_unimodal,
                                         DomainDescriptor.full_lsu])
    def test_cap_at_the_exact_estimate_is_accepted(self, square, factory):
        # 16 cells times 12 + 12 preferences; the bound, 16 * 8 * 13, exceeds
        # both caps, so the domain counts and the refusal names the count
        rule = extended_median_rule(square, 2)
        assert find_strategy_violation(rule, factory(square, 2), cap=384) is None
        with pytest.raises(TooLargeError) as err:
            find_strategy_violation(rule, factory(square, 2), cap=383)
        assert str(err.value) == ("strategy-proofness sweep of 384 evaluations "
                                  "exceeds the evaluation cap 383")


class TestCoalitionSearch:
    def test_majority_witness_shape(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        rule = extended_median_rule(square, 5)
        dom = DomainDescriptor.full_unimodal(square, 5)
        witness = find_coalitional_manipulation(rule, dom)
        assert witness.outcome_truthful == o
        assert witness.outcome_deviant == i
        assert len(witness.coalition) == 4
        assert sorted(witness.profile[j].top for j in witness.coalition) == \
            [x, x, y, y]
        assert witness.validate(rule, square)
        again = find_coalitional_manipulation(rule, dom)
        assert witness == again  # deterministic

    def test_projection_never_manipulable(self, square):
        proj = ExplicitRule.from_function(full_spaces(square, 3), lambda b: b[0])
        dom = DomainDescriptor.full_unimodal(square, 3)
        assert find_coalitional_manipulation(proj, dom) is None

    def test_remark3_restricted_manipulation(self, chain4):
        rule = remark3_rule(chain4)
        dom_u, dom_s = remark3_domains(chain4)
        a, b, c, d = (chain4.element(s) for s in "abcd")
        for dom in (dom_u, dom_s):
            witness = find_coalitional_manipulation(rule, dom)
            assert witness is not None and witness.validate(rule, chain4)
            assert witness.outcome_truthful == c
            assert witness.outcome_deviant == b
            assert set(witness.coalition) >= {0, 1}
            assert witness.profile[0].top == d and witness.profile[1].top == a
            assert witness.deviation[:2] == (a, d)

    def test_flagship_witness_validates(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        rule = extended_median_rule(square, 5)
        pool = enumerate_unimodal(square)
        want = {(2, 0, 2, 1): None, (2, 2, 0, 1): None, (0, 1, 2, 2): None}
        p_x = next(p for p in pool if p.ranks == (2, 0, 2, 1))  # x > 1 > 0~y
        p_y = next(p for p in pool if p.ranks == (2, 2, 0, 1))  # y > 1 > 0~x
        p_o = next(p for p in pool if p.ranks == (0, 1, 2, 2))  # 0 > x > y~1
        witness = ManipulationWitness(
            profile=(p_x, p_x, p_y, p_y, p_o), coalition=(0, 1, 2, 3),
            context_ballots=(o,), deviation=(i, i, i, i),
            outcome_truthful=o, outcome_deviant=i)
        assert witness.validate(rule, square)

    def test_an_empty_coalition_never_validates(self, square):
        # the one-voter identity rule is coalition-proof; an empty coalition
        # "gains" vacuously and must not count as a manipulation
        rule = ExplicitRule.from_function(full_spaces(square, 1), lambda b: b[0])
        voter = enumerate_unimodal(square)[0]
        witness = ManipulationWitness(
            profile=(voter,), coalition=(), context_ballots=(voter.top,),
            deviation=(), outcome_truthful=voter.top, outcome_deviant=voter.top)
        assert not witness.validate(rule, square)

    def test_literal_semantics_is_stronger(self, chain4):
        # on a chain the median is coalition-proof in the truthful sense but
        # the literal quantification over arbitrary origins flags it
        rule = extended_median_rule(chain4, 3)
        dom = DomainDescriptor.full_unimodal(chain4, 3)
        assert find_coalitional_manipulation(rule, dom, "truthful") is None
        witness = find_coalitional_manipulation(rule, dom, "literal")
        assert witness is not None
        assert witness.origin_ballots is not None
        assert witness.validate(rule, chain4)

    def test_coalitional_sp_implies_individual_sp(self, square, chain4):
        rng = random.Random(11)
        cases = [(square, extended_median_rule(square, 3)),
                 (chain4, extended_median_rule(chain4, 3)),
                 (square, sample_monotone_rule(square, 2, rng)),
                 (chain4, sample_monotone_rule(chain4, 2, rng)),
                 (square, random_explicit_rule(square, 2, rng)),
                 (chain4, random_explicit_rule(chain4, 2, rng))]
        for lat, rule in cases:
            dom = DomainDescriptor.full_unimodal(lat, rule.n)
            if find_coalitional_manipulation(rule, dom) is None:
                assert find_strategy_violation(rule, dom) is None


    def test_matches_brute_force_oracle(self, square, chain4):
        rng = random.Random(1406)
        carriers = [square, chain4] + [seeded_ideal_lattice(rng, m) for m in (5, 6, 6)]
        pools = [enumerate_topped_preorders(lat) for lat in carriers]
        found = {"truthful": 0, "literal": 0}
        sizes = set()
        for case in range(150):
            pick = case % len(carriers)
            lat, pool = carriers[pick], pools[pick]
            n = rng.choice((1, 2, 3, 3) if lat.m <= 4 else (1, 2, 2))
            spaces, prefs = [], []
            for _ in range(n):
                space = rng.sample(range(lat.m), rng.randint(1, (lat.m, 4, 3)[n - 1]))
                held = [p for p in pool if p.top in space]
                spaces.append(tuple(space))
                prefs.append(tuple(rng.sample(held, rng.randint(1, min(len(held), 4)))))
            if case % 2:
                rule = ExplicitRule(spaces, [rng.randrange(lat.m)
                                             for _ in itertools.product(*spaces)])
            else:    # nested medians: monotone, so witnesses are rarer and smaller
                tree = build_canonical_median_tree(
                    [rng.randrange(lat.m) for _ in range(2 ** n)], n)
                rule = ExplicitRule(spaces, tabulate(tree, lat, spaces)[1])
            domain = DomainDescriptor(lat, spaces, prefs)
            for semantics in ("truthful", "literal"):
                expected = brute_force_manipulation(rule, lat, spaces, prefs,
                                                    semantics == "literal")
                witness = find_coalitional_manipulation(rule, domain, semantics)
                assert witness == expected, (case, semantics)
                if witness is not None:
                    found[semantics] += 1
                    sizes.add(len(witness.coalition))
        # both semantics find witnesses, and not only at the largest size
        assert min(found.values()) >= 30 and sizes == {1, 2, 3}

    def test_matches_brute_force_oracle_on_wide_lanes_and_edge_carriers(self):
        # the 10-chain and the 3x4 grid need two-byte outcome lanes, the
        # 3-cube fills a one-byte lane up to its top bit, and the one- and
        # two-element chains are the smallest carriers
        rng = random.Random(1415)
        carriers = [build_chain(10), build_product(build_chain(3), build_chain(4)),
                    build_boolean_hypercube(3), build_chain(1), build_chain(2)]
        found = {"truthful": 0, "literal": 0}
        for lat in carriers:
            for n in (1, 2, 2, 3):
                spaces = [tuple(rng.sample(range(lat.m), min(lat.m, (4, 3, 2)[n - 1])))
                          for _ in range(n)]
                prefs = [peaked_preferences(rng, lat, space, (5, 4, 3)[n - 1])
                         for space in spaces]
                domain = DomainDescriptor(lat, spaces, prefs)
                for kind in ("random", "median", "mixed"):
                    rule = random_rule(rng, lat, spaces, kind)
                    for semantics in found:
                        witness = find_coalitional_manipulation(rule, domain, semantics)
                        assert witness == brute_force_manipulation(
                            rule, lat, spaces, prefs, semantics == "literal")
                        found[semantics] += witness is not None
        # on a chain, nested medians admit no truthful witness from
        # single-peaked preferences, so those searches decide every size;
        # one domain serves twelve rules
        chain10 = carriers[0]
        spaces = [tuple(sorted(rng.sample(range(10), 4))) for _ in range(2)]
        prefs = [tuple({build(chain10, peak, rng.randrange(10)): None
                        for peak in space
                        for build in (build_three_class_witness, build_lsu_witness)})
                 for space in spaces]
        domain = DomainDescriptor(chain10, spaces, prefs)
        on_chain = {"truthful": 0, "literal": 0}
        for _ in range(12):
            rule = random_rule(rng, chain10, spaces, "median")
            for semantics in on_chain:
                witness = find_coalitional_manipulation(rule, domain, semantics)
                assert witness == brute_force_manipulation(
                    rule, chain10, spaces, prefs, semantics == "literal")
                on_chain[semantics] += witness is not None
        assert found == {"truthful": 29, "literal": 43}
        assert on_chain == {"truthful": 0, "literal": 12}

    def test_matches_brute_force_oracle_at_four_and_five_voters(self, square, chain4):
        # two ballots per voter keep the oracle small; every voter holds a
        # preference p, then its twin (p's two lowest classes merged), which
        # shares p's top and p's better set at every outcome above p's
        # lowest class, so the profile fix-up skips the twin after p misses;
        # at n = 4 a third preference follows
        rng = random.Random(1419)
        carriers = [square, chain4, seeded_ideal_lattice(rng, 5)]
        pools = [[p for p in enumerate_topped_preorders(lat) if max(p.ranks) >= 2]
                 for lat in carriers]
        found = {"truthful": 0, "literal": 0}
        sizes = set()
        for case in range(9):
            lat, pool, n = carriers[case % 3], pools[case % 3], (4, 4, 5)[case % 3]
            spaces, prefs = [], []
            for _ in range(n):
                space = tuple(rng.sample(range(lat.m), 2))
                p, q = rng.sample([p for p in pool if p.top in space], 2)
                twin = TotalPreorder([min(r, max(p.ranks) - 1) for r in p.ranks])
                spaces.append(space)
                prefs.append((p, twin, q)[:7 - n])
            rule = random_rule(rng, lat, spaces, ("random", "mixed")[case % 2])
            domain = DomainDescriptor(lat, spaces, prefs)
            for semantics in found:
                witness = find_coalitional_manipulation(rule, domain, semantics)
                assert witness == brute_force_manipulation(
                    rule, lat, spaces, prefs, semantics == "literal"), (case, semantics)
                if witness is not None:
                    found[semantics] += 1
                    sizes.add(len(witness.coalition))
        assert found == {"truthful": 7, "literal": 9} and sizes == {1, 2, 3, 4, 5}

    def test_seven_voters_on_chain4_within_half_a_second(self, chain4):
        def too_slow(signum, frame):
            raise TimeoutError("two 4^7-cell coalition searches took over 0.5 s")

        rule = ExplicitRule(*tabulate(extended_median_rule(chain4, 7), chain4))
        domains = [DomainDescriptor.full_unimodal(chain4, 7),
                   DomainDescriptor.full_lsu(chain4, 7)]
        previous = signal.signal(signal.SIGALRM, too_slow)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            found = [find_coalitional_manipulation(rule, dom) for dom in domains]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # an alarm that lands in a garbage-collector callback (hypothesis
        # installs one) is reported as unraisable and lost, so time it too
        assert time.perf_counter() - start < 0.5
        assert found == [None, None]

    def test_eight_voter_search_keeps_no_reach_per_coalition(self, chain4):
        # one lane int of 4^8 cells is 64 KiB; keeping all 255 coalitions'
        # reach ints would take 16 MiB
        rule = ExplicitRule(*tabulate(extended_median_rule(chain4, 8), chain4))
        domain = DomainDescriptor.full_lsu(chain4, 8)
        domain.gain_masks()
        tracemalloc.start()
        try:
            assert find_coalitional_manipulation(rule, domain) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_eight_voter_witness_within_half_a_second(self):
        # the grand coalition of eight voters is named on 4^8-cell lanes:
        # the profile fix-up tries each voter's preferences on the lanes,
        # and the start, coalition and deviation are their lowest lanes
        def too_slow(signum, frame):
            raise TimeoutError("an 8-voter coalition search took over 0.5 s")

        lat = boolean_square()
        rule = ExplicitRule(*tabulate(extended_median_rule(lat, 8), lat))
        domain = DomainDescriptor.full_lsu(lat, 8)
        previous = signal.signal(signal.SIGALRM, too_slow)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            witness = find_coalitional_manipulation(rule, domain)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 0.5
        o, i = lat.element("0"), lat.element("1")
        assert witness.coalition == tuple(range(8))
        assert witness.deviation == (o,) * 3 + (i,) * 5
        assert witness.validate(rule, lat)
        # the same search on a fresh domain stays under 8 MiB, lanes included
        domain = DomainDescriptor.full_lsu(lat, 8)
        domain.gain_masks()
        tracemalloc.start()
        try:
            assert find_coalitional_manipulation(rule, domain) == witness
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_unknown_semantics_is_refused_before_any_lanes_are_kept(self, square):
        domain = DomainDescriptor.full_unimodal(square, 2)
        with pytest.raises(ValueError, match="unknown semantics 'literl'"):
            check_coalition_search_size(domain, "literl")
        with pytest.raises(ValueError, match="unknown semantics 'literl'"):
            find_coalitional_manipulation(extended_median_rule(square, 2), domain, "literl")
        assert domain._lanes == {}

    def test_cap_counts_preferences_not_profiles(self, square):
        # 52^5 profiles, but only 4^5 * (5 * 52) preference scans
        pool = enumerate_topped_preorders(square)
        rule = extended_median_rule(square, 5)
        domain = DomainDescriptor(square, full_spaces(square, 5), [pool] * 5)
        witness = find_coalitional_manipulation(rule, domain)
        assert witness is not None and witness.validate(rule, square)
        assert witness.coalition == (1, 2, 3, 4)
        assert [p.ranks for p in witness.profile] == [
            (0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3), (2, 1, 0, 3)]

    def test_random_chain7_witnesses_within_a_second(self):
        # the 7-chain's full domains hold many preferences with one top and
        # one better set at a truthful outcome, so the fix-up tries each of them
        lat = build_chain(7)
        domains = [DomainDescriptor.full_unimodal(lat, 2), DomainDescriptor.full_lsu(lat, 2)]
        rng = random.Random(7)
        rules = [ExplicitRule(full_spaces(lat, 2), [rng.randrange(7) for _ in range(49)])
                 for _ in range(6)]
        cases = [(rule, domain) for rule in rules for domain in domains]
        with within(1.0, "12 coalition searches on the 7-chain"):
            witnesses = [find_coalitional_manipulation(rule, domain) for rule, domain in cases]
        assert all(w is not None and w.validate(rule, lat)
                   for w, (rule, _) in zip(witnesses, cases))

    def test_cap_refusal_names_estimate_and_cap(self, square):
        domain = DomainDescriptor.full_unimodal(square, 2)
        with pytest.raises(TooLargeError) as err:
            find_coalitional_manipulation(extended_median_rule(square, 2), domain,
                                          cap=20)
        # (4 + 1)^2 deviations from the truthful start; 12 + 12 preferences,
        # each scanned over the 4 * 4 pairs of distinct tops
        assert str(err.value) == ("coalition search of 25 deviations and 384 "
                                  "preference scans exceeds the evaluation cap 20")

    def test_cap_at_the_exact_scan_count_is_accepted(self, square):
        rule = extended_median_rule(square, 2)
        domain = DomainDescriptor.full_unimodal(square, 2)
        assert find_coalitional_manipulation(rule, domain, cap=384) is not None
        with pytest.raises(TooLargeError) as err:
            check_coalition_search_size(DomainDescriptor.full_unimodal(square, 2), cap=383)
        assert str(err.value) == ("coalition search of 25 deviations and 384 "
                                  "preference scans exceeds the evaluation cap 383")

    @pytest.mark.parametrize("factory, scans", [(DomainDescriptor.full_unimodal, 10),
                                                (DomainDescriptor.full_lsu, 5)])
    def test_deviation_refusal_names_the_exact_scan_count(self, factory, scans,
                                                          monkeypatch):
        # five voters whose one ballot is the bottom of a 3-chain: 2^5
        # deviations, and 2 unimodal (1 LSU) preferences per voter where the
        # bound, 3, would claim 15 scans
        lat = build_chain(3)
        spaces = [(0,)] * 5
        assert [len(prefs) for prefs in factory(lat, 5, spaces).preference_sets] == \
            [scans // 5] * 5
        for semantics in ("truthful", "literal"):
            with pytest.raises(TooLargeError) as err:
                check_coalition_search_size(factory(lat, 5, spaces), semantics, cap=20)
            assert str(err.value) == (f"coalition search of 32 deviations and {scans} "
                                      "preference scans exceeds the evaluation cap 20")
        # once the deviations fit, the bound settles the scans without a count
        def refuse(self, top):
            raise AssertionError(f"counted the preorders with top {top}")

        monkeypatch.setattr(preorders.LayeredSearch, "count", refuse)
        check_coalition_search_size(factory(lat, 5, spaces), cap=32)


class TestIntervalTable:
    @staticmethod
    def assert_both_full_domains_gain_the_table(lat):
        for enumerate_family in (enumerate_unimodal, enumerate_lsu):
            domain = DomainDescriptor(lat, full_spaces(lat, 1),
                                      [enumerate_family(lat, cap=lat.m)])
            assert domain.gain_masks() == (interval_gains(lat),), enumerate_family.__name__

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_fixtures(self, fixture, request):
        self.assert_both_full_domains_gain_the_table(request.getfixturevalue(fixture))

    @settings(max_examples=40, deadline=None)
    @given(poset=small_posets())
    def test_random_lattices(self, poset):
        lat = build_ideal_lattice(*poset)
        assume(lat.m <= 7)
        self.assert_both_full_domains_gain_the_table(lat)


class TestAxioms:
    def test_majority_axioms(self, square):
        axioms = check_axioms(extended_median_rule(square, 5), square, range(4))
        assert axioms.all_hold()

    def test_projection_not_anonymous(self, square):
        proj = ExplicitRule.from_function(full_spaces(square, 2), lambda b: b[0])
        axioms = check_axioms(proj, square, range(4))
        assert not axioms.anonymous
        assert "anonymous" in axioms.witnesses

    def test_constant_not_sovereign(self, square):
        const = ExplicitRule.from_function(full_spaces(square, 2),
                                           lambda b: square.bottom)
        axioms = check_axioms(const, square, range(4))
        assert not axioms.locally_sovereign
        assert not axioms.locally_idempotent

    def test_meet_rule_not_neutral_with_skewed_constant(self, square):
        x = square.element("x")
        rule = CommitteeRule(2, [(frozenset({0, 1}), square.top),
                                 (frozenset({0}), x)])
        axioms = check_axioms(rule, square, range(4))
        assert not axioms.locally_ji_neutral

    def test_cap_refusal_names_estimate_and_cap(self, square):
        # 4^3 cells, each counted once per voter (3) and per element (4)
        with pytest.raises(TooLargeError) as err:
            check_axioms(extended_median_rule(square, 3), square, range(4), cap=100)
        assert str(err.value) == ("axiom sweep of 448 evaluations exceeds the "
                                  "evaluation cap 100")

    @pytest.mark.parametrize("local_set", [[7], [-1]])
    def test_refuses_local_set_elements_outside_the_carrier(self, square, local_set):
        # unchecked, 7 would index past the table and -1 wrap around to element 3
        with pytest.raises(InvalidSizeError, match=rf"elements \[{local_set[0]}\] are outside"):
            check_axioms(extended_median_rule(square, 3), square, local_set)

    def test_interval_table_counts_against_the_cap(self, square):
        # 4 + 16 sweep evaluations pass a cap of 63; the table's 4^3 bit tests do not
        with pytest.raises(TooLargeError, match="interval-table sweep of 64 evaluations"):
            check_axioms(ExplicitRule(full_spaces(square, 1), range(4)), square, [0], cap=63)
        chain = build_chain(500)
        with pytest.raises(TooLargeError, match="interval-table sweep of 125000000 evaluations "
                                                "exceeds the evaluation cap 100000000"):
            check_axioms(ExplicitRule(full_spaces(chain, 1), range(500)), chain, [0])

    def test_answers_without_enumerating_preferences(self, square, cube3, monkeypatch):
        rules = [extended_median_rule(square, 3),
                 ExplicitRule.from_function(full_spaces(cube3, 2), lambda b: cube3.bottom)]
        lattices = [square, cube3]
        expected = [check_axioms(rule, lat, range(lat.m)) for rule, lat in zip(rules, lattices)]

        def refuse(*args, **kwargs):
            raise AssertionError("a preference pool was enumerated")

        # every enumerator runs its search through this one generator
        monkeypatch.setattr(preorders.LayeredSearch, "topped", refuse)
        for enumerate_family in (enumerate_topped_preorders, enumerate_unimodal, enumerate_lsu):
            with pytest.raises(AssertionError, match="enumerated"):
                enumerate_family(square)
        got = [check_axioms(rule, lat, range(lat.m)) for rule, lat in zip(rules, lattices)]
        assert got == expected
        assert [axioms.efficient for axioms in got] == [True, False]

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_efficiency_matches_the_dominance_set_oracle(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        rng = random.Random(f"efficiency-{fixture}")
        full_pool = enumerate_unimodal(lat, cap=lat.m)
        verdicts = set()
        for n in (1, 2, 3):
            spaces = full_spaces(lat, n)
            rules = [extended_median_rule(lat, n),
                     ExplicitRule.from_function(spaces, lambda b: b[-1])]
            for _ in range(4):
                rules.append(random_explicit_rule(lat, n, rng))
                rules.append(sample_monotone_rule(lat, n, rng))
                # unanimous profiles keep their ballot, the rest is random
                rules.append(ExplicitRule.from_function(
                    spaces, lambda b: b[0] if len(set(b)) == 1 else rng.randrange(lat.m)))
            for rule in rules:
                axioms = check_axioms(rule, lat, range(lat.m))
                expected = efficiency_oracle(tabulate(rule, lat)[1], lat, n, full_pool)
                assert (axioms.efficient, axioms.witnesses.get("efficient")) == expected
                verdicts.add(axioms.efficient)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_anonymity_and_idempotence_match_the_cell_by_cell_oracle(self, fixture,
                                                                    request):
        lat = request.getfixturevalue(fixture)
        rng = random.Random(f"anonymity-{fixture}")
        atom = min(lat.atoms)
        verdicts = set()
        for n in (1, 2, 3):
            for table in axiom_tables(lat, n, rng):
                for local in (range(lat.m), [lat.top, atom, lat.bottom]):
                    verdicts.add(assert_anonymity_and_idempotence_match_the_oracle(
                        table, lat, n, local))
        assert {anonymous for anonymous, _ in verdicts} == {True, False}
        assert {idempotent for _, idempotent in verdicts} == {True, False}

    @settings(max_examples=25, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_anonymity_and_idempotence_match_the_oracle_on_random_lattices(self, poset,
                                                                           n, seed):
        lat = build_ideal_lattice(*poset)
        assume(lat.m <= 6)
        rng = random.Random(seed)
        for table in axiom_tables(lat, n, rng):
            local = rng.sample(range(lat.m), rng.randint(1, lat.m))
            assert_anonymity_and_idempotence_match_the_oracle(table, lat, n, local)

    def test_anonymity_images_are_not_kept(self, square):
        # each swap's image of a 4^8-cell table is about 2 MiB of ints; one
        # live image fits the bound, the seven of a cached sweep do not
        rule = extended_median_rule(square, 8)
        tracemalloc.start()
        try:
            axioms = check_axioms(rule, square, range(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert axioms.anonymous and axioms.locally_idempotent
        assert peak < 16 * 2 ** 20

    def test_local_helpers_match_naive_sweeps(self, square):
        o, x, y, i = (square.element(s) for s in "0xy1")
        swap = {x: y, y: x}
        rng = random.Random(3)
        rules = [ExplicitRule.from_function(full_spaces(square, 2), lambda b, c=c: c)
                 for c in (o, x)]
        rules += [CommitteeRule(2, [(frozenset({0, 1}), i), (frozenset({0}), x)]),
                  extended_median_rule(square, 3)]
        rules += [random_explicit_rule(square, 2, rng) for _ in range(20)]
        seen = set()
        for rule in rules:
            table = tabulate(rule, square)[1]
            for local in ([i, x, o], [o, x, y, i]):
                tuples = list(itertools.product(local, repeat=rule.n))
                reached = {rule.evaluate(square, b) for b in tuples}
                gap = [z for z in local if z not in reached] or None
                assert find_local_sovereignty_gap(table, square, local, rule.n) == gap
                # (x, y) is the only pair of join-irreducibles in the square
                broken = next(((b, (x, y)) for b in tuples if y in local
                               and swap.get(rule.evaluate(square, b),
                                            rule.evaluate(square, b))
                               != rule.evaluate(square, [swap.get(v, v) for v in b])),
                              None)
                assert find_local_neutrality_violation(table, square, local,
                                                       rule.n) == broken
                seen.add((gap is None, broken is None))
        assert len(seen) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("fixture", ["square", "cube3", "grid3x3"])
    def test_local_helpers_match_cell_by_cell_oracles(self, fixture, n, request):
        lat = request.getfixturevalue(fixture)
        x, z = sorted(lat.atoms)[:2]
        rng = random.Random(f"local-{fixture}-{n}")
        tables = [tabulate(extended_median_rule(lat, n), lat)[1]]
        for _ in range(6):
            tables.append(random_explicit_rule(lat, n, rng).table)
            tables.append(sample_monotone_rule(lat, n, rng).table)
            outputs = rng.sample(range(lat.m), rng.randint(1, 3))
            tables.append(tuple(rng.choice(outputs) for _ in range(lat.m ** n)))
        seen = set()
        for local in ([lat.bottom, x, z, lat.join(x, z)],
                      [lat.join(x, z), z, lat.bottom, x]):
            for table in tables:
                gap = local_sovereignty_gap_oracle(table, lat, local, n)
                broken = local_neutrality_violation_oracle(table, lat, local, n)
                assert find_local_sovereignty_gap(table, lat, local, n) == gap
                assert find_local_neutrality_violation(table, lat, local, n) == broken
                seen.add((gap is None, broken is None))
        assert {gap for gap, _ in seen} == {True, False}
        assert {broken for _, broken in seen} == {True, False}


def roundtrips_oracle(rule, lat):
    """``_roundtrips_exact`` by the naive two-form replay: the tree of the
    rule's ``corners`` and that tree's ``tree_to_committee``, each evaluated
    cell by cell against the rule's own evaluation."""
    spaces = rule.ballot_spaces(lat)
    table = evaluate_table(rule, lat, spaces)
    tree = build_canonical_median_tree(corners(rule, lat), rule.n)
    if evaluate_table(tree, lat, spaces) != table:
        return False, False
    return True, evaluate_table(tree_to_committee(tree, lat), lat, spaces) == table


def assert_roundtrips_match_oracle(lat, n, rng):
    """``_roundtrips_exact`` equals ``roundtrips_oracle`` on a random table,
    a tree with random leaves (it replays its own canonical tree even where
    its corners differ from its leaves), a random committee rule and up to
    three quota rules; returns the answers."""
    quota = enumerate_quota_rules(lat, n)
    pool = [random_explicit_rule(lat, n, rng),
            build_canonical_median_tree([rng.randrange(lat.m) for _ in range(1 << n)], n),
            CommitteeRule(n, [(frozenset(rng.sample(range(n), rng.randint(0, n))),
                               rng.randrange(lat.m)) for _ in range(rng.randint(0, 4))])]
    pool += [rule for _, rule in rng.sample(quota, min(3, len(quota)))]
    answers = [_roundtrips_exact(rule, lat) for rule in pool]
    assert answers == [roundtrips_oracle(rule, lat) for rule in pool]
    return answers


class TestSuites:
    def test_claim1_all_lattices(self, square, chain4, cube3, grid3x3):
        for lat in (square, chain4, cube3, grid3x3):
            assert claim1_suite(lat).passed()

    def test_lemma1(self, square):
        assert lemma1_suite(square, samples=40, seed=7).passed()

    def test_lemma2(self, square):
        assert lemma2_suite(square).passed()

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    def test_roundtrips_match_the_naive_replay(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        rng = random.Random(lat.m * 7 + len(fixture))
        seen = collections.Counter()
        for n in (1, 2, 3):
            seen.update(assert_roundtrips_match_oracle(lat, n, rng))
        assert set(seen) == {(True, True), (False, False)}

    @settings(max_examples=30, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_roundtrips_match_the_naive_replay_on_random_lattices(self, poset, n, seed):
        lat = build_ideal_lattice(*poset)
        assume(2 <= lat.m and lat.m ** n <= 1000)
        assert_roundtrips_match_oracle(lat, n, random.Random(seed))

    def test_lemma1_builds_each_witness_once_per_pair(self, square, monkeypatch):
        # at most m^2 = 16 (peak, ref) pairs per domain; one build per
        # converted rule would make about 120 calls of each builder here
        calls = collections.Counter()
        for name in ("build_three_class_witness", "build_lsu_witness"):
            def counted(*args, name=name, build=getattr(verify, name)):
                calls[name] += 1
                return build(*args)
            monkeypatch.setattr(verify, name, counted)
        assert lemma1_suite(square).passed()
        assert set(calls) == {"build_three_class_witness", "build_lsu_witness"}
        assert max(calls.values()) <= square.m ** 2

    def test_theorem1(self, square):
        report = theorem1_suite(square, samples=60, seed=3)
        assert report.passed()

    def test_theorem2_square_chain_cube(self, square, chain4, cube3):
        for lat in (square, chain4, cube3):
            report = theorem2_suite(lat)
            assert report.passed(), report.render_text()
        tiny = build_chain(3)
        with pytest.raises(NoSuitableSublatticeError):
            theorem2_suite(tiny)

    def test_theorem2_chain_exemption(self, chain4):
        report = theorem2_suite(chain4)
        claims = [c.claim for c in report.checks]
        assert "diamond-rule" in claims  # the chain exemption entry

    def test_theorem3_requires_atoms(self):
        with pytest.raises(NotEnoughAtomsError):
            theorem3_suite(build_chain(4), 3)

    def test_theorem3_refuses_fewer_than_two_voters(self, square):
        # one voter: the only such rule is the identity, which no coalition
        # can manipulate, so the impossibility starts at two voters
        for n in (1, 0):
            with pytest.raises(InvalidSizeError, match=f"needs n >= 2 voters, got n = {n}"):
                theorem3_suite(square, n)
        assert theorem3_suite(square, 2).passed()

    @settings(max_examples=60, deadline=None)
    @given(poset=small_posets())
    def test_every_theorem2_carrier_has_a_chain_or_a_diamond(self, poset):
        # why theorem2 needs no construction-failure check
        lat = build_ideal_lattice(*poset)
        assume(lat.m >= 4)
        assert (_four_chain_labels(lat) is not None
                or _diamond_labels(lat) is not None)

    @settings(max_examples=40, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=4))
    def test_quota_threshold_matches_the_evaluation_probe(self, poset, n):
        lat = build_ideal_lattice(*poset)
        assume(len(lat.atoms) >= 2 and lat.m ** n <= 1296)
        x, z = sorted(lat.atoms)[:2]

        def reached(rule, s, atom):
            # s voters at the atom, the rest at bottom
            ballots = tuple(atom if i < s else lat.bottom for i in range(n))
            return lat.leq(atom, rule.evaluate(lat, ballots))

        for constants, table in _quota_tables(lat, n):
            rule = ExplicitRule(full_spaces(lat, n), table)
            probe = next((s for s in range(1, n + 1)
                          if reached(rule, s, x) and reached(rule, s, z)), None)
            assert _quota_threshold(lat, constants, lat.join(x, z)) == probe

    def test_theorem3_small(self, square):
        report = theorem3_suite(square, 3)
        assert report.passed(), report.render_text()

    def test_corollary1_requires_chain(self, square):
        with pytest.raises(NotAChainError):
            chain_equivalence_suite(square)

    def test_corollary1(self, chain4):
        assert chain_equivalence_suite(chain4, n=2, samples=25).passed()

    def test_boolean_square(self):
        report = boolean_square_suite()
        assert report.passed(), report.render_text()

    def test_reports_deterministic(self, square):
        first = theorem3_suite(square, 3).to_dict()
        second = theorem3_suite(square, 3).to_dict()
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second

    @pytest.mark.parametrize("fixture, n", [
        ("square", 1), ("square", 2), ("square", 3), ("chain4", 1), ("chain4", 2),
        ("chain4", 3), ("cube3", 1), ("cube3", 2), ("cube3", 3), ("square", 4),
        ("square", 5)])
    def test_quota_tables_match_committee_rules(self, fixture, n, request):
        lat = request.getfixturevalue(fixture)
        assert _quota_tables(lat, n) == [
            (c, tabulate(rule, lat)[1]) for c, rule in enumerate_quota_rules(lat, n)]
        spaces = full_spaces(lat, n)
        assert _quota_tables(lat, n) == [
            (c, evaluate_table(rule, lat, spaces))
            for c, rule in enumerate_quota_rules(lat, n)]

    @settings(max_examples=30, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=2))
    def test_quota_tables_match_committee_rules_on_random_lattices(self, poset, n):
        lat = build_ideal_lattice(*poset)
        assume(lat.m ** n <= 64)
        assert _quota_tables(lat, n) == [
            (c, tabulate(rule, lat)[1]) for c, rule in enumerate_quota_rules(lat, n)]
        spaces = full_spaces(lat, n)
        assert _quota_tables(lat, n) == [
            (c, evaluate_table(rule, lat, spaces))
            for c, rule in enumerate_quota_rules(lat, n)]

    @pytest.mark.parametrize("lat, n", [
        pytest.param(build_chain(10), 2, id="chain10-two-byte-lanes"),
        pytest.param(build_product(build_chain(5), build_chain(6)), 2,
                     id="chain5xchain6-two-byte-lanes"),
        pytest.param(build_chain(18), 1, id="chain18-three-byte-lanes"),
        pytest.param(build_chain(26), 1, id="chain26-four-byte-lanes"),
        pytest.param(build_chain(58), 1, id="chain58-eight-byte-lanes"),
        pytest.param(build_chain(1), 2, id="one-element")])
    def test_quota_tables_match_committee_rules_on_wide_lanes(self, lat, n):
        tables = _quota_tables(lat, n)
        expected = enumerate_quota_rules(lat, n)
        assert tables == [(c, tabulate(rule, lat)[1]) for c, rule in expected]
        spaces = full_spaces(lat, n)
        assert tables == [(c, evaluate_table(rule, lat, spaces)) for c, rule in expected]

    def test_oversized_tables_are_refused_before_any_is_built(self, square):
        class NoDraws:
            def randrange(self, *args):
                raise AssertionError("a cell was drawn")

        message = f"table of {4 ** 11} entries exceeds cap {EXPLICIT_TABLE_CAP}"
        with pytest.raises(TooLargeError, match=message):
            random_explicit_rule(square, 11, NoDraws())
        with pytest.raises(TooLargeError, match=message):
            _quota_tables(square, 11)

    def test_lemma2_refuses_before_building_its_spaces(self, square, monkeypatch):
        def no_spaces(*args):
            raise AssertionError("ballot spaces were built")

        monkeypatch.setattr(suites, "full_spaces", no_spaces)
        with pytest.raises(TooLargeError, match=f"exceeds cap {EXPLICIT_TABLE_CAP}"):
            lemma2_suite(square, n=200000)

    def test_lemma2_refuses_its_sweep_before_building_a_base_table(self, monkeypatch):
        # 80^3 cells fit the table cap, but 80^3 cells times 3 * 80
        # deviations exceed the evaluation cap
        def built(*args):
            raise AssertionError("a base table was built")

        for name in ("full_spaces", "CodeLanes", "tabulate", "extended_median_rule"):
            monkeypatch.setattr(suites, name, built)
        with pytest.raises(TooLargeError, match=(
                "monotonicity sweep of 122880000 evaluations exceeds the "
                "evaluation cap 100000000")):
            lemma2_suite(build_chain(80), 3)

    @staticmethod
    def record_lemma2_sweeps(monkeypatch):
        """Patch ``suites.CodeLanes`` to record each table lemma2 sweeps."""
        swept = []

        class Recording(CodeLanes):
            def first_failure(self, cells):
                swept.append(self.decode(cells))
                return super().first_failure(cells)

        monkeypatch.setattr(suites, "CodeLanes", Recording)
        return swept

    def test_lemma2_sweeps_each_distinct_median_once_on_the_cube(self, cube3,
                                                                  monkeypatch):
        swept = self.record_lemma2_sweeps(monkeypatch)
        check, = lemma2_suite(cube3, 3).checks
        median = tabulate(extended_median_rule(cube3, 3), cube3)[1]
        expected, tested, witness = lemma2_oracle(cube3, 3, median)
        assert check.passed and witness is None
        assert check.detail == "364 rule triples, 12 base rules" and tested == 364
        assert swept == expected and len(swept) == 132

    @pytest.mark.parametrize("lat, seed", [
        pytest.param(boolean_square(), 1, id="square"),
        pytest.param(build_chain(10), 2, id="chain10")])
    def test_lemma2_names_the_first_failing_mix(self, lat, seed, monkeypatch):
        # every real base pool is monotone, so a seeded non-monotone rule
        # stands in for the extended median to reach the witness path
        n = 2
        bad = random_explicit_rule(lat, n, random.Random(seed))
        monkeypatch.setattr(suites, "extended_median_rule", lambda on, k: bad)
        swept = self.record_lemma2_sweeps(monkeypatch)
        expected, tested, witness = lemma2_oracle(lat, n, bad.table)
        assert witness is not None
        check, = lemma2_suite(lat, n).checks
        assert not check.passed
        assert check.witness == witness
        assert check.detail == f"{tested} rule triples, {n + lat.m + 1} base rules"
        assert swept == expected

    @pytest.mark.parametrize("suite, fixture, claim", [
        ("theorem1", "square", "quota-rules-satisfy-all-five"),
        ("corollary1", "chain4", "pool-is-interval-monotone")])
    def test_a_corrupt_quota_table_is_named(self, suite, fixture, claim, request,
                                            monkeypatch):
        lat = request.getfixturevalue(fixture)
        target = (lat.bottom, lat.bottom, lat.top)    # the meet of two ballots
        original = suites._quota_tables

        def corrupted(on, n):
            # the all-bottom profile (cell 0, as element 0 is the bottom)
            # now gives the top, so the rule is no longer monotone
            return [(c, (on.top,) + table[1:] if c == target else table)
                    for c, table in original(on, n)]

        monkeypatch.setattr(suites, "_quota_tables", corrupted)
        assert lat.bottom == 0
        report = suites.suite_function(suite)(lat, n=2, samples=0)
        check = {c.claim: c for c in report.checks}[claim]
        assert not check.passed
        names = [lat.names[e] for e in target]
        if suite == "theorem1":
            assert check.witness["n"] == 2 and check.witness["constants"] == names
        else:
            assert check.witness == f"quota{names}"

    def test_monotone_iff_names_the_first_rule_whose_flag_differs(self, square,
                                                                  monkeypatch):
        # a sweep that finds a deviation everywhere: every monotone rule now
        # looks manipulable, and the first in the pool is a projection
        monkeypatch.setattr(suites, "find_strategy_violation", lambda rule, domain: "any")
        report = lemma1_suite(square, samples=0)
        assert [(c.claim, c.passed, c.witness) for c in report.checks] == [
            ("monotone-iff-sp-on-unimodal", False, "projection"),
            ("monotone-iff-sp-on-strict", False, "projection")]
        assert report.checks[0].detail == "6 rules, 6 monotone"

    def test_corollary1_reports_a_coalition_witness(self, chain4, monkeypatch):
        # a search that claims a witness on every rule: the report names the
        # first rule of the pool with the witness's description, per domain
        a, b = chain4.element("a"), chain4.element("b")
        pref = build_three_class_witness(chain4, b, a)
        fake = ManipulationWitness(profile=(pref, pref), coalition=(0,),
                                   context_ballots=(b,), deviation=(a,),
                                   outcome_truthful=b, outcome_deviant=a)
        monkeypatch.setattr(suites, "find_coalitional_manipulation",
                            lambda rule, dom: fake)
        report = chain_equivalence_suite(chain4, n=2, samples=0)
        checks = {c.claim: c for c in report.checks}
        assert checks["pool-is-interval-monotone"].passed
        for domain in ("unimodal", "strict"):
            check = checks[f"no-coalition-witness-{domain}"]
            assert not check.passed
            assert check.witness == {"rule": "quota['a', 'a', 'a']",
                                     **fake.describe(chain4)}
        assert not report.passed()

    @settings(max_examples=30, deadline=None)
    @given(poset=small_posets(), n=st.integers(min_value=1, max_value=3))
    def test_quota_tables_are_monotone_and_round_trip(self, poset, n):
        # Theorem 1's "only if" on the quota rules, from tables no committee built
        lat = build_ideal_lattice(*poset)
        assume(lat.m ** n <= 64)
        tables = _quota_tables(lat, n)
        assert [c for c, _ in tables] == [
            c for c in itertools.product(range(lat.m), repeat=n + 1)
            if all(lat.leq(a, b) for a, b in zip(c, c[1:]))]
        for _, table in tables:
            rule = ExplicitRule(full_spaces(lat, n), table)
            assert find_monotonicity_violation(rule, lat) is None
            assert _roundtrips_exact(rule, lat) == (True, True)

    @pytest.mark.parametrize("fixture", ["square", "chain4", "cube3", "grid3x3"])
    @pytest.mark.parametrize("method, bad", [
        ("between", [(0, 1, 3)]), ("between", [(0, 1, 3), (3, 2, 0)]),
        ("between", [(1, 0, 2), (2, 3, 1)]), ("between", [(3, 3, 0), (0, 2, 2)]),
        ("between", [(0, 1, 0), (2, 0, 2)]), ("median", [(0, 1, 3)]),
        ("median", [(1, 2, 3), (3, 1, 0)]), ("median", [(2, 2, 0), (0, 3, 3)]),
        ("median", [(3, 0, 1), (1, 3, 2)]), ("median", [(1, 0, 1), (0, 2, 0)]),
        # on chain4 the first failing redistribution tuple has a > 0
        ("median", [(3, 2, 1)]), ("median", [(2, 0, 1), (3, 0, 1)]),
        # an interval that gains an element breaks only convexity
        ("interval_mask", [(0, 1, 2)]), ("interval_mask", [(3, 0, 1), (2, 3, 0)])])
    def test_claim1_witnesses_are_the_first_failing_tuples(self, fixture, method,
                                                           bad, request):
        lat = SkewedLattice(request.getfixturevalue(fixture), method, bad)
        report = claim1_suite(lat)
        expected = claim1_oracle(lat)
        assert [c.claim for c in report.checks] == list(expected)
        assert {c.claim: c.witness for c in report.checks} == expected
        assert all(c.passed == (c.witness is None) for c in report.checks)
        assert not report.passed()

    @settings(max_examples=60, deadline=None)
    @given(poset=small_posets(), data=st.data())
    def test_claim1_witnesses_match_the_oracle_on_random_lattices(self, poset, data):
        lat = build_ideal_lattice(*poset)
        assume(lat.m <= 8)
        method = data.draw(st.sampled_from(["between", "median", "interval_mask"]))
        element = st.integers(min_value=0, max_value=lat.m - 1)
        bad = data.draw(st.lists(st.tuples(element, element, element), max_size=3))
        skewed = SkewedLattice(lat, method, bad)
        report = claim1_suite(skewed)
        expected = claim1_oracle(skewed)
        assert {c.claim: c.witness for c in report.checks} == expected
        assert all(c.passed == (c.witness is None) for c in report.checks)

    def test_claim1_asks_between_and_median_once_per_triple(self, grid3x3, monkeypatch):
        # a bound on calls, not on time: scanning tuple by tuple asks more
        calls = collections.Counter()
        for name in ("between", "median"):
            def counted(self, *args, name=name, original=getattr(Lattice, name)):
                calls[name] += 1
                return original(self, *args)
            monkeypatch.setattr(Lattice, name, counted)
        assert claim1_suite(grid3x3).passed()
        assert 0 < calls["between"] <= 9 ** 3
        assert 0 < calls["median"] <= 9 ** 3

    def test_claim1_reports_a_code_swap_instead_of_raising(self):
        # the codes of 0 and x traded: the order masks still say 0 < x
        lat = boolean_square()
        o, x = lat.element("0"), lat.element("x")
        lat._code[o], lat._code[x] = lat._code[x], lat._code[o]
        lat._decode = {code: e for e, code in enumerate(lat._code)}
        with pytest.raises(NotALatticeError) as raised:
            lat.rank_valuation()
        report = claim1_suite(lat)
        failed = {c.claim: c for c in report.checks if not c.passed}
        assert list(failed) == ["betweenness-convexity", "median-absorbs-bounds",
                                "join-meet-are-medians", "valuation-metric-geodesics"]
        geodesics = failed["valuation-metric-geodesics"]
        assert geodesics.witness == ["0", "x"]
        assert geodesics.detail == str(raised.value) == "valuation is not strictly increasing"

    def test_battery_looks_suites_up_when_called(self, monkeypatch):
        # the benchmark's tracer patches the suites.*_suite attributes
        calls = []
        original = suites.theorem2_suite

        @functools.wraps(original)
        def counting(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(suites, "theorem2_suite", counting)
        assert len(suites.run_all()) == 17
        assert len(calls) == 3
        names = tuple(dict.fromkeys(suite for suite, _, _ in suites.BATTERY))
        assert cli.SUITE_NAMES == names + ("all",)

    def test_run_all_names_every_report_once(self):
        names = [report.suite for report in suites.run_all()]
        assert len(set(names)) == len(names) == 17
        assert names[8:16] == ["theorem2:square", "theorem2:chain4", "theorem2:cube",
                               "theorem3:n3", "theorem3:n4", "theorem3:n5",
                               "corollary1:n2", "corollary1:n3"]
        # a label is its lattice's key, as the benchmark's tracer names reports
        assert all(kwargs.get("label", key) == key for _, key, kwargs in suites.BATTERY)

    def test_quota_rules_are_monotone(self, square):
        for constants, rule in enumerate_quota_rules(square, 2):
            assert find_monotonicity_violation(rule, square) is None
