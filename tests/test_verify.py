import itertools
import random

import pytest
from conftest import seeded_ideal_lattice

from medianvoting.errors import (
    InvalidSizeError,
    NoSuitableSublatticeError,
    NotAChainError,
    NotEnoughAtomsError,
    TooLargeError,
)
from medianvoting.lattice import build_chain
from medianvoting.preorders import (
    TotalPreorder,
    enumerate_topped_preorders,
    enumerate_unimodal,
)
from medianvoting.rules import (
    CommitteeRule,
    ExplicitRule,
    build_canonical_median_tree,
    extended_median_rule,
    full_spaces,
    tabulate,
)
from medianvoting.suites import (
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
    DomainDescriptor,
    ManipulationWitness,
    StrategyWitness,
    check_axioms,
    enumerate_quota_rules,
    find_coalitional_manipulation,
    find_local_neutrality_violation,
    find_local_sovereignty_gap,
    find_monotonicity_violation,
    find_strategy_violation,
    is_b_monotonic,
    is_strategy_proof,
    random_explicit_rule,
    sample_monotone_rule,
)


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
    dom_u = DomainDescriptor.custom(chain4, (pair, pair, carrier),
                                    ((p_a, p_d), (p_a, p_d), pool))
    dom_s = DomainDescriptor.custom(chain4, (pair, pair, carrier),
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
            DomainDescriptor.custom(square, ((1, 2), (1, 2)), ((p,), (p,)))


class TestMonotonicity:
    def test_projection_and_constant(self, square):
        spaces = full_spaces(square, 2)
        proj = ExplicitRule.from_function(spaces, lambda b: b[1])
        const = ExplicitRule.from_function(spaces, lambda b: 2)
        assert is_b_monotonic(proj, square)
        assert is_b_monotonic(const, square)

    def test_majority_is_monotone(self, square):
        assert is_b_monotonic(extended_median_rule(square, 5), square)

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

    def test_cap_refusal_names_estimate_and_cap(self, square):
        rule = extended_median_rule(square, 2)
        with pytest.raises(TooLargeError) as err:
            find_monotonicity_violation(rule, square, cap=7)
        # 16 table cells times 4 + 4 deviations
        assert "128 evaluations" in str(err.value)
        assert "cap 7" in str(err.value)


class TestStrategyProofness:
    def test_majority_sp_both_domains(self, square):
        rule = extended_median_rule(square, 5)
        for factory in (DomainDescriptor.full_unimodal, DomainDescriptor.full_lsu):
            assert is_strategy_proof(rule, factory(square, 5))

    def test_remark3_sp_on_restricted(self, chain4):
        rule = remark3_rule(chain4)
        dom_u, dom_s = remark3_domains(chain4)
        assert is_strategy_proof(rule, dom_u)
        assert is_strategy_proof(rule, dom_s)

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
                assert is_strategy_proof(rule, dom)


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
            domain = DomainDescriptor.custom(lat, spaces, prefs)
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

    def test_cap_counts_preferences_not_profiles(self, square):
        # 52^5 profiles, but only 4^5 * (5 * 52) preference scans
        pool = enumerate_topped_preorders(square)
        rule = extended_median_rule(square, 5)
        domain = DomainDescriptor.custom(square, full_spaces(square, 5), [pool] * 5)
        witness = find_coalitional_manipulation(rule, domain)
        assert witness is not None and witness.validate(rule, square)
        assert witness.coalition == (1, 2, 3, 4)
        assert [p.ranks for p in witness.profile] == [
            (0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3), (2, 1, 0, 3)]

    def test_cap_refusal_names_estimate_and_cap(self, square):
        domain = DomainDescriptor.full_unimodal(square, 2)
        with pytest.raises(TooLargeError) as err:
            find_coalitional_manipulation(extended_median_rule(square, 2), domain,
                                          cap=20)
        # (4 + 1)^2 deviations from the truthful start; 12 + 12 preferences,
        # each scanned over the 4 * 4 pairs of distinct tops
        assert str(err.value) == ("coalition search of 25 deviations and 384 "
                                  "preference scans exceeds the evaluation cap 20")


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


class TestSuites:
    def test_claim1_all_lattices(self, square, chain4, cube3, grid3x3):
        for lat in (square, chain4, cube3, grid3x3):
            assert claim1_suite(lat).passed()

    def test_lemma1(self, square):
        assert lemma1_suite(square, samples=40, seed=7).passed()

    def test_lemma2(self, square):
        assert lemma2_suite(square).passed()

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

    def test_quota_rules_are_monotone(self, square):
        for constants, rule in enumerate_quota_rules(square, 2):
            assert is_b_monotonic(rule, square)
