"""Acceptance gate: one test per headline criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; the whole gate stays well under a minute.
"""

import itertools
import random

import pytest

from medianvoting.lattice import (
    build_boolean_hypercube,
    build_chain,
    build_from_covers,
    build_product,
)
from medianvoting.preorders import (
    TotalPreorder,
    enumerate_lsu,
    enumerate_topped_preorders,
    enumerate_unimodal,
    is_separable,
)
from medianvoting.rules import (
    ExplicitRule,
    build_canonical_median_tree,
    corners,
    extended_median,
    extended_median_rule,
    full_spaces,
    tabulate,
    tree_to_committee,
)
from medianvoting.suites import (
    _CORNER_TABLE,
    _SQUARE_BETWEENNESS,
    boolean_square,
    chain_equivalence_suite,
    claim1_suite,
    square_templates,
    theorem3_suite,
)
from medianvoting.verify import (
    DomainDescriptor,
    ManipulationWitness,
    find_coalitional_manipulation,
    find_monotonicity_violation,
    find_strategy_violation,
    random_explicit_rule,
)


def _gate(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def square():
    return boolean_square()


@pytest.fixture(scope="module")
def chain4():
    return build_from_covers(["a", "b", "d", "c"],
                             [("a", "b"), ("b", "d"), ("d", "c")])


@pytest.fixture(scope="module")
def corner_square():
    return build_from_covers(["d", "b", "c", "a"],
                             [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")])


def test_a01_square_enumerations(square):
    unimodal = enumerate_unimodal(square)
    strict = enumerate_lsu(square)
    per_top_u = [sum(1 for p in unimodal if p.top == t) for t in range(4)]
    per_top_s = [sum(1 for p in strict if p.top == t) for t in range(4)]
    separable = {p for p in enumerate_topped_preorders(square)
                 if is_separable(p, square)}
    ok = (len(unimodal) == 12 and per_top_u == [3, 3, 3, 3]
          and set(unimodal) == square_templates(square, strict=False)
          and len(strict) == 12 and per_top_s == [3, 3, 3, 3]
          and set(strict) == square_templates(square, strict=True)
          and not set(unimodal) & set(strict)
          and separable == set(strict))
    _gate("A01 square domains: 12 unimodal + 12 strict, disjoint, "
          "separable = strict", ok)


def test_a02_betweenness_golden_set(square):
    golden = {tuple(square.element(s) for s in triple)
              for triple in _SQUARE_BETWEENNESS}
    trivial = {(u, w, v) for u, w, v in itertools.product(range(4), repeat=3)
               if u == w or v == w}
    computed = {(u, w, v) for u, w, v in itertools.product(range(4), repeat=3)
                if square.between(u, w, v)}
    _gate("A02 betweenness golden set (32 listed triples + trivial ones)",
          computed == golden | trivial,
          f"{len(computed)} triples")


def test_a03_majority_rule_on_square(square):
    o, x, y, i = (square.element(s) for s in "0xy1")
    rule = extended_median_rule(square, 5)
    dom_u = DomainDescriptor.full_unimodal(square, 5)
    dom_s = DomainDescriptor.full_lsu(square, 5)
    monotone = find_monotonicity_violation(rule, square) is None
    sp = (find_strategy_violation(rule, dom_u) is None
          and find_strategy_violation(rule, dom_s) is None)
    witness = find_coalitional_manipulation(rule, dom_u)
    shape = (witness is not None
             and witness.outcome_truthful == o and witness.outcome_deviant == i
             and len(witness.coalition) == 4
             and sorted(witness.profile[j].top for j in witness.coalition)
             == [x, x, y, y]
             and witness.validate(rule, square))
    pool = enumerate_unimodal(square)
    p_x = next(p for p in pool if p.ranks == (2, 0, 2, 1))
    p_y = next(p for p in pool if p.ranks == (2, 2, 0, 1))
    p_o = next(p for p in pool if p.ranks == (0, 1, 2, 2))
    flagship = ManipulationWitness(
        profile=(p_x, p_x, p_y, p_y, p_o), coalition=(0, 1, 2, 3),
        context_ballots=(o,), deviation=(i, i, i, i),
        outcome_truthful=o, outcome_deviant=i)
    _gate("A03 majority-of-five: monotone, strategy-proof both domains, "
          "coalition witness 0->1 by four voters with tops x,x,y,y",
          monotone and sp and shape and flagship.validate(rule, square),
          str(witness.describe(square)) if witness else "no witness")


def test_a04_restricted_rule_on_four_chain(chain4):
    a, b, c, d = (chain4.element(s) for s in "abcd")
    value = {(a, a): a, (a, d): b, (d, a): c, (d, d): d}
    rule = ExplicitRule.from_function(
        ((a, d), (a, d), tuple(range(4))),
        lambda ballots: value[(ballots[0], ballots[1])])
    p_a = TotalPreorder.from_classes([[a], [b], [c, d]], m=4)
    p_d = TotalPreorder.from_classes([[d], [b], [c, a]], m=4)
    q_a = TotalPreorder.from_classes([[a], [b], [c], [d]], m=4)
    q_d = TotalPreorder.from_classes([[d], [b], [c], [a]], m=4)
    pair = (a, d)
    carrier = tuple(range(4))
    pool = enumerate_unimodal(chain4)
    strict_pool = enumerate_lsu(chain4)
    dom_u = DomainDescriptor(chain4, (pair, pair, carrier),
                             ((p_a, p_d), (p_a, p_d), pool))
    dom_s = DomainDescriptor(chain4, (pair, pair, carrier),
                             ((q_a, q_d), (q_a, q_d), strict_pool))
    sp_restricted = (find_strategy_violation(rule, dom_u) is None
                     and find_strategy_violation(rule, dom_s) is None)

    violation = find_monotonicity_violation(rule, chain4)
    not_monotone = (violation is not None
                    and violation.ballots[:2] == (d, a)
                    and violation.voter == 0 and violation.deviation == a
                    and violation.outcome == c
                    and not chain4.between(d, c, a))

    full_u = DomainDescriptor.full_unimodal(
        chain4, 3, spaces=(pair, pair, carrier))
    not_sp_full = find_strategy_violation(rule, full_u) is not None

    manipulable = True
    for dom in (dom_u, dom_s):
        witness = find_coalitional_manipulation(rule, dom)
        manipulable = manipulable and (
            witness is not None and witness.validate(rule, chain4)
            and witness.outcome_truthful == c and witness.outcome_deviant == b
            and set(witness.coalition) >= {0, 1}
            and witness.profile[0].top == d and witness.profile[1].top == a
            and witness.deviation[:2] == (a, d))
    _gate("A04 blocked-pair rule: strategy-proof on the restricted domains, "
          "not interval-monotone (c outside [d,a]), not strategy-proof on the "
          "full domain, coalition flips (d,a)->(a,d) giving c->b",
          sp_restricted and not_monotone and not_sp_full and manipulable)


def test_a05_corner_rule_table(corner_square):
    ids = {s: corner_square.element(s) for s in "abcd"}
    tree = build_canonical_median_tree([ids["d"], ids["c"], ids["b"], ids["a"]], 2)
    table_ok = all(
        corner_square.names[tree.evaluate(corner_square, (u, v))]
        == _CORNER_TABLE[(corner_square.names[u], corner_square.names[v])]
        for u in range(4) for v in range(4))
    resolved = corner_square.names[
        tree.evaluate(corner_square, (ids["d"], ids["c"]))] == "c"
    dom_u = DomainDescriptor.full_unimodal(corner_square, 2)
    dom_s = DomainDescriptor.full_lsu(corner_square, 2)
    sp = (find_strategy_violation(tree, dom_u) is None
          and find_strategy_violation(tree, dom_s) is None)
    witness = find_coalitional_manipulation(tree, dom_u)
    found = witness is not None and witness.validate(tree, corner_square)
    _gate("A05 corner rule (a,b,c,d): full table from the median tree with "
          "f(d,c)=c, strategy-proof both domains, coalition witness found",
          table_ok and resolved and sp and found,
          str(witness.describe(corner_square)) if witness else "")


def test_a06_equivalence_sweep(square):
    from medianvoting.verify import sample_monotone_rule

    rng = random.Random(0)
    dom_u = DomainDescriptor.full_unimodal(square, 2)
    dom_s = DomainDescriptor.full_lsu(square, 2)
    exceptions = 0
    monotone_count = 0
    pool = [random_explicit_rule(square, 2, rng) for _ in range(200)]
    # seeded monotone tables keep the round-trip branch non-vacuous
    pool += [sample_monotone_rule(square, 2, rng) for _ in range(25)]
    for rule in pool:
        monotone = find_monotonicity_violation(rule, square) is None
        sp_u = find_strategy_violation(rule, dom_u) is None
        sp_s = find_strategy_violation(rule, dom_s) is None
        if not (monotone == sp_u == sp_s):
            exceptions += 1
            continue
        if monotone:
            monotone_count += 1
            spaces, table = tabulate(rule, square)
            tree = build_canonical_median_tree(corners(rule, square), 2)
            if tabulate(tree, square, spaces)[1] != table:
                exceptions += 1
                continue
            committee = tree_to_committee(tree, square)
            if tabulate(committee, square, spaces)[1] != table:
                exceptions += 1

    quota_exceptions = 0
    quota_count = 0
    from conftest import enumerate_quota_rules
    for n in (1, 2, 3):
        d_u = DomainDescriptor.full_unimodal(square, n)
        d_s = DomainDescriptor.full_lsu(square, n)
        for constants, rule in enumerate_quota_rules(square, n):
            quota_count += 1
            spaces, table = tabulate(rule, square)
            tree = build_canonical_median_tree(corners(rule, square), n)
            committee = tree_to_committee(tree, square)
            good = (find_monotonicity_violation(rule, square) is None
                    and find_strategy_violation(rule, d_u) is None
                    and find_strategy_violation(rule, d_s) is None
                    and tabulate(tree, square, spaces)[1] == table
                    and tabulate(committee, square, spaces)[1] == table)
            if not good:
                quota_exceptions += 1
    _gate("A06 equivalence sweep: 200 seeded random rules agree on "
          "monotone/sp-unimodal/sp-strict with exact round-trips when "
          "monotone; all quota rules n<=3 satisfy all five",
          exceptions == 0 and quota_exceptions == 0,
          f"{monotone_count} monotone random rules, {quota_count} quota rules")


def test_a07_median_preserves_monotonicity(square):
    cube = build_boolean_hypercube(3)
    exceptions = 0
    triples = 0
    for lat in (square, cube):
        spaces = full_spaces(lat, 3)
        pool = [tabulate(ExplicitRule.from_function(spaces, lambda b, i=i: b[i]),
                         lat)[1] for i in range(3)]
        pool += [tuple([c] * (lat.m ** 3)) for c in range(lat.m)]
        pool.append(tabulate(extended_median_rule(lat, 3), lat)[1])
        for fa, fb, fc in itertools.combinations_with_replacement(pool, 3):
            triples += 1
            mixed = ExplicitRule(spaces, [lat.median(u, v, w)
                                          for u, v, w in zip(fa, fb, fc)])
            if find_monotonicity_violation(mixed, lat) is not None:
                exceptions += 1
    _gate("A07 pointwise medians of projections/constants/majority stay "
          "interval-monotone on the square and the cube",
          exceptions == 0, f"{triples} rule triples")


def test_a08_median_betweenness_axioms(square, chain4):
    cube = build_boolean_hypercube(3)
    grid = build_product(build_chain(3), build_chain(3))
    reports = [claim1_suite(lat, label)
               for lat, label in ((square, "square"), (chain4, "chain4"),
                                  (cube, "cube"), (grid, "grid"))]
    ok = all(report.passed() for report in reports)
    _gate("A08 betweenness and median axioms, median-defined betweenness, "
          "and metric geodesics on all four lattices",
          ok, f"{sum(len(r.checks) for r in reports)} checks")


def test_a09_counterexample_properties(square, chain4, corner_square):
    o, x, y, i = (square.element(s) for s in "0xy1")
    med = extended_median(square, (i, x, y))
    below = sum(1 for v in (i, x, y) if square.leq(v, med))
    above = sum(1 for v in (i, x, y) if square.leq(med, v))
    square_fail = med == i and below == 3 and above == 1 and min(below, above) < 2

    chain_holds = all(
        min(sum(1 for v in ballots if chain4.leq(v, extended_median(chain4, ballots))),
            sum(1 for v in ballots if chain4.leq(extended_median(chain4, ballots), v)))
        >= 2
        for ballots in itertools.product(range(4), repeat=3))

    A, B, C, D = (corner_square.element(s) for s in "abcd")
    transitivity_fails = (corner_square.between(A, B, D)
                          and corner_square.between(B, A, C)
                          and not corner_square.between(C, B, D))
    _gate("A09 support balance fails at (1,x,y) on the square (1 < 2), holds "
          "for all 4^3 chain profiles; interval transitivity fails at "
          "b in [a,d], a in [b,c], b not in [c,d]",
          square_fail and chain_holds and transitivity_fails)


def test_a10_anonymous_quota_impossibility(square):
    ok = True
    details = []
    for n in (3, 4, 5):
        report = theorem3_suite(square, n)
        ok = ok and report.passed()
        manip = [c for c in report.checks if "manipulable" in c.claim]
        targeted = [c for c in manip if "targeted-profile" in (c.detail or "")]
        details.append(f"n={n}: {len(manip)} rule/domain pairs, "
                       f"{len(targeted)} targeted")
        majority = [c for c in manip if c.claim.startswith(f"q{n // 2 + 1}-")]
        ok = ok and all("targeted-profile" in (c.detail or "") for c in majority)
    _gate("A10 every locally sovereign+neutral quota rule on the square is "
          "coalitionally manipulable on both domains for n=3,4,5; the "
          "targeted profiles suffice at the majority quota",
          ok, "; ".join(details))


def test_a11_chain_coalition_equivalence(chain4):
    ok = True
    for n, samples in ((2, 100), (3, 0)):
        report = chain_equivalence_suite(chain4, n=n, samples=samples, seed=0)
        ok = ok and report.passed()
    _gate("A11 four-chain: no quota rule (n=2,3) and none of 100 sampled "
          "monotone rules (n=2) admits any coalition manipulation", ok)


def test_a12_efficiency_observations(square):
    rule = extended_median_rule(square, 5)
    spaces, table = tabulate(rule, square)
    all_cast = all(table[idx] in ballots for idx, ballots in
                   enumerate(itertools.product(range(4), repeat=5)))
    cube = build_boolean_hypercube(3)
    ballots = tuple(cube.element(s) for s in ("110", "011", "101"))
    med = cube.median(*ballots)
    cube_fail = cube.names[med] == "111" and med not in ballots
    _gate("A12 majority output always among cast ballots on the square "
          "(4^5 profiles); cube median of (110,011,101) is 111, cast by "
          "nobody", all_cast and cube_fail)
