import functools
import importlib
import json
import random
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from conftest import bundled_lattice, within

from medianvoting import cli, preorders, suites, verify
from medianvoting.cli import (
    SUITE_NAMES,
    canonical_order,
    parse_lattice,
    parse_lattice_file,
    parse_preorder,
    parse_rule,
    run,
    serialize_lattice,
    serialize_preorder,
    serialize_rule,
)
from medianvoting.errors import FormatError
from medianvoting.lattice import build_chain
from medianvoting.preorders import (
    TotalPreorder,
    enumerate_topped_preorders,
    enumerate_unimodal,
    is_separable,
)
from medianvoting.rules import (
    EXPLICIT_TABLE_CAP,
    CommitteeRule,
    ExplicitRule,
    build_canonical_median_tree,
    extended_median_rule,
    full_spaces,
    tabulate,
)
from medianvoting.verify import StrategyWitness, check_axioms, random_explicit_rule


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN_BATTERY = PERFBENCH / "golden" / "battery_seed0.json"


def assert_seed0_jobs_match_golden(tmp_path, monkeypatch):
    """Run the benchmark's seed-0 rule-check jobs, each payload against its
    golden record."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    jobs, _ = workloads.rule_check_jobs(0, tmp_path)
    golden = json.loads((PERFBENCH / "golden" / "rule_check_seed0.json").read_text())
    assert sorted(job["id"] for job in jobs) == sorted(golden)
    for job in jobs:
        assert run(job["argv"]) in (0, 1), job["id"]
        assert json.loads(job["out"].read_text()) == golden[job["id"]], job["id"]


def bundled_path(name):
    return str(resources.files("medianvoting").joinpath(f"data/{name}.json"))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def verify_reports(tmp_path, *argv):
    """The reports of ``verify *argv --json``, without their elapsed times."""
    path = tmp_path / "reports.json"
    assert run(["verify", *argv, "--json", str(path)]) == 0
    reports = json.loads(path.read_text())
    for report in reports:
        report.pop("elapsed_ms")
    return reports


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """The reports of ``verify all``, without their elapsed times."""
    return verify_reports(tmp_path_factory.mktemp("battery"), "all")


@pytest.fixture
def square_file(tmp_path, square):
    return write_json(tmp_path / "square.json", serialize_lattice(square))


@pytest.fixture
def majority_file(tmp_path, square):
    return write_json(tmp_path / "maj5.json",
                      serialize_rule(extended_median_rule(square, 5), square))


class TestSerialization:
    def test_lattice_roundtrip(self, square, chain4, cube3, grid3x3):
        for lat in (square, chain4, cube3, grid3x3):
            data = serialize_lattice(lat)
            again = parse_lattice(data)
            assert serialize_lattice(again) == data

    def test_canonical_order_is_topological_and_lexicographic(self, square):
        order = canonical_order(square)
        names = [square.names[e] for e in order]
        assert names == ["0", "x", "y", "1"]

    def test_rule_roundtrips(self, square):
        rules = [extended_median_rule(square, 3),
                 build_canonical_median_tree([0, 1, 2, 3], 2),
                 ExplicitRule(full_spaces(square, 2), tuple([1] * 16))]
        for rule in rules:
            data = serialize_rule(rule, square)
            again = parse_rule(data, square)
            assert serialize_rule(again, square) == data
            spaces, table = tabulate(rule, square)
            assert tabulate(again, square, spaces)[1] == table

    def test_preorder_roundtrip(self, square):
        for p in enumerate_unimodal(square):
            data = serialize_preorder(p, square)
            assert parse_preorder(data, square) == p

    def test_preorder_format_example(self, square):
        p = parse_preorder([["x"], ["1"], ["0", "y"]], square)
        assert p.top == square.element("x")
        assert p.rank(square.element("1")) == 1

    def test_diagnostics(self, square):
        with pytest.raises(FormatError):
            parse_preorder([["x"], ["nope"]], square)
        with pytest.raises(FormatError):
            parse_rule({"kind": "committee", "n": 5,
                        "terms": [{"coalition": [7], "constant": "1"}]}, square)
        with pytest.raises(FormatError):
            parse_rule({"kind": "mystery"}, square)
        with pytest.raises(FormatError):
            parse_lattice({"names": ["a"]})

    def test_bundled_lattices_load(self):
        for name in ("boolean_square", "chain4", "cube3", "grid3x3",
                     "theorem2_square"):
            lat = bundled_lattice(name)
            assert lat.m >= 4


class TestCommands:
    def test_lattice_build_and_inspect(self, square_file, capsys):
        assert run(["lattice", "build", "--covers", square_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["names"] == ["0", "x", "y", "1"]
        assert run(["lattice", "inspect", "--covers", square_file]) == 0
        assert "atoms" in capsys.readouterr().out

    def test_lattice_cycle_diagnostic(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json",
                         {"names": ["p", "q"], "covers": [["p", "q"], ["q", "p"]]})
        assert run(["lattice", "inspect", "--covers", bad]) == 2
        assert "cycle" in capsys.readouterr().err

    def test_rule_eval_flagship(self, square_file, majority_file, capsys):
        code = run(["rule", "eval", "--rule", majority_file,
                    "--lattice", square_file, "--ballots", "x,x,y,y,0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"
        code = run(["rule", "eval", "--rule", majority_file,
                    "--lattice", square_file, "--ballots", "1,1,1,1,0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_rule_eval_refuses_an_unknown_ballot(self, square_file, majority_file, capsys):
        code = run(["rule", "eval", "--rule", majority_file,
                    "--lattice", square_file, "--ballots", "x,x,z,y,0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown element name 'z'" in captured.err

    def test_rule_eval_reads_every_comma_separated_name(self, tmp_path, square_file, capsys):
        # an empty name is a name: unknown on the square, castable where it names an element
        tree_file = write_json(tmp_path / "tree.json",
                               {"kind": "tree", "n": 2, "corners": ["0", "x", "y", "1"]})
        for ballots in ("x,,y", "x,y,", ",x,y"):
            assert run(["rule", "eval", "--rule", tree_file, "--lattice", square_file,
                        "--ballots", ballots]) == 2, ballots
            captured = capsys.readouterr()
            assert captured.out == "" and "unknown element name ''" in captured.err
        pair = write_json(tmp_path / "pair.json", {"names": ["", "a"], "covers": [["", "a"]]})
        projection = write_json(tmp_path / "projection.json",
                                {"kind": "tree", "n": 1, "corners": ["", "a"]})
        for ballots, out in (("", "\n"), ("a", "a\n")):
            assert run(["rule", "eval", "--rule", projection, "--lattice", pair,
                        "--ballots", ballots]) == 0
            assert capsys.readouterr().out == out

    def test_rule_convert_constant_tree(self, tmp_path, square_file, square, capsys):
        bottom = square.names[square.bottom]
        tree_file = write_json(tmp_path / "tree.json",
                               {"kind": "tree", "n": 2,
                                "corners": [bottom] * 4})
        code = run(["rule", "convert", "--to", "committee", "--rule", tree_file,
                    "--lattice", square_file])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "committee"
        assert all(term["constant"] == bottom for term in data["terms"])

    @pytest.mark.parametrize("to", ["tree", "explicit"])
    def test_rule_convert_round_trip_reproduces_the_table(self, tmp_path, square_file,
                                                         square, to, capsys):
        rule = CommitteeRule(3, [(frozenset({0, 1}), square.top),
                                 (frozenset({2}), square.element("x"))])
        source = write_json(tmp_path / "rule.json", serialize_rule(rule, square))
        out = tmp_path / "out.json"
        assert run(["rule", "convert", "--to", to, "--rule", source,
                    "--lattice", square_file, "--json", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(out.read_text()) and printed["kind"] == to
        assert tabulate(parse_rule(printed, square), square) == tabulate(rule, square)

    @pytest.mark.parametrize("to, ballots, rule_gives, form_gives", [
        ("tree", "['0', '0']", "x", "0"),
        ("committee", "['0', '0']", "x", "0"),
    ])
    def test_rule_convert_refuses_a_table_its_canonical_form_does_not_replay(
            self, tmp_path, square_file, square, to, ballots, rule_gives, form_gives,
            capsys):
        # corners x, 0, 0, 1; the canonical tree's table differs in 10 of 16 cells
        rule = {"kind": "explicit", "ballot_spaces": [["0", "x", "y", "1"]] * 2,
                "table": ["x"] + ["0"] * 14 + ["1"]}
        tree = build_canonical_median_tree(
            [square.element(v) for v in ("x", "0", "0", "1")], 2)
        table = tabulate(parse_rule(rule, square), square)[1]
        assert sum(a != b for a, b in zip(table, tabulate(tree, square)[1])) == 10
        source = write_json(tmp_path / "rule.json", rule)
        out = tmp_path / "out.json"
        assert run(["rule", "convert", "--to", to, "--rule", source,
                    "--lattice", square_file, "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert (f"at ballots {ballots} the rule gives {rule_gives} but its canonical "
                f"{to} gives {form_gives}; nothing written") in captured.err

    def test_rule_convert_to_explicit_needs_no_corners(self, tmp_path, square_file,
                                                       square, capsys):
        # neither voter may cast the top, so the rule has no corner values
        rule = {"kind": "explicit", "ballot_spaces": [["0", "x"], ["x", "y", "0"]],
                "table": ["0", "x", "y", "x", "x", "0"]}
        source = write_json(tmp_path / "rule.json", rule)
        assert run(["rule", "convert", "--to", "explicit", "--rule", source,
                    "--lattice", square_file]) == 0
        assert json.loads(capsys.readouterr().out) == rule
        assert run(["rule", "convert", "--to", "tree", "--rule", source,
                    "--lattice", square_file]) == 2
        assert "cannot cast both bottom and top" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, rule, message", [
        (["check"], {"kind": "committee", "n": 2000000, "terms": []},
         f"table of at least 2^4000000 entries exceeds cap {EXPLICIT_TABLE_CAP}"),
        (["convert", "--to", "tree"],
         {"kind": "committee", "n": 40, "terms": [{"coalition": [0], "constant": "1"}]},
         f"2^40 corner leaves exceeds cap {EXPLICIT_TABLE_CAP}"),
        (["convert", "--to", "committee"],
         {"kind": "committee", "n": 40, "terms": [{"coalition": [0], "constant": "1"}]},
         f"2^40 corner leaves exceeds cap {EXPLICIT_TABLE_CAP}"),
    ], ids=["check", "convert-tree", "convert-committee"])
    def test_many_voters_are_refused_within_two_seconds(self, tmp_path, square_file,
                                                        argv, rule, message, capsys):
        source = write_json(tmp_path / "rule.json", rule)
        with within(2.0, f"rule {' '.join(argv)}"):
            assert run(["rule", *argv, "--rule", source, "--lattice", square_file]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("to", ["tree", "committee"])
    def test_convert_refuses_an_oversized_table_before_evaluating_corners(self, tmp_path,
                                                                          to, capsys):
        # 4,096 corners under the corner cap, each a 4,096-leaf tree evaluation;
        # the 4^12 table exceeds the table cap
        rng = random.Random(0)
        tree = {"kind": "tree", "n": 12,
                "corners": [rng.choice("0xy1") for _ in range(1 << 12)]}
        source = write_json(tmp_path / "tree.json", tree)
        with within(1.0, f"rule convert --to {to} of a 12-voter tree"):
            assert run(["rule", "convert", "--to", to, "--rule", source,
                        "--lattice", bundled_path("boolean_square")]) == 2
        assert (f"table of {4 ** 12} entries exceeds cap {EXPLICIT_TABLE_CAP}"
                in capsys.readouterr().err)

    def test_rule_convert_of_a_sixteen_voter_tree_within_budget(self, tmp_path, capsys):
        # the corners are read off the table over the bottom/top spaces,
        # not evaluated one 2^16-leaf tree walk each
        chain = build_chain(2)
        lattice = write_json(tmp_path / "chain2.json", serialize_lattice(chain))
        rng = random.Random(16)
        tree = build_canonical_median_tree([rng.randrange(2) for _ in range(1 << 16)], 16)
        source = write_json(tmp_path / "tree.json", serialize_rule(tree, chain))
        out = tmp_path / "out.json"
        with within(2.0, "rule convert --to tree of a 16-voter tree"):
            assert run(["rule", "convert", "--to", "tree", "--rule", source,
                        "--lattice", lattice, "--json", str(out)]) == 0
        capsys.readouterr()
        converted = parse_rule(json.loads(out.read_text()), chain)
        for _ in range(8):
            ballots = tuple(rng.randrange(2) for _ in range(16))
            assert converted.evaluate(chain, ballots) == tree.evaluate(chain, ballots)

    def test_rule_check_json_names_a_strategy_witness_that_replays(self, tmp_path,
                                                                  square_file, square,
                                                                  capsys):
        # the complement of voter 0's ballot: not strategy-proof on either domain
        rule = ExplicitRule.from_function(full_spaces(square, 2),
                                          lambda b: square.complement(b[0]))
        source = write_json(tmp_path / "rule.json", serialize_rule(rule, square))
        out = tmp_path / "check.json"
        assert run(["rule", "check", "--rule", source, "--lattice", square_file,
                    "--json", str(out)]) == 1
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["strategy_proof_unimodal"] == {"pass": False, "witness": {
            "voter": 0, "preference": [["0"], ["x"], ["y", "1"]],
            "truthful_ballots": ["0", "0"], "deviant_ballots": ["y", "0"],
            "truthful_outcome": "1", "deviant_outcome": "x"}}
        assert payload["strategy_proof_strict"] == {"pass": False, "witness": {
            "voter": 0, "preference": [["0"], ["x"], ["y"], ["1"]],
            "truthful_ballots": ["0", "0"], "deviant_ballots": ["x", "0"],
            "truthful_outcome": "1", "deviant_outcome": "y"}}
        for key in ("strategy_proof_unimodal", "strategy_proof_strict"):
            witness = payload[key]["witness"]
            ballots = {side: tuple(map(square.element, witness[side]))
                       for side in ("truthful_ballots", "deviant_ballots")}
            assert StrategyWitness(
                witness["voter"], parse_preorder(witness["preference"], square),
                ballots["truthful_ballots"], ballots["deviant_ballots"],
                square.element(witness["truthful_outcome"]),
                square.element(witness["deviant_outcome"])).validate(rule, square)

    def test_rule_check_exit_codes(self, tmp_path, square_file, majority_file,
                                   square, capsys):
        # the majority rule is individually clean but coalition-manipulable
        assert run(["rule", "check", "--rule", majority_file,
                    "--lattice", square_file]) == 1
        proj = write_json(
            tmp_path / "proj.json",
            serialize_rule(ExplicitRule.from_function(
                full_spaces(square, 2), lambda b: b[0]), square))
        assert run(["rule", "check", "--rule", proj,
                    "--lattice", square_file]) == 0
        capsys.readouterr()

    def test_rule_check_of_a_monotone_rule_builds_no_preference(self, tmp_path,
                                                                  monkeypatch, capsys):
        # a monotone rule on a chain is strategy-proof and coalition-proof on
        # both full domains: the interval table decides every sweep, and no
        # preference is generated to name a witness
        chain = build_chain(7)
        lattice = write_json(tmp_path / "chain7.json", serialize_lattice(chain))
        rng = random.Random(7)
        tree = build_canonical_median_tree([rng.randrange(7) for _ in range(4)], 2)
        rule = write_json(tmp_path / "tree.json", serialize_rule(tree, chain))
        built = []
        construct = TotalPreorder.__init__

        def counting(self, ranks):
            built.append(ranks)
            construct(self, ranks)

        monkeypatch.setattr(TotalPreorder, "__init__", counting)
        assert run(["rule", "check", "--rule", rule, "--lattice", lattice]) == 0
        assert capsys.readouterr().out.count("ok  ") == 5
        assert built == []

    def test_rule_check_refuses_an_eight_element_carrier(self, tmp_path, capsys):
        rule = write_json(tmp_path / "projection.json", {
            "kind": "committee", "n": 2,
            "terms": [{"coalition": [0], "constant": "111"}]})
        assert run(["rule", "check", "--rule", rule,
                    "--lattice", bundled_path("cube3")]) == 2
        assert capsys.readouterr().err == (
            "error: enumeration over 8 elements exceeds cap 7\n")

    @pytest.mark.parametrize("carrier", ["cube3", "grid3x3", "chain8"])
    def test_rule_check_past_the_enumeration_cap_refuses_every_rule_kind(self, tmp_path,
                                                                         carrier, capsys):
        if carrier == "chain8":
            lattice = write_json(tmp_path / "chain8.json", serialize_lattice(build_chain(8)))
        else:
            lattice = bundled_path(carrier)
        lat = parse_lattice_file(lattice)
        rng = random.Random(0)
        rules = [serialize_rule(random_explicit_rule(lat, 2, rng), lat),
                 serialize_rule(build_canonical_median_tree(
                     [rng.randrange(lat.m) for _ in range(4)], 2), lat),
                 {"kind": "committee", "n": 2,
                  "terms": [{"coalition": [0], "constant": lat.names[lat.top]}]}]
        for k, rule in enumerate(rules):
            source = write_json(tmp_path / f"rule{k}.json", rule)
            assert run(["rule", "check", "--rule", source, "--lattice", lattice]) == 2
            assert capsys.readouterr() == (
                "", f"error: enumeration over {lat.m} elements exceeds cap 7\n")

    @pytest.mark.parametrize("suite, code", [("lemma1", 2), ("theorem1", 2), ("lemma2", 0),
                                             ("theorem2", 0), ("theorem3", 2),
                                             ("corollary1", 2)])
    def test_verify_past_the_enumeration_cap(self, tmp_path, suite, code, capsys):
        # corollary1 needs a chain: the eight-element one; the others run on cube3
        lattice = (write_json(tmp_path / "chain8.json", serialize_lattice(build_chain(8)))
                   if suite == "corollary1" else bundled_path("cube3"))
        assert run(["verify", suite, "--lattice", lattice]) == code
        assert capsys.readouterr().err == (
            "error: enumeration over 8 elements exceeds cap 7\n" if code else "")

    @pytest.mark.parametrize("path", ["verify", "rule"])
    def test_an_astronomic_voter_count_is_refused(self, tmp_path, path, capsys):
        # no n-long list is built: 10^30 voters exit 2, and 10^7 are refused
        # fast and in little memory
        for n in (10 ** 30, 10 ** 7):
            source = write_json(tmp_path / "wide.json",
                                {"kind": "committee", "n": n, "terms": []})
            argv = (["verify", "lemma1", "--n", str(n)] if path == "verify" else
                    ["rule", "check", "--rule", source, "--lattice", bundled_path("boolean_square")])
            with within(0.2, f"refusing {n} voters"):
                assert run(argv) == 2
            assert capsys.readouterr().err == (
                f"error: table of at least 2^{2 * n} entries exceeds cap {EXPLICIT_TABLE_CAP}\n")
        tracemalloc.start()
        try:
            run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rule_check_refuses_a_huge_table_before_building_it(self, tmp_path,
                                                                 capsys):
        rule = write_json(tmp_path / "wide.json", {
            "kind": "committee", "n": 30,
            "terms": [{"coalition": [0, 1], "constant": "1"}]})
        start = time.perf_counter()
        assert run(["rule", "check", "--cap", "1000", "--rule", rule,
                    "--lattice", bundled_path("boolean_square")]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert f"table of {4 ** 30} entries exceeds cap {EXPLICIT_TABLE_CAP}" in err

    @pytest.mark.parametrize("suite", ["lemma1", "theorem1", "lemma2", "corollary1",
                                       "theorem3"])
    def test_verify_refuses_a_huge_voter_count_before_building_tables(self, suite,
                                                                      capsys):
        start = time.perf_counter()
        assert run(["verify", suite, "--n", "12"]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert f"table of {4 ** 12} entries exceeds cap {EXPLICIT_TABLE_CAP}" in err

    def test_verify_corollary1_refuses_its_coalition_search_before_any_table(self,
                                                                            capsys):
        # 4^10 cells fit the table cap, but the 4^10 start tuples times the
        # 10 * 24 unimodal preferences exceed the evaluation cap
        start = time.perf_counter()
        assert run(["verify", "corollary1", "--n", "10"]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert ("coalition search of 9765625 deviations and 251658240 preference "
                "scans exceeds the evaluation cap 100000000") in err

    @pytest.mark.parametrize("suite", ["lemma1", "theorem1", "lemma2", "corollary1",
                                       "theorem3"])
    def test_verify_names_an_astronomic_table_by_its_bit_length(self, suite, capsys):
        start = time.perf_counter()
        assert run(["verify", suite, "--n", "200000"]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert f"table of at least 2^400000 entries exceeds cap {EXPLICIT_TABLE_CAP}" in err

    def test_rule_check_literal_witness_names_its_origin_ballots(self, tmp_path,
                                                                 chain4, capsys):
        a, b = chain4.element("a"), chain4.element("b")
        rule = ExplicitRule(((a, b), (a, b)), [a, a, a, b])
        rule_file = write_json(tmp_path / "rule.json", serialize_rule(rule, chain4))
        out_path = tmp_path / "check.json"
        lattice = bundled_path("chain4")
        assert run(["rule", "check", "--semantics", "literal", "--rule", rule_file,
                    "--lattice", lattice, "--json", str(out_path)]) == 1
        witness = json.loads(out_path.read_text())["coalition_proof_unimodal"]["witness"]
        assert witness["origin_ballots"] == ["a", "a"]
        # the witness replays: origin a,a gives a, the deviation b,b gives b
        origin = tuple(chain4.element(s) for s in witness["origin_ballots"])
        deviant = tuple(chain4.element(s) for s in witness["deviation"])
        assert chain4.names[rule.evaluate(chain4, origin)] == witness["outcome_truthful"]
        assert chain4.names[rule.evaluate(chain4, deviant)] == witness["outcome_deviant"]
        capsys.readouterr()

    def test_verify_theorem3_refuses_one_voter(self, capsys):
        # the one-voter identity rule is the only locally sovereign and
        # neutral quota rule, and it is coalition-proof: nothing to check
        assert run(["verify", "theorem3", "--n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "theorem3 needs n >= 2 voters, got n = 1" in captured.err

    def test_verify_claim1_refuses_a_forty_element_chain_within_a_second(self, tmp_path,
                                                                        capsys):
        # 40^5 tuples for median-redistribution, past the evaluation cap
        chain = write_json(tmp_path / "chain40.json", serialize_lattice(build_chain(40)))
        with within(1.0, "verify claim1 on a 40-element chain"):
            assert run(["verify", "claim1", "--lattice", chain]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("claim1 sweep of 102400000 evaluations exceeds the evaluation cap "
                "100000000") in captured.err

    def test_verify_lemma1_refuses_ten_million_samples_within_a_second(self, capsys):
        # 10^7 sampled tables of 4^2 cells each
        with within(1.0, "verify lemma1 --samples 10000000"):
            assert run(["verify", "lemma1", "--samples", "10000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("sampled-rule sweep of 160000000 evaluations exceeds the evaluation cap "
                "100000000") in captured.err

    def test_verify_theorem3_with_two_voters_targets_the_majority(self, capsys):
        # the majority quota is 2 = n: both voters join the coalition
        assert run(["verify", "theorem3", "--n", "2"]) == 0
        out = capsys.readouterr().out
        for domain in ("unimodal", "strict"):
            assert f"[ok  ] q2-manipulable-{domain} -- targeted-profile" in out

    def test_prefs_enum_and_check(self, tmp_path, square_file, capsys):
        assert run(["prefs", "enum", "--lattice", square_file,
                    "--kind", "unimodal"]) == 0
        out = capsys.readouterr().out
        assert "# 12 unimodal preorders" in out
        prefs_file = write_json(tmp_path / "prefs.json",
                                [["x"], ["1"], ["0", "y"]])
        assert run(["prefs", "check", "--lattice", square_file,
                    "--prefs", prefs_file]) == 0
        out = capsys.readouterr().out
        assert "unimodal=True" in out and "strict=False" in out
        assert "separable=False" in out

    def test_prefs_enum_honours_cap(self, square_file, capsys):
        for cap in ("0", "3"):
            assert run(["prefs", "enum", "--lattice", square_file,
                        "--cap", cap]) == 2
            assert f"exceeds cap {cap}" in capsys.readouterr().err
        assert run(["prefs", "enum", "--lattice", square_file, "--cap", "4",
                    "--kind", "unimodal"]) == 0
        assert "# 12 unimodal preorders" in capsys.readouterr().out

    def test_prefs_enum_separable(self, capsys):
        path = bundled_path("boolean_square")
        lat = parse_lattice_file(path)
        # oracle: filter every topped preorder
        pool = [p for p in enumerate_topped_preorders(lat) if is_separable(p, lat)]
        expected = "".join(json.dumps(serialize_preorder(p, lat)) + "\n"
                           for p in pool)
        assert run(["prefs", "enum", "--lattice", path,
                    "--kind", "separable"]) == 0
        assert capsys.readouterr().out == \
            expected + f"# {len(pool)} separable preorders\n"
        assert run(["prefs", "enum", "--lattice", bundled_path("cube3"),
                    "--kind", "separable", "--cap", "8"]) == 0
        assert capsys.readouterr().out.endswith("\n# 1784 separable preorders\n")
        assert run(["prefs", "enum", "--lattice", bundled_path("cube3"),
                    "--kind", "separable"]) == 2
        assert "exceeds cap 7" in capsys.readouterr().err
        assert run(["prefs", "enum", "--lattice", bundled_path("chain4"),
                    "--kind", "separable"]) == 2
        assert capsys.readouterr().err == "error: 4 elements but 1 atoms\n"

    def test_verify_all_matches_golden_battery(self, capsys, tmp_path):
        out_path = tmp_path / "all.json"
        assert run(["verify", "all", "--seed", "0", "--json", str(out_path)]) == 0
        capsys.readouterr()
        keys = ("claim", "pass", "witness", "detail")
        got = [[tuple(c[k] for k in keys) for c in report["checks"]]
               for report in json.loads(out_path.read_text())]
        golden = [[tuple(c[k] for k in keys) for c in report]
                  for report in json.loads(GOLDEN_BATTERY.read_text())]
        assert got == golden

    def test_rule_check_matches_golden_seed0_jobs(self, capsys, tmp_path, monkeypatch):
        # the benchmark's seed-0 rule-check jobs, each payload against its
        # golden record: a drifting witness fails here before the benchmark
        assert_seed0_jobs_match_golden(tmp_path, monkeypatch)
        capsys.readouterr()

    def test_rule_check_seed0_jobs_count_no_preference(self, capsys, tmp_path, monkeypatch):
        # at m <= 7 with n = 2 and at m <= 5 with n = 3 the cap estimates'
        # bounds fit the default cap, so no job counts a domain's preferences
        def refuse(self, top):
            raise AssertionError(f"counted the preorders with top {top}")

        monkeypatch.setattr(preorders.LayeredSearch, "count", refuse)
        assert_seed0_jobs_match_golden(tmp_path, monkeypatch)
        capsys.readouterr()

    def test_rule_check_builds_one_interval_table_per_lattice(self, capsys, tmp_path,
                                                              monkeypatch):
        # both full domains of a job share their lattice's table, and so does
        # check_axioms on that lattice object; another job parses another one
        built, parsed = [], []
        table, parse = verify._interval_table, cli.parse_lattice_file

        def building(lat):
            built.append(lat)
            return table(lat)

        def parsing(path):
            parsed.append(parse(path))
            return parsed[-1]

        monkeypatch.setattr(verify, "_interval_table", building)
        monkeypatch.setattr(cli, "parse_lattice_file", parsing)
        lattice = bundled_path("boolean_square")
        rule = extended_median_rule(parse(lattice), 2)
        argv = ["rule", "check", "--rule", write_json(tmp_path / "rule.json",
                                                      serialize_rule(rule, parse(lattice))),
                "--lattice", lattice]
        # strategy-proof on both full domains, but a coalition of two manipulates
        assert run(argv) == 1
        assert capsys.readouterr().out.count("ok  ") == 3
        assert len(parsed) == 1 and built == parsed
        # weak efficiency reads the table: tops x and y give 0, which 1 dominates
        assert check_axioms(rule, parsed[0], range(4)).witnesses == {
            "efficient": {"tops": ["x", "y"], "outcome": "0", "dominated_by": "1"}}
        assert built == parsed
        assert run(argv) == 1
        assert len(parsed) == 2 and built == parsed
        capsys.readouterr()

    def test_verify_boolean_square(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        assert run(["verify", "boolean-square", "--json", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "twelve-unimodal-three-per-top" in text
        payload = json.loads(out_path.read_text())
        assert payload[0]["suite"] == "boolean-square"
        assert all(check["pass"] for check in payload[0]["checks"])

    def test_verify_with_lattice_argument(self, square_file, capsys):
        assert run(["verify", "claim1", "--lattice", square_file]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("suite", SUITE_NAMES[:-1])
    def test_verify_suite_matches_its_battery_reports(self, suite, battery,
                                                      tmp_path, capsys):
        entries = sum(1 for name, _, _ in suites.BATTERY if name == suite)
        mine = [r for r in battery if r["suite"].split(":")[0] == suite]
        assert len(mine) == entries
        assert verify_reports(tmp_path, suite) == mine

    def test_verify_flags_fill_the_battery_entries(self, square_file, tmp_path,
                                                   capsys, monkeypatch):
        with_square = verify_reports(tmp_path, "claim1", "--lattice", square_file)
        assert [r["suite"] for r in with_square] == ["claim1"]
        assert len(verify_reports(tmp_path, "theorem3", "--lattice", square_file)) == 3
        assert len(verify_reports(tmp_path, "theorem3", "--n", "3")) == 1
        voters = []
        original = suites.lemma2_suite

        @functools.wraps(original)
        def recording(*args, **kwargs):
            voters.append(kwargs["n"])
            return original(*args, **kwargs)

        monkeypatch.setattr(suites, "lemma2_suite", recording)
        assert len(verify_reports(tmp_path, "lemma2", "--n", "2")) == 2
        assert voters == [2, 2]

    def test_verify_lemma1_samples(self, tmp_path, capsys):
        detail = verify_reports(tmp_path, "lemma1")[0]["checks"][0]["detail"]
        assert detail == "126 rules, 6 monotone"
        more = verify_reports(tmp_path, "lemma1", "--samples", "200")
        assert more[0]["checks"][0]["detail"] == "206 rules, 6 monotone"

    @pytest.mark.parametrize("argv, flag", [
        (["theorem2", "--n", "7"], "--n"),
        (["boolean-square", "--lattice", bundled_path("boolean_square")], "--lattice"),
        (["claim1", "--samples", "5"], "--samples"),
        (["claim1", "--seed", "5"], "--seed"),
        (["all", "--samples", "1"], "--samples"),
        (["all", "--lattice", bundled_path("boolean_square")], "--lattice"),
        (["all", "--workers", "4"], "--workers"),
        (["theorem3", "--n", "0"], "--n"),
        (["lemma1", "--samples", "-1"], "--samples"),
    ])
    def test_verify_rejects_flags_the_suite_does_not_take(self, argv, flag, capsys):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err and f"verify {argv[0]}" in captured.err

    @pytest.mark.parametrize("argv, named, unnamed", [
        (["lemma2", "--n", "0"], ["--n >= 1"], ["--samples"]),
        (["theorem1", "--samples", "-1"], ["--n >= 1", "--samples >= 0"], []),
    ])
    def test_verify_bound_refusal_names_only_the_suites_flags(self, argv, named,
                                                              unnamed, capsys):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"verify {argv[0]} needs " in captured.err
        assert all(flag in captured.err for flag in named)
        assert not any(flag in captured.err for flag in unnamed)

    @pytest.mark.parametrize("action, flags", [
        pytest.param(action, flags, id=f"{action} {flags[0]}")
        for action, flags in [
            ("rule eval", ["--semantics", "literal"]),
            ("rule eval", ["--cap", "5"]),
            ("rule eval", ["--to", "tree"]),
            ("rule eval", ["--json", "out.json"]),
            ("rule convert", ["--cap", "5"]),
            ("rule convert", ["--semantics", "literal"]),
            ("rule convert", ["--ballots", "x"]),
            ("rule check", ["--to", "tree"]),
            ("rule check", ["--ballots", "x"]),
            ("prefs check", ["--kind", "unimodal"]),
            ("prefs check", ["--cap", "5"]),
            ("prefs enum", ["--prefs", "prefs.json"])]])
    def test_actions_reject_flags_their_handler_does_not_read(
            self, action, flags, tmp_path, square_file, majority_file, capsys,
            monkeypatch):
        # each call is valid without the extra flag
        monkeypatch.chdir(tmp_path)
        prefs = write_json(tmp_path / "prefs.json", [["x"], ["1"], ["0", "y"]])
        inputs = {
            "rule eval": ["--rule", majority_file, "--lattice", square_file,
                          "--ballots", "x,x,y,y,0"],
            "rule convert": ["--rule", majority_file, "--lattice", square_file,
                             "--to", "committee"],
            "rule check": ["--rule", majority_file, "--lattice", square_file],
            "prefs check": ["--lattice", square_file, "--prefs", prefs],
            "prefs enum": ["--lattice", square_file],
        }[action]
        assert run([*action.split(), *inputs, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{action} does not take {flags[0]}" in captured.err
        assert not (tmp_path / "out.json").exists()

    def test_parser_is_built_once_and_not_at_import(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        script = (f"import sys; sys.path.insert(0, {src!r})\n"
                  "import medianvoting.cli as cli\n"
                  "print(cli._build_parser.cache_info().currsize)\n"
                  "for _ in range(2):\n"
                  "    cli.run(['verify', 'claim1', '--seed', '1'])\n"
                  "print(cli._build_parser.cache_info().misses)\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["0", "1"]

    def test_usage_errors_exit_2(self, capsys):
        assert run(["verify", "unknown-suite"]) == 2
        assert run(["rule", "eval", "--rule", "x", "--lattice", "y"]) == 2
        assert run(["rule", "convert", "--rule", "x", "--lattice", "y"]) == 2
        assert run(["prefs", "check", "--lattice", "y"]) == 2
        # verify has no --cap or --semantics; rule check keeps its own
        assert run(["verify", "theorem3", "--n", "3", "--cap", "1"]) == 2
        assert run(["verify", "theorem3", "--n", "3", "--semantics", "literal"]) == 2
        assert run(["verify", "theorem3", "--n", "3", "--workers", "4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("covers", [5, "ab", [["a", ["b"]]], [[["a"], "b"]],
                                        [["a", 1]], [{"a": "b"}], [["a", "z"]]])
    def test_malformed_covers_exit_2(self, tmp_path, covers, capsys):
        bad = write_json(tmp_path / "bad.json", {"names": ["a", "b"], "covers": covers})
        assert run(["lattice", "inspect", "--covers", bad]) == 2
        assert "error:" in capsys.readouterr().err
        with pytest.raises(FormatError):
            parse_lattice({"names": ["a", "b"], "covers": covers})

    @pytest.mark.parametrize("rule, message", [
        ({"kind": "explicit", "ballot_spaces": [["0", "0"], ["0", "1"]],
          "table": ["0", "0", "0", "0"]}, "twice"),
        ({"kind": "tree", "n": -1, "corners": []}, "at least one voter"),
        ({"kind": "tree", "n": 0, "corners": ["0"]}, "at least one voter"),
        ({"kind": "committee", "n": 0, "terms": []}, "at least one voter"),
        ({"kind": "committee", "n": 2.7, "terms": []}, "must be an integer"),
        ({"kind": "committee", "n": "2", "terms": []}, "must be an integer"),
        ({"kind": "committee", "n": 2,
          "terms": [{"coalition": [1.5], "constant": "1"}]}, "must be an integer"),
        ({"kind": "tree", "n": 2.7, "corners": ["0", "x", "y", "1"]},
         "must be an integer"),
        ({"kind": "tree", "n": True, "corners": ["0", "1"]}, "must be an integer"),
        ({"kind": "tree", "n": 2, "corners": ["0", "x", "y"]},
         "need 4 corner values for 2 voters, got 3"),
        ({"kind": "tree", "n": 20000, "corners": ["0", "1"]},
         "need 2^20000 corner values for 20000 voters, got 2"),
        # a JSON string where a list is due would be read as its characters
        ({"kind": "tree", "n": 2, "corners": "0xy1"}, "'corners' must be a list"),
        ({"kind": "explicit", "ballot_spaces": [["0", "1"], ["0", "1"]],
          "table": "0111"}, "'table' must be a list"),
        ({"kind": "explicit", "ballot_spaces": "01", "table": ["1"]},
         "'ballot_spaces' must be a list"),
        ({"kind": "explicit", "ballot_spaces": [["0", "1"], "01"],
          "table": ["0", "1", "1", "1"]}, "a ballot space must be a list"),
        ({"kind": "committee", "n": 2, "terms": {}}, "'terms' must be a list"),
        ({"kind": "committee", "n": 2, "terms": [{"coalition": "01", "constant": "1"}]},
         "a coalition must be a list"),
        ({"n": 2, "terms": []}, 'rule file needs a "kind" field'),
    ])
    def test_invalid_rules_exit_2(self, tmp_path, square_file, square, rule,
                                  message, capsys):
        path = write_json(tmp_path / "rule.json", rule)
        assert run(["rule", "check", "--rule", path, "--lattice", square_file]) == 2
        assert message in capsys.readouterr().err
        with pytest.raises(FormatError):
            parse_rule(rule, square)

    def test_missing_file_exit_2(self, capsys):
        assert run(["lattice", "inspect", "--covers", "/nonexistent.json"]) == 2
        capsys.readouterr()

    def test_prefs_check_reads_a_list_of_preorders(self, tmp_path, square_file, capsys):
        prefs = write_json(tmp_path / "prefs.json",
                           [[["x"], ["1"], ["0", "y"]], [["1"], ["x", "y"], ["0"]]])
        assert run(["prefs", "check", "--lattice", square_file, "--prefs", prefs]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith('[["x"], ["1"], ["0", "y"]]  top=x ')
        assert lines[1].startswith('[["1"], ["x", "y"], ["0"]]  top=1 ')

    @pytest.mark.parametrize("preorder, message", [
        ({"x": 1}, "a preorder is a list of rank classes"),
        ([["x"], ["x", "1", "0", "y"]], "invalid preorder: element 1 listed twice"),
        ([["x"]], "invalid preorder: classes do not cover the carrier"),
    ])
    def test_invalid_preorders_exit_2(self, tmp_path, square_file, preorder, message,
                                      capsys):
        path = write_json(tmp_path / "prefs.json", preorder)
        assert run(["prefs", "check", "--lattice", square_file, "--prefs", path]) == 2
        assert message in capsys.readouterr().err

    def test_non_string_lattice_names_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "lattice.json", {"names": [1, 2], "covers": []})
        assert run(["lattice", "inspect", "--covers", path]) == 2
        assert '"names" must be a list of strings' in capsys.readouterr().err

    def test_a_file_that_is_not_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "lattice.json"
        path.write_text("names: [a, b]")
        assert run(["lattice", "inspect", "--covers", str(path)]) == 2
        assert f"{path} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["lattice", "build", "--covers"],
                                      ["verify", "claim1", "--lattice"]])
    def test_json_into_a_missing_directory_exits_2(self, tmp_path, square_file, argv,
                                                   capsys):
        missing = tmp_path / "missing" / "out.json"
        assert run([*argv, square_file, "--json", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not missing.parent.exists()
