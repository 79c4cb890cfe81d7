"""Tests for the benchmark's own helpers: the tail-percentile rule, self-time
arithmetic, the tracer's patching, the host-speed scaling, and every verdict
gate rejecting an injected wrong answer.  They import nothing from the
package under test."""

import copy
import json
import signal
import time
import types
from pathlib import Path

import pytest

import gates
import hostspeed
import run
import stats
import tracer

# -- percentile rule ------------------------------------------------------------------


def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 90) == 90
    assert stats.nearest_rank(values, 99.9) == 100
    assert stats.nearest_rank([7], 50) == 7
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


@pytest.mark.parametrize("n, pct", [(20, 50.0), (39, 50.0), (40, 75.0),
                                    (99, 75.0), (100, 90.0), (199, 90.0),
                                    (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    assert stats.beyond(n, pct) >= stats.MIN_BEYOND
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    assert all(stats.beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_tail_needs_ten_samples_beyond_the_median():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_middle_takes_the_central_values():
    assert run.middle([5, 1, 4, 2, 3], 3) == [2, 3, 4]
    assert run.middle([4, 1, 3, 2], 3) == [1, 2, 3]
    assert run.middle([2, 1, 3], 3) == [1, 2, 3]


def test_repeat_runs_the_minimum_and_stops_before_the_deadline():
    calls = []
    assert len(run.repeat(lambda: calls.append(1), 0.0, 3)) == 3
    # each call takes 0.02 s: a 0.05 s budget fits two, the third would end late
    assert len(run.repeat(lambda: time.sleep(0.02), 0.05, 1)) == 2


# -- host speed ---------------------------------------------------------------------------


def _speed(starts, ratios):
    speed = hostspeed.HostSpeed()
    speed.starts = list(starts)
    speed.durations = [r * hostspeed.REF_PROBE_S for r in ratios]
    return speed


def test_calm_seconds_removes_probes_and_divides_by_slowdown():
    pad = hostspeed.PAD_S
    speed = _speed([10.0, 10.5, 11.0, 20.0], [2.0, 2.0, 2.0, 5.0])
    probes = 3 * 2.0 * hostspeed.REF_PROBE_S
    assert speed.probe_seconds(10.0, 12.0) == pytest.approx(probes)
    assert speed.slowdown(10.0, 12.0) == pytest.approx(2.0)
    assert speed.calm_seconds(10.0, 12.0) == pytest.approx((2.0 - probes) / 2.0)
    # a short job between probes takes its slowdown from the probes around it
    assert speed.probe_seconds(10.6, 10.7) == 0
    assert speed.slowdown(10.6, 10.7) == pytest.approx(2.0)
    assert speed.slowdown(20.0 - pad / 2, 20.0 - pad / 4) == pytest.approx(5.0)


def test_slowdown_falls_back_to_every_probe_and_needs_one():
    assert _speed([1.0, 2.0], [1.0, 3.0]).slowdown(50.0, 51.0) == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        _speed([], []).slowdown(0.0, 1.0)


def test_host_speed_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(0.005) as speed:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(speed.durations) >= 2
    assert speed.starts == sorted(speed.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- self time ----------------------------------------------------------------------------


def test_self_time_subtracts_children_and_queries():
    spans = [
        ["a", 0.0, 10.0, None, 0.0, None],   # 10 long, children 3 + 4
        ["b", 1.0, 4.0, 0, 0.0, None],       # 3 long, child 1
        ["c", 2.0, 3.0, 1, 0.0, None],       # leaf span
        ["b", 5.0, 9.0, 0, 1.5, None],       # 4 long, 1.5 in lattice queries
    ]
    got = tracer.self_times(spans)
    assert got["a"] == pytest.approx(3.0)
    assert got["b"] == pytest.approx(2.0 + 2.5)
    assert got["c"] == pytest.approx(1.0)
    assert sum(got.values()) + 1.5 == pytest.approx(10.0)


def _fake_package():
    """Stand-in modules: ``suites`` imports ``enumerate_unimodal`` from
    ``preorders`` and calls it from a ``*_suite`` function."""
    preorders = types.ModuleType("preorders")

    def enumerate_topped_preorders(lat):
        return [1, 2, 3, 4]

    def enumerate_unimodal(lat):
        return [p for p in preorders.enumerate_topped_preorders(lat) if p % 2]

    preorders.enumerate_topped_preorders = enumerate_topped_preorders
    preorders.enumerate_unimodal = enumerate_unimodal
    suites = types.ModuleType("suites")
    suites.enumerate_unimodal = enumerate_unimodal

    def theorem3_suite(lat, n=5):
        return suites.enumerate_unimodal(lat)

    suites.theorem3_suite = theorem3_suite
    return {"preorders": preorders, "suites": suites}


def test_tracer_patches_importers_and_restores():
    modules = _fake_package()
    originals = dict(vars(modules["suites"]))
    t = tracer.Tracer()
    t.install(modules)  # most entry points are missing: they are skipped
    assert modules["suites"].enumerate_unimodal is not originals["enumerate_unimodal"]
    square = types.SimpleNamespace(m=4, is_chain=lambda: False)
    assert modules["suites"].theorem3_suite(square, n=4) == [1, 3]
    t.uninstall()
    assert dict(vars(modules["suites"])) == originals
    assert t.counts["preorders.enum_calls"] == 1       # nested call not counted
    assert t.counts["preorders.domain_size"] == 2      # the outer call's result
    assert list(t.report_seconds()) == ["theorem3-square-n4"]
    layers = t.layer_seconds()
    assert set(layers) >= {"suites.report", "preorders.enum"}
    assert all(v >= 0.0 for v in layers.values())


# -- battery gate -----------------------------------------------------------------------------


def _battery_reports():
    return [{"suite": "claim1:square", "elapsed_ms": 1.0, "checks": [
                {"claim": "a", "pass": True, "witness": None, "detail": ""},
                {"claim": "b", "pass": True, "witness": None, "detail": "2"}]},
            {"suite": "theorem3", "elapsed_ms": 2.0, "checks": [
                {"claim": "c", "pass": True, "witness": [1, 2], "detail": ""}]}]


def test_battery_gate_ignores_names_timings_and_new_keys():
    golden = gates.battery_checks(_battery_reports())
    reports = _battery_reports()
    reports[1]["suite"] = "theorem3-n5"
    reports[1]["elapsed_ms"] = 99.0
    reports[1]["checks"][0]["stats"] = {"cells": 10}
    per_report, whole = gates.battery_problems(0, reports, golden)
    assert per_report == [[], []] and whole == []


@pytest.mark.parametrize("inject", ["fail", "witness", "detail", "drop", "exit"])
def test_battery_gate_rejects_wrong_answers(inject):
    golden = gates.battery_checks(_battery_reports())
    reports = _battery_reports()
    code = 0
    if inject == "fail":
        reports[0]["checks"][1]["pass"] = False
    elif inject == "witness":
        reports[1]["checks"][0]["witness"] = [2, 1]
    elif inject == "detail":
        reports[0]["checks"][1]["detail"] = "3"
    elif inject == "drop":
        del reports[0]["checks"][0]
    else:
        code = 1
    per_report, whole = gates.battery_problems(code, reports, golden)
    assert any(per_report) or whole


# -- rule-check gate -----------------------------------------------------------------------------


def _payload(monotone=True, coalition=True):
    def check(ok):
        return {"pass": ok, "witness": None if ok else {"voter": 0}}
    return {"interval_monotone": check(monotone),
            "strategy_proof_unimodal": check(monotone),
            "strategy_proof_strict": check(monotone),
            "coalition_proof_unimodal": check(coalition),
            "coalition_proof_strict": check(coalition)}


def test_rule_check_gate_accepts_the_paper():
    tree_on_chain = {"kind": "tree", "chain": True}
    assert gates.rule_check_problems(tree_on_chain, 0, _payload()) == []
    explicit = {"kind": "explicit", "chain": False}
    assert gates.rule_check_problems(explicit, 1, _payload(False, False)) == []
    quota_off_chain = {"kind": "quota", "chain": False}
    assert gates.rule_check_problems(quota_off_chain, 1, _payload(True, False)) == []
    constant_off_chain = {"kind": "constant", "chain": False}
    assert gates.rule_check_problems(constant_off_chain, 0, _payload()) == []


@pytest.mark.parametrize("job, code, mutate", [
    ({"kind": "explicit", "chain": False}, 1,
     lambda p: p["strategy_proof_strict"].update({"pass": True, "witness": None})),
    ({"kind": "tree", "chain": False}, 1, lambda p: p.update(_payload(False, False))),
    ({"kind": "quota", "chain": True}, 1, lambda p: p.update(_payload(True, False))),
    ({"kind": "tree", "chain": True}, 1, lambda p: None),
    ({"kind": "tree", "chain": True}, 2, lambda p: None),
    ({"kind": "explicit", "chain": False}, 1,
     lambda p: p["interval_monotone"].update({"witness": None})),
    ({"kind": "constant", "chain": False}, 1, lambda p: p.update(_payload(True, False))),
])
def test_rule_check_gate_rejects_wrong_answers(job, code, mutate):
    payload = _payload(monotone=job["kind"] != "explicit",
                       coalition=job["kind"] != "explicit")
    mutate(payload)
    assert gates.rule_check_problems(job, code, payload)


def test_rule_check_gate_compares_golden():
    job = {"kind": "tree", "chain": True}
    golden = _payload()
    assert gates.rule_check_problems(job, 0, copy.deepcopy(golden), golden) == []
    other = copy.deepcopy(golden)
    other["interval_monotone"]["witness"] = "extra"
    assert gates.rule_check_problems(job, 0, other, golden)


# -- lattice-build gate -----------------------------------------------------------------------------

# the poset a < b plus c: down-sets {}, a, c, ab, ac, abc
BELOW = [0b001, 0b011, 0b100]


def test_down_set_counts_agree():
    assert gates.count_down_sets(BELOW) == len(gates.down_sets(BELOW)) == 6
    antichain = [1 << i for i in range(5)]
    assert gates.count_down_sets(antichain) == 32
    chain = [(1 << (i + 1)) - 1 for i in range(6)]
    assert sorted(gates.down_sets(chain)) == [(1 << i) - 1 for i in range(7)]


def _lattice_answers():
    decoded = sorted(gates.down_sets(BELOW))
    index = {mask: e for e, mask in enumerate(decoded)}
    m = len(decoded)
    pairs = [(x, y) for x in range(m) for y in range(m)]
    triples = [(x, y, z) for x in range(m) for y in range(m) for z in range(m)]
    d = decoded
    queries = {"median": triples, "between": triples, "join": pairs,
               "meet": pairs, "interval_mask": pairs}
    results = {
        "median": [index[(d[a] & d[b]) | (d[b] & d[c]) | (d[a] & d[c])]
                   for a, b, c in triples],
        "between": [(d[x] & d[y]) & ~d[z] == 0 and d[z] & ~(d[x] | d[y]) == 0
                    for x, z, y in triples],
        "join": [index[d[a] | d[b]] for a, b in pairs],
        "meet": [index[d[a] & d[b]] for a, b in pairs],
        "interval_mask": [sum(1 << z for z in range(m)
                              if (d[x] & d[y]) & ~d[z] == 0
                              and d[z] & ~(d[x] | d[y]) == 0) for x, y in pairs],
        "rank_valuation": [bin(mask).count("1") for mask in d],
    }
    return set(decoded), decoded, queries, results


def test_lattice_gate_accepts_right_answers():
    assert gates.lattice_problems(*_lattice_answers()) == []


@pytest.mark.parametrize("op", ["median", "between", "join", "meet",
                                "interval_mask", "rank_valuation"])
def test_lattice_gate_rejects_a_wrong_query(op):
    reference, decoded, queries, results = _lattice_answers()
    wrong = results[op][5]
    results[op][5] = (not wrong) if op == "between" else (wrong + 1) % len(decoded)
    assert gates.lattice_problems(reference, decoded, queries, results)


def test_lattice_gate_rejects_wrong_elements():
    reference, decoded, queries, results = _lattice_answers()
    assert gates.lattice_problems(reference, decoded[:-1], queries, results)
    assert gates.lattice_problems(reference, decoded[:-1] + [0b010], queries, results)


# -- BENCHMARK.json -----------------------------------------------------------------------


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["battery", "rule-check",
                                                       "lattice-build"]
