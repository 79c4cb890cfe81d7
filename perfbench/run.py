"""Benchmark of the medianvoting workbench.

    python3 perfbench/run.py --workload battery|rule-check|lattice-build \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` beside
this directory.  The run measures set-up in fresh processes, then runs a
warm-up pass and timed passes until another would end past ``--seconds``
and at least MIN_PASSES passes are timed.  Every pass's answers are checked.
Times are scaled to a calm host by a probe that runs while they are measured
(``hostspeed.py``).

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the result holds the
per-layer metrics of the traced passes and the tracing overhead.  A line of
run metadata precedes the result, which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from hostspeed import HostSpeed
from stats import nearest_rank, tail_percentile
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 15
SETUP_PROBE_INTERVAL_S = 0.01

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_tail_ms": "ms", "peak_rss_mb": "MB"}
# per-layer self-time metrics and the tracer layer each one reads
LAYER_TIMES = {
    "verify.coalition_ms": "verify.coalition",
    "verify.monotonicity_ms": "verify.monotonicity",
    "verify.strategy_ms": "verify.strategy",
    "verify.axioms_ms": "verify.axioms",
    "suites.quota_tables_ms": "suites.quota_tables",
    "suites.self_ms": "suites.report",
    "preorders.enum_ms": "preorders.enum",
    "rules.tabulate_ms": "rules.tabulate",
    "lattice.build_ms": "lattice.build",
    "lattice.query_ms": "lattice.query",
    "cli.parse_ms": "cli.parse",
    "cli.self_ms": "cli",
}
LAYER_COUNTS = ("verify.coalition_calls", "verify.monotonicity_calls",
                "verify.strategy_calls", "preorders.enum_calls",
                "preorders.domain_size", "rules.cells", "lattice.builds",
                "lattice.elements_built", "lattice.queries")
# the battery's reports in the order ``run_all`` makes them
REPORT_LABELS = (
    "claim1-square", "claim1-chain4", "claim1-cube", "claim1-grid3x3",
    "lemma1-square-n2", "lemma2-square-n3", "lemma2-cube-n3",
    "theorem1-square-n2", "theorem2-square", "theorem2-chain4", "theorem2-cube",
    "theorem3-square-n3", "theorem3-square-n4", "theorem3-square-n5",
    "corollary1-chain4-n2", "corollary1-chain4-n3", "boolean-square")


def per_layer_units():
    units = {name: "ms" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["verify.coalition_witness_ratio"] = "ratio"
    units.update({f"suites.report.{label}_ms": "ms" for label in REPORT_LABELS})
    units["trace.overhead_s"] = "s"
    return units


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("battery", "rule-check", "lattice-build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the package and build the inputs")
    return parser.parse_args(argv)


# -- measuring -------------------------------------------------------------------------


def measure_setup(workload, seed):
    """Median seconds, scaled to the calm host, for a fresh process to import
    the package and build the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: waiting with one polls in sleeps of up to 50 ms
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", "0", "--setup-probe"],
                              cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        child = json.loads(done.stdout.splitlines()[-1])
        times.append((elapsed - child["probe_s"]) / child["slowdown"])
    return median(times)


def setup_probe(args, work):
    """The child side of ``measure_setup``: import the package and build the
    inputs under a host-speed probe, then print what the probes took and the
    slowdown they saw."""
    with HostSpeed(SETUP_PROBE_INTERVAL_S) as speed:
        start = time.perf_counter()
        import workloads
        workloads.WORKLOADS[args.workload](args.seed, work).close()
        end = time.perf_counter()
    print(json.dumps({"probe_s": speed.probe_seconds(start, end),
                      "slowdown": speed.slowdown(start, end)}))


def repeat(run_once, seconds, minimum):
    """Call ``run_once`` until ``minimum`` calls are done and another would
    end past ``seconds`` from the start, judged by the last call's length;
    their results."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        before = time.perf_counter()
        results.append(run_once())
        now = time.perf_counter()
        if len(results) >= minimum and now + (now - before) > deadline:
            return results


def _collected(run_pass):
    """A pass that starts with no garbage left by the one before."""
    gc.collect()
    return run_pass()


def middle(values, k):
    """The k values in the middle of ``values`` once sorted."""
    ordered = sorted(values)
    first = (len(ordered) - k) // 2
    return ordered[first:first + k]


def end_to_end(wl, args, setup_s):
    """End-to-end metrics.  One warm-up pass pays the one-time costs, then
    timed passes run under a host-speed probe.  Every time is scaled to the
    calm host.  ``wall_s`` is the median pass; the job samples are each job's
    MIN_PASSES middle times over the timed passes, so their count is fixed."""
    with HostSpeed() as speed:
        warmup = _collected(wl.run_pass)
        passes = repeat(lambda: _collected(wl.run_pass), args.seconds, MIN_PASSES)
    calm = [speed.calm_seconds(*p.span) for p in passes]
    jobs = [t for spans in zip(*(p.job_spans for p in passes))
            for t in middle([speed.calm_seconds(*span) for span in spans], MIN_PASSES)]
    pct = tail_percentile(len(jobs))
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(calm),
        "job_p50_ms": nearest_rank(jobs, 50.0) * 1000.0,
        "job_tail_ms": nearest_rank(jobs, pct) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    meta = {"passes": len(passes), "warmup_passes": 1, "job_samples": len(jobs),
            "tail_percentile": pct,
            "measured_wall_s": median(p.wall_s for p in passes),
            "host_slowdown": median(speed.slowdown(*p.span) for p in passes)}
    return [warmup] + passes, metrics, meta


def traced(wl, args, modules):
    """Per-layer metrics: after a warm-up pass, untraced and traced passes
    alternate, so the tracing overhead is measured under the same
    conditions.  Layer times are scaled to the calm host by the slowdown over
    their pass."""
    untraced, tracers, traced_passes = [], [], []

    def pair():
        untraced.append(_collected(wl.run_pass))
        tracer = Tracer()
        tracer.install(modules)
        try:
            traced_passes.append(_collected(wl.run_pass))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    with HostSpeed() as speed:
        warmup = _collected(wl.run_pass)
        repeat(pair, args.seconds, MIN_TRACED_PASSES)
    samples = [layer_metrics(t, speed.slowdown(*p.span))
               for t, p in zip(tracers, traced_passes)]
    metrics = {name: median([s[name] for s in samples]) for name in samples[0]}
    metrics["trace.overhead_s"] = (
        median(speed.calm_seconds(*p.span) for p in traced_passes)
        - median(speed.calm_seconds(*p.span) for p in untraced))
    shares = {}
    for tracer, done in zip(tracers, traced_passes):
        for layer, secs in tracer.layer_seconds().items():
            shares.setdefault(layer, []).append(secs / done.wall_s)
    meta = {"traced_passes": len(traced_passes), "untraced_passes": len(untraced),
            "warmup_passes": 1,
            "self_time_shares": {k: round(median(v), 4) for k, v in
                                 sorted(shares.items(), key=lambda kv: -median(kv[1]))}}
    return [warmup] + untraced + traced_passes, metrics, meta


def layer_metrics(tracer, slowdown=1.0):
    """One traced pass's per-layer metrics, times divided by ``slowdown``."""
    seconds = tracer.layer_seconds()
    reports = tracer.report_seconds()
    counts = tracer.counts
    ms = 1000.0 / slowdown
    out = {name: seconds.get(layer, 0.0) * ms for name, layer in LAYER_TIMES.items()}
    out.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    calls = counts.get("verify.coalition_calls", 0)
    out["verify.coalition_witness_ratio"] = (
        counts.get("verify.coalition_witnesses", 0) / calls if calls else 0.0)
    out.update({f"suites.report.{label}_ms": reports.get(label, 0.0) * ms
                for label in REPORT_LABELS})
    return out


# -- main --------------------------------------------------------------------------------


def run(args):
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.setup_probe:
            setup_probe(args, work)
            return 0
        import workloads
        factory = workloads.WORKLOADS[args.workload]
        setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
        wl = factory(args.seed, work)
        try:
            if args.trace:
                passes, metrics, meta = traced(wl, args, workloads.MODULES)
                units = per_layer_units()
            else:
                passes, metrics, meta = end_to_end(wl, args, setup_s)
                units = END_TO_END_UNITS
        finally:
            wl.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted = sum(len(p.job_spans) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in (q for problems in p.problems for q in problems):
            print(f"wrong: {problem}", file=sys.stderr)
        if p.errors:
            print(p.errors, file=sys.stderr, end="")
    meta.update({"workload": args.workload, "seed": args.seed,
                 "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                 "run_seconds": args.seconds, "job_classes": wl.classes,
                 "jobs_per_pass": len(passes[0].job_spans),
                 "failed_ratio": failed / attempted})
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "medianvoting" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'medianvoting'}", file=sys.stderr)
        return 2
    # Compile the package from source in every process, whether or not a
    # bytecode cache happens to exist, so set-up time and memory repeat.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(WORK / "no-bytecode-cache")
    sys.path[:0] = [str(SRC), str(HERE)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
