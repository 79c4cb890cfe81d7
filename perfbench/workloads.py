"""The three workloads.  Each builds its inputs from a seed, runs one timed
pass at a time and checks the answers of a pass afterwards.

A pass returns a ``Pass``: its start and end, the start and end of each job
(``time.perf_counter`` readings), and one problem list per job (empty when
the job's answer is right).  A job that
raises or exits 2 counts as failed, like a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from medianvoting import cli, lattice, preorders, rules, suites, verify

import gates

MODULES = {"lattice": lattice, "preorders": preorders, "rules": rules,
           "verify": verify, "suites": suites, "cli": cli}
GOLDEN = Path(__file__).resolve().parent / "golden"


@dataclass
class Pass:
    span: tuple
    job_spans: list
    problems: list = field(default_factory=list)
    errors: str = ""

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def _quiet_cli(argv, err):
    """``cli.run`` with the report text discarded; -1 if it raised."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(err):
        try:
            return cli.run(argv)
        except Exception as exc:  # a crash is a failed job, not a dead run
            print(f"{' '.join(argv)}: {type(exc).__name__}: {exc}", file=err)
            return -1


# -- battery ---------------------------------------------------------------------------


class Battery:
    """``verify all`` once per pass; its jobs are the outermost suite reports,
    timed by wrapping the package's ``*_suite`` functions."""

    name = "battery"

    def __init__(self, seed: int, work: Path):
        self.out = work / "battery.json"
        self.argv = ["verify", "all", "--seed", str(seed), "--json", str(self.out)]
        self.golden = None
        if seed == 0:
            self.golden = json.loads((GOLDEN / "battery_seed0.json").read_text())
        self._spans = []
        self._depth = 0
        self._restore = []
        for name, fn in list(vars(suites).items()):
            if name.endswith("_suite") and callable(fn):
                self._restore.append((name, fn))
                setattr(suites, name, self._timed(fn))
        self.classes = {}

    def _timed(self, fn):
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self._spans.append((start, time.perf_counter()))
        timed.__name__ = fn.__name__
        timed.__wrapped__ = fn
        return timed

    def close(self):
        for name, fn in self._restore:
            setattr(suites, name, fn)

    def run_pass(self) -> Pass:
        self._spans = []
        err = io.StringIO()
        start = time.perf_counter()
        code = _quiet_cli(self.argv, err)
        span = (start, time.perf_counter())
        try:
            reports = json.loads(self.out.read_text()) if code in (0, 1) else []
            self.out.unlink()
        except (OSError, ValueError) as exc:
            reports = []
            print(f"battery output unreadable: {exc}", file=err)
        per_report, whole = gates.battery_problems(code, reports, self.golden)
        jobs = self._spans or [span]
        if len(per_report) != len(jobs):
            whole.append(f"{len(jobs)} reports timed, {len(per_report)} written")
        problems = [list(whole) for _ in jobs] if whole else per_report
        self.classes = {"reports": len(jobs)}
        return Pass(span, jobs, problems, err.getvalue())


# -- rule-check ------------------------------------------------------------------------

BUNDLED = ("boolean_square", "chain4", "theorem2_square")
KINDS = ("explicit", "tree", "quota")
# (size class, carriers, voters, rule kinds per carrier).  n=3 only on at
# most 5 elements keeps every job under the evaluation cap.  The mix puts the
# median job inside m4-n2, where the command-line overhead dominates, and the
# p90 tail inside m7-n2.  The m7 jobs are the costly ones, so they use rules
# whose cost hardly depends on the seed: on a chain, tree and quota rules are
# coalition-proof and the search always scans everything (an explicit rule's
# witness search there takes 0.7 s to over 2 s), and on a random 7-element
# lattice a constant committee rule is coalition-proof on any carrier, so
# the search scans everything there too (a quota rule there takes 0.8 s, or
# 2 s to over 4 s when the search has to find a witness).
RULE_CHECK_PLAN = (
    ("m4-n2", BUNDLED, 2, KINDS * 2 + ("explicit",)),
    ("m4-n3", ("boolean_square",), 3, ("tree",)),
    ("m4-n3", ("chain4",), 3, ("quota",)),
    ("m4-n3", ("theorem2_square",), 3, ("explicit",)),
    ("m5-n2", ("ideal5a",), 2, KINDS),
    ("m5-n3", ("ideal5b",), 3, ("explicit",)),
    ("m6-n2", ("ideal6a",), 2, KINDS),
    ("m7-n2", ("chain7",), 2, ("tree", "quota") * 2 + ("tree",)),
    ("m7-n2", ("ideal7a",), 2, ("constant",)),
)
SEEDED_CARRIERS = ("ideal5a", "ideal5b", "ideal6a", "ideal7a")


def random_poset(rng, points, density):
    """``below`` masks of a random poset on ``points`` points (edges only go
    from lower to higher index, closed transitively)."""
    below = [1 << i for i in range(points)]
    for j in range(points):
        for i in range(j):
            if rng.random() < density:
                below[j] |= below[i]
    return below


def _poset_pairs(below):
    names = [f"p{i}" for i in range(len(below))]
    pairs = [(names[i], names[j]) for j, mask in enumerate(below)
             for i in gates._bits(mask) if i != j]
    return names, pairs


def _sample_poset(rng, lo, hi, points):
    for _ in range(100_000):
        below = random_poset(rng, rng.randint(*points), rng.uniform(0.0, 0.6))
        if lo <= gates.count_down_sets(below) <= hi:
            return below
    raise RuntimeError(f"no poset with {lo}..{hi} down-sets")


def rule_check_jobs(seed: int, work: Path):
    """The seeded ``rule check`` jobs, with their lattice and rule files
    written to ``work``; returns (jobs, job count per size class)."""
    rng = random.Random(seed)
    carriers = {}
    for name in BUNDLED:
        text = resources.files("medianvoting").joinpath(f"data/{name}.json").read_text()
        carriers[name] = (text, name == "chain4")
    carriers["chain7"] = (json.dumps(cli.serialize_lattice(lattice.build_chain(7))), True)
    for name in SEEDED_CARRIERS:
        size = int(name[5])
        below = _sample_poset(rng, size, size, (2, size - 1))
        lat = lattice.build_ideal_lattice(*_poset_pairs(below))
        chain = all(a & b in (a, b) for a in below for b in below)
        carriers[name] = (json.dumps(cli.serialize_lattice(lat)), chain)
    paths = {}
    for name, (text, _) in carriers.items():
        paths[name] = work / f"lattice_{name}.json"
        paths[name].write_text(text)
    jobs, classes = [], {}
    for cls, names, n, kinds in RULE_CHECK_PLAN:
        for carrier in names:
            lat = cli.parse_lattice(json.loads(carriers[carrier][0]))
            for i, kind in enumerate(kinds):
                job_id = f"{cls}-{carrier}-{kind}-{i}"
                rule_path = work / f"rule_{job_id}.json"
                rule_path.write_text(json.dumps(_random_rule(rng, lat, kind, n)))
                out = work / f"out_{job_id}.json"
                jobs.append({
                    "id": job_id, "kind": kind, "chain": carriers[carrier][1],
                    "out": out,
                    "argv": ["rule", "check", "--rule", str(rule_path),
                             "--lattice", str(paths[carrier]), "--json", str(out)]})
                classes[cls] = classes.get(cls, 0) + 1
    # a seeded order spreads the short jobs over the pass, so that one slow
    # spell of the machine does not time all of them
    rng.shuffle(jobs)
    return jobs, classes


class RuleCheck:
    """A stream of ``rule check`` jobs through ``cli.run``; each job re-reads
    its lattice and rule files, as one command-line call does."""

    name = "rule-check"

    def __init__(self, seed: int, work: Path):
        self.jobs, self.classes = rule_check_jobs(seed, work)
        self.golden = None
        if seed == 0:
            self.golden = json.loads((GOLDEN / "rule_check_seed0.json").read_text())

    def close(self):
        pass

    def run_pass(self) -> Pass:
        err = io.StringIO()
        codes, spans = [], []
        start = time.perf_counter()
        for job in self.jobs:
            t0 = time.perf_counter()
            codes.append(_quiet_cli(job["argv"], err))
            spans.append((t0, time.perf_counter()))
        span = (start, time.perf_counter())
        problems = []
        for job, code in zip(self.jobs, codes):
            try:
                payload = json.loads(job["out"].read_text()) if code in (0, 1) else None
                job["out"].unlink()
            except (OSError, ValueError):
                payload = None
            golden = self.golden[job["id"]] if self.golden is not None else None
            problems.append([f"{job['id']}: {p}" for p in
                             gates.rule_check_problems(job, code, payload, golden)])
        return Pass(span, spans, problems, err.getvalue())


def _random_rule(rng, lat, kind, n):
    names = lat.names
    if kind == "constant":
        constant = rng.choice(names)
        return {"kind": "committee", "n": n,
                "terms": [{"coalition": list(c), "constant": constant}
                          for size in range(n + 1)
                          for c in itertools.combinations(range(n), size)]}
    if kind == "explicit":
        return {"kind": "explicit", "ballot_spaces": [list(names)] * n,
                "table": [rng.choice(names) for _ in range(lat.m ** n)]}
    if kind == "tree":
        return {"kind": "tree", "n": n,
                "corners": [rng.choice(names) for _ in range(2 ** n)]}
    # quota: constants depend only on coalition size, nondecreasing in it
    constants = [rng.randrange(lat.m)]
    for _ in range(n):
        constants.append(rng.choice([e for e in range(lat.m)
                                     if lat.leq(constants[-1], e)]))
    terms = [{"coalition": list(c), "constant": names[constants[size]]}
             for size in range(n + 1)
             for c in itertools.combinations(range(n), size)]
    return {"kind": "committee", "n": n, "terms": terms}


# -- lattice-build -----------------------------------------------------------------------

# size class -> (random posets, poset points, down-sets).  Build time grows
# with points * elements^2, so each class pins the points and the element
# count: the seed then changes the lattices but hardly the work (a class
# that let the count range over 8% spread its median job by twice as much
# from seed to seed as one with a fixed count).
LATTICE_PLAN = (("m100", 12, 9, 100), ("m200", 8, 10, 200), ("m400", 1, 11, 400))
QUERIES = {"median": (3, 300), "between": (3, 300), "join": (2, 300),
           "meet": (2, 300), "interval_mask": (2, 60)}
GRID_SIDE = 16
HYPERCUBE_DIM = 9


def _decode_ideal(name):
    inner = name.strip("{}")
    return sum(1 << int(p[1:]) for p in inner.split(",")) if inner else 0


def _decode_grid(name):
    i, j = (int(v) for v in name.split("."))
    return (1 << i) - 1 | ((1 << j) - 1) << (GRID_SIDE - 1)


class LatticeBuild:
    """Seeded random posets, a hypercube and a grid: build each lattice, then
    run a seeded query pass on it.  One job is one lattice."""

    name = "lattice-build"

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        self.jobs = []
        self.classes = {}
        for cls, count, points, elements in LATTICE_PLAN:
            for _ in range(count):
                below = _sample_poset(rng, elements, elements, (points, points))
                names, pairs = _poset_pairs(below)
                self._add(rng, cls, gates.count_down_sets(below),
                          lambda n=names, p=pairs: lattice.build_ideal_lattice(n, p),
                          _decode_ideal, lambda b=below: set(gates.down_sets(b)))
        # the hypercube is the lattice of down-sets of an antichain
        self._add(rng, f"hypercube-{HYPERCUBE_DIM}", 2 ** HYPERCUBE_DIM,
                  lambda: lattice.build_boolean_hypercube(HYPERCUBE_DIM),
                  lambda name: int(name, 2),
                  lambda: set(gates.down_sets([1 << i for i in range(HYPERCUBE_DIM)])))
        # the grid is the lattice of down-sets of two disjoint chains of
        # GRID_SIDE - 1 points: a prefix of each
        side = GRID_SIDE
        self._add(rng, f"grid-{side}x{side}", side * side,
                  lambda: lattice.build_product(lattice.build_chain(side),
                                                lattice.build_chain(side)),
                  _decode_grid,
                  lambda: {(1 << i) - 1 | ((1 << j) - 1) << (side - 1)
                           for i in range(side) for j in range(side)})
        # a seeded order spreads each size class over the pass
        rng.shuffle(self.jobs)

    def _add(self, rng, cls, m, build, decode, reference):
        queries = {op: [tuple(rng.randrange(m) for _ in range(arity))
                        for _ in range(count)]
                   for op, (arity, count) in QUERIES.items()}
        self.jobs.append({"class": cls, "build": build, "decode": decode,
                          "reference": reference, "queries": queries})
        self.classes[cls] = self.classes.get(cls, 0) + 1

    def close(self):
        pass

    @staticmethod
    def _query_pass(lat, q):
        valuation = lat.rank_valuation()
        return {
            "median": [lat.median(a, b, c) for a, b, c in q["median"]],
            "between": [lat.between(x, z, y) for x, z, y in q["between"]],
            "join": [lat.join(a, b) for a, b in q["join"]],
            "meet": [lat.meet(a, b) for a, b in q["meet"]],
            "interval_mask": [lat.interval_mask(x, y) for x, y in q["interval_mask"]],
            "rank_valuation": [valuation[e] for e in range(lat.m)],
        }

    def run_pass(self) -> Pass:
        err = io.StringIO()
        outcomes, spans = [], []
        start = time.perf_counter()
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                lat = job["build"]()
                outcomes.append((lat.names, self._query_pass(lat, job["queries"])))
                # freed before the next build, so the peak memory does not
                # depend on which two lattices follow each other
                del lat
            except Exception as exc:  # a crash is a failed job, not a dead run
                outcomes.append(None)
                print(f"{job['class']}: {type(exc).__name__}: {exc}", file=err)
            spans.append((t0, time.perf_counter()))
        span = (start, time.perf_counter())
        problems = []
        for job, outcome in zip(self.jobs, outcomes):
            if outcome is None:
                problems.append([f"{job['class']}: raised"])
                continue
            if callable(job["reference"]):
                job["reference"] = job["reference"]()
            names, results = outcome
            try:
                decoded = [job["decode"](name) for name in names]
            except ValueError:
                problems.append([f"{job['class']}: undecodable element name"])
                continue
            problems.append([f"{job['class']}: {p}" for p in gates.lattice_problems(
                job["reference"], decoded, job["queries"], results)])
        return Pass(span, spans, problems, err.getvalue())


WORKLOADS = {w.name: w for w in (Battery, RuleCheck, LatticeBuild)}
