"""Command-line front end.

Subcommands: ``lattice build|inspect``, ``prefs enum|check``,
``rule eval|convert|check``, and ``verify <suite>|all``.  Exit status 0 when
every check passes, 1 when a check failed and a witness was emitted, 2 on
usage, I/O or validation errors.
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
from importlib import resources

from .errors import FormatError, MedianVotingError
from .lattice import Lattice, build_from_covers
from .preorders import (
    DEFAULT_ENUM_CAP,
    TotalPreorder,
    enumerate_lsu,
    enumerate_topped_preorders,
    enumerate_unimodal,
    is_locally_strictly_unimodal,
    is_separable,
    is_unimodal,
)
from .rules import (
    CommitteeRule,
    ExplicitRule,
    MedianTree,
    build_canonical_median_tree,
    corners,
    tabulate,
    tree_to_committee,
)
from . import suites
from .verify import (
    DomainDescriptor,
    find_coalitional_manipulation,
    find_monotonicity_violation,
    find_strategy_violation,
)

SUITE_NAMES = ("claim1", "lemma1", "lemma2", "theorem1", "theorem2",
               "theorem3", "corollary1", "boolean-square", "all")


# -- serialization ------------------------------------------------------------------


def canonical_order(lat: Lattice):
    """Topological order of the cover relation, ties broken by name."""
    succ = [[] for _ in range(lat.m)]
    indeg = [0] * lat.m
    for lo, hi in lat.covers:
        succ[lo].append(hi)
        indeg[hi] += 1
    heap = [(lat.names[v], v) for v in range(lat.m) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, v = heapq.heappop(heap)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (lat.names[w], w))
    return order


def serialize_lattice(lat: Lattice) -> dict:
    order = canonical_order(lat)
    position = {e: i for i, e in enumerate(order)}
    covers = sorted(((position[lo], position[hi]) for lo, hi in lat.covers))
    names = [lat.names[e] for e in order]
    return {"names": names,
            "covers": [[names[lo], names[hi]] for lo, hi in covers]}


def parse_lattice(data) -> Lattice:
    if not isinstance(data, dict) or "names" not in data or "covers" not in data:
        raise FormatError('lattice file needs "names" and "covers"')
    names = data["names"]
    if (not isinstance(names, list)
            or not all(isinstance(n, str) for n in names)):
        raise FormatError('"names" must be a list of strings')
    if not isinstance(data["covers"], list):
        raise FormatError('"covers" must be a list of [lower, upper] pairs')
    known = set(names)
    covers = []
    for pair in data["covers"]:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(n, str) for n in pair)):
            raise FormatError(f"cover {pair!r} is not a [lower, upper] pair of names")
        lo, hi = pair
        for name in (lo, hi):
            if name not in known:
                raise FormatError(f"unknown element name {name!r} in covers")
        covers.append((lo, hi))
    return build_from_covers(names, covers)


def serialize_preorder(p: TotalPreorder, lat: Lattice):
    return [[lat.names[e] for e in cls] for cls in p.classes()]


def parse_preorder(data, lat: Lattice) -> TotalPreorder:
    if not (isinstance(data, list)
            and all(isinstance(cls, list) for cls in data)):
        raise FormatError("a preorder is a list of rank classes (lists of names)")
    classes = []
    for cls in data:
        ids = []
        for name in cls:
            if name not in lat._index:
                raise FormatError(f"unknown element name {name!r} in preorder")
            ids.append(lat.element(name))
        classes.append(ids)
    try:
        return TotalPreorder.from_classes(classes, m=lat.m)
    except MedianVotingError as exc:
        raise FormatError(f"invalid preorder: {exc}") from exc


def parse_preorder_list(data, lat: Lattice):
    """A file holds either one preorder or a list of preorders."""
    if isinstance(data, list) and data and isinstance(data[0], list) \
            and data[0] and isinstance(data[0][0], list):
        return [parse_preorder(entry, lat) for entry in data]
    return [parse_preorder(data, lat)]


def serialize_rule(rule, lat: Lattice) -> dict:
    if isinstance(rule, CommitteeRule):
        terms = sorted(((sorted(c), k) for c, k in rule.terms),
                       key=lambda t: (len(t[0]), t[0]))
        return {"kind": "committee", "n": rule.n,
                "terms": [{"coalition": c, "constant": lat.names[k]}
                          for c, k in terms]}
    if isinstance(rule, MedianTree):
        return {"kind": "tree", "n": rule.n,
                "corners": [lat.names[v] for v in rule.corner_values()]}
    if isinstance(rule, ExplicitRule):
        return {"kind": "explicit",
                "ballot_spaces": [[lat.names[b] for b in s] for s in rule.spaces],
                "table": [lat.names[v] for v in rule.table]}
    raise FormatError(f"cannot serialize rule of type {type(rule).__name__}")


def _element(lat, name):
    if name not in lat._index:
        raise FormatError(f"unknown element name {name!r}")
    return lat.element(name)


def _integer(value, what):
    """A JSON integer; ``int()`` would silently truncate 2.7 to 2."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def parse_rule(data, lat: Lattice):
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError('rule file needs a "kind" field')
    kind = data["kind"]
    try:
        if kind == "committee":
            n = _integer(data["n"], "'n'")
            terms = []
            for term in data["terms"]:
                coalition = [_integer(v, "coalition voter") for v in term["coalition"]]
                if any(v < 0 or v >= n for v in coalition):
                    raise FormatError(
                        f"coalition {coalition} references a voter outside 0..{n - 1}")
                terms.append((frozenset(coalition),
                              _element(lat, term["constant"])))
            return CommitteeRule(n, terms)
        if kind == "explicit":
            spaces = tuple(tuple(_element(lat, b) for b in s)
                           for s in data["ballot_spaces"])
            table = [_element(lat, v) for v in data["table"]]
            return ExplicitRule(spaces, table)
        if kind == "tree":
            values = [_element(lat, v) for v in data["corners"]]
            return build_canonical_median_tree(values, _integer(data["n"], "'n'"))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed {kind!r} rule: {exc}") from exc
    except MedianVotingError as exc:
        raise FormatError(f"invalid {kind!r} rule: {exc}") from exc
    raise FormatError(f"unknown rule kind {kind!r}")


# -- file plumbing -------------------------------------------------------------------


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def parse_lattice_file(path) -> Lattice:
    return parse_lattice(_load_json(path))


def parse_rule_file(path, lat: Lattice):
    return parse_rule(_load_json(path), lat)


def parse_preorder_file(path, lat: Lattice):
    return parse_preorder_list(_load_json(path), lat)


def bundled_lattice(name: str) -> Lattice:
    text = resources.files("medianvoting").joinpath(f"data/{name}.json").read_text()
    return parse_lattice(json.loads(text))


# -- subcommands ----------------------------------------------------------------------


def _emit(args, payload, text):
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(text)


def _cmd_lattice(args):
    lat = parse_lattice_file(args.covers)
    data = serialize_lattice(lat)
    if args.action == "build":
        _emit(args, data, json.dumps(data, indent=2))
        return 0
    lines = [f"elements: {lat.m}",
             f"bottom:   {lat.names[lat.bottom]}",
             f"top:      {lat.names[lat.top]}",
             f"atoms:    {', '.join(lat.names[a] for a in sorted(lat.atoms))}",
             "join-irreducibles: "
             + ", ".join(lat.names[j] for j in sorted(lat.join_irreducibles)),
             f"chain:    {lat.is_chain()}",
             f"boolean:  {lat.is_boolean()}",
             "covers:   " + "; ".join(f"{lo} < {hi}" for lo, hi in data["covers"])]
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_prefs(args):
    lat = parse_lattice_file(args.lattice)
    if args.action == "enum":
        if args.kind == "unimodal":
            pool = enumerate_unimodal(lat, cap=args.cap)
        elif args.kind == "strict":
            pool = enumerate_lsu(lat, cap=args.cap)
        else:
            pool = enumerate_topped_preorders(lat, cap=args.cap)
            if args.kind == "separable":
                pool = [p for p in pool if is_separable(p, lat)]
        payload = [serialize_preorder(p, lat) for p in pool]
        _emit(args, payload,
              "\n".join(json.dumps(entry) for entry in payload)
              + f"\n# {len(pool)} {args.kind} preorders")
        return 0
    prefs = parse_preorder_file(args.prefs, lat)
    rows = []
    hypercube = True
    for p in prefs:
        try:
            sep = is_separable(p, lat)
        except MedianVotingError:
            hypercube = False
            sep = None
        rows.append({"preorder": serialize_preorder(p, lat),
                     "top": lat.names[p.top],
                     "unimodal": is_unimodal(p, lat),
                     "locally_strictly_unimodal":
                         is_locally_strictly_unimodal(p, lat),
                     "separable": sep})
    lines = []
    for row in rows:
        lines.append(f"{json.dumps(row['preorder'])}  top={row['top']} "
                     f"unimodal={row['unimodal']} "
                     f"strict={row['locally_strictly_unimodal']}"
                     + ("" if not hypercube else f" separable={row['separable']}"))
    _emit(args, rows, "\n".join(lines))
    return 0


def _cmd_rule(args):
    lat = parse_lattice_file(args.lattice)
    rule = parse_rule_file(args.rule, lat)
    if args.action == "eval":
        names = [b for b in args.ballots.split(",") if b != ""]
        ballots = tuple(_element(lat, b) for b in names)
        print(lat.names[rule.evaluate(lat, ballots)])
        return 0
    if args.action == "convert":
        values = corners(rule, lat)
        n = rule.n
        if args.to == "tree":
            out = serialize_rule(build_canonical_median_tree(values, n), lat)
        elif args.to == "committee":
            out = serialize_rule(
                tree_to_committee(build_canonical_median_tree(values, n), lat), lat)
        else:
            spaces, table = tabulate(rule, lat)
            out = serialize_rule(ExplicitRule(spaces, table), lat)
        _emit(args, out, json.dumps(out, indent=2))
        return 0
    # check
    n = rule.n
    checks = {}
    violation = find_monotonicity_violation(rule, lat, cap=args.cap)
    checks["interval_monotone"] = (violation is None,
                                   violation and violation.describe(lat))
    spaces = rule.ballot_spaces(lat)
    for tag, factory in (("unimodal", DomainDescriptor.full_unimodal),
                         ("strict", DomainDescriptor.full_lsu)):
        dom = factory(lat, n, spaces)
        sp = find_strategy_violation(rule, dom, cap=args.cap)
        checks[f"strategy_proof_{tag}"] = (sp is None, sp and sp.describe(lat))
        manip = find_coalitional_manipulation(rule, dom, semantics=args.semantics,
                                              cap=args.cap)
        checks[f"coalition_proof_{tag}"] = (manip is None,
                                            manip and manip.describe(lat))
    payload = {key: {"pass": ok, "witness": witness}
               for key, (ok, witness) in checks.items()}
    lines = [f"{'ok  ' if ok else 'FAIL'} {key}"
             + (f" witness={witness}" if witness and not ok else "")
             for key, (ok, witness) in checks.items()]
    _emit(args, payload, "\n".join(lines))
    return 0 if all(ok for ok, _ in checks.values()) else 1


def _suite_reports(args):
    name = args.suite
    seed = args.seed
    lat = parse_lattice_file(args.lattice) if args.lattice else None
    if name == "all":
        return suites.run_all(seed=seed)
    if name == "claim1":
        if lat is not None:
            return [suites.claim1_suite(lat)]
        return [suites.claim1_suite(suites.boolean_square(), "square"),
                suites.claim1_suite(bundled_lattice("chain4"), "chain4"),
                suites.claim1_suite(bundled_lattice("cube3"), "cube"),
                suites.claim1_suite(bundled_lattice("grid3x3"), "grid3x3")]
    if name == "lemma1":
        return [suites.lemma1_suite(lat or suites.boolean_square(),
                                    n=args.n or 2, samples=args.samples,
                                    seed=seed)]
    if name == "lemma2":
        if lat is not None:
            return [suites.lemma2_suite(lat, n=args.n or 3)]
        return [suites.lemma2_suite(suites.boolean_square(), 3, "square"),
                suites.lemma2_suite(bundled_lattice("cube3"), 3, "cube")]
    if name == "theorem1":
        return [suites.theorem1_suite(lat or suites.boolean_square(),
                                      n=args.n or 2, samples=args.samples,
                                      seed=seed)]
    if name == "theorem2":
        if lat is not None:
            return [suites.theorem2_suite(lat)]
        return [suites.theorem2_suite(suites.boolean_square()),
                suites.theorem2_suite(bundled_lattice("chain4")),
                suites.theorem2_suite(bundled_lattice("cube3"))]
    if name == "theorem3":
        base = lat or suites.boolean_square()
        if args.n:
            return [suites.theorem3_suite(base, n=args.n)]
        return [suites.theorem3_suite(base, n=k) for k in (3, 4, 5)]
    if name == "corollary1":
        base = lat or bundled_lattice("chain4")
        if args.n:
            return [suites.chain_equivalence_suite(base, n=args.n,
                                                   samples=args.samples, seed=seed)]
        return [suites.chain_equivalence_suite(base, 2, args.samples, seed),
                suites.chain_equivalence_suite(base, 3, 0, seed)]
    if name == "boolean-square":
        return [suites.boolean_square_suite()]
    raise FormatError(f"unknown suite {name!r}")


def _cmd_verify(args):
    reports = _suite_reports(args)
    for report in reports:
        print(report.render_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([r.to_dict() for r in reports], handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    total = sum(len(r.checks) for r in reports)
    failed = sum(len(r.failures()) for r in reports)
    print(f"{len(reports)} suites, {total} checks, {failed} failures")
    return 0 if failed == 0 else 1


# -- argument parsing -------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="medianvoting",
        description="Distributive-lattice voting workbench: build lattices, "
                    "enumerate single-peaked preference domains, evaluate and "
                    "convert voting rules, and run the verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="build or inspect a lattice file")
    p_lat.add_argument("action", choices=("build", "inspect"))
    p_lat.add_argument("--covers", required=True, metavar="PATH")
    p_lat.add_argument("--json", metavar="PATH")

    p_prefs = sub.add_parser("prefs", help="enumerate or check preorders")
    p_prefs.add_argument("action", choices=("enum", "check"))
    p_prefs.add_argument("--lattice", required=True, metavar="PATH")
    p_prefs.add_argument("--prefs", metavar="PATH")
    p_prefs.add_argument("--kind", default="topped",
                         choices=("topped", "unimodal", "strict", "separable"))
    p_prefs.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    p_prefs.add_argument("--json", metavar="PATH")

    p_rule = sub.add_parser("rule", help="evaluate, convert or check a rule")
    p_rule.add_argument("action", choices=("eval", "convert", "check"))
    p_rule.add_argument("--rule", required=True, metavar="PATH")
    p_rule.add_argument("--lattice", required=True, metavar="PATH")
    p_rule.add_argument("--ballots", metavar="CSV")
    p_rule.add_argument("--to", choices=("committee", "tree", "explicit"))
    p_rule.add_argument("--semantics", default="truthful",
                        choices=("truthful", "literal"))
    p_rule.add_argument("--cap", type=int, default=10 ** 8)
    p_rule.add_argument("--json", metavar="PATH")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--lattice", metavar="PATH")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--workers", type=int, default=1,
                          help="accepted for compatibility; sweeps run "
                               "serially and results are worker-independent")
    p_verify.add_argument("--json", metavar="PATH")
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "lattice":
            return _cmd_lattice(args)
        if args.command == "prefs":
            if args.action == "check" and not args.prefs:
                parser.error("prefs check requires --prefs")
            return _cmd_prefs(args)
        if args.command == "rule":
            if args.action == "eval" and args.ballots is None:
                parser.error("rule eval requires --ballots")
            if args.action == "convert" and args.to is None:
                parser.error("rule convert requires --to")
            return _cmd_rule(args)
        if args.command == "verify":
            if getattr(args, "workers", 1) < 1:
                parser.error("--workers must be at least 1")
            return _cmd_verify(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except MedianVotingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(exc, "witness", None) is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
