"""Command-line front end.

Subcommands: ``lattice build|inspect``, ``prefs enum|check``,
``rule eval|convert|check``, and ``verify <suite>|all``.  Exit status 0 when
every check passes, 1 when a check failed and a witness was emitted, 2 on
usage, I/O or validation errors.

``verify`` runs the battery table in ``suites.BATTERY``.  ``verify all`` runs
every entry and takes only ``--seed`` and ``--json``.  ``verify <suite>``
with no flag runs that suite's entries; ``--lattice``, ``--n``, ``--samples``
and ``--seed`` put their values into those entries (a lattice replaces the
entry's own and drops its label), and equal calls run once.

Each action and each verify suite has its own sub-parser, which declares
only the flags its handler reads (for a suite, those its function has a
parameter for).  Flags go after the action (``verify theorem3 --n 3``), and
any other flag exits 2.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import inspect
import itertools
import json
import sys

from .errors import FormatError, MedianVotingError, NotRepresentableError
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
    _check_corner_count,
    build_canonical_median_tree,
    table_corners,
    tabulate,
    tree_to_committee,
)
from . import suites
from .verify import (
    DEFAULT_EVAL_CAP,
    DomainDescriptor,
    find_coalitional_manipulation,
    find_monotonicity_violation,
    find_strategy_violation,
)

SUITE_NAMES = tuple(dict.fromkeys(s for s, _, _ in suites.BATTERY)) + ("all",)


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


def _typed(value, kind, what):
    """``value`` if it is a JSON integer (``kind`` int) or list: ``int()``
    would silently truncate 2.7 to 2, and a string would be read as a list."""
    if isinstance(value, bool) or not isinstance(value, kind):
        shape = "an integer" if kind is int else "a list"
        raise ValueError(f"{what} must be {shape}, got {value!r}")
    return value


def parse_rule(data, lat: Lattice):
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError('rule file needs a "kind" field')
    kind = data["kind"]
    try:
        if kind == "committee":
            n = _typed(data["n"], int, "'n'")
            terms = []
            for term in _typed(data["terms"], list, "'terms'"):
                coalition = [_typed(v, int, "coalition voter")
                             for v in _typed(term["coalition"], list, "a coalition")]
                if any(v < 0 or v >= n for v in coalition):
                    raise FormatError(
                        f"coalition {coalition} references a voter outside 0..{n - 1}")
                terms.append((frozenset(coalition),
                              _element(lat, term["constant"])))
            return CommitteeRule(n, terms)
        if kind == "explicit":
            spaces = tuple(tuple(_element(lat, b) for b in _typed(s, list, "a ballot space"))
                           for s in _typed(data["ballot_spaces"], list, "'ballot_spaces'"))
            table = [_element(lat, v) for v in _typed(data["table"], list, "'table'")]
            return ExplicitRule(spaces, table)
        if kind == "tree":
            values = [_element(lat, v) for v in _typed(data["corners"], list, "'corners'")]
            return build_canonical_median_tree(values, _typed(data["n"], int, "'n'"))
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


# -- subcommands ----------------------------------------------------------------------


def _emit(args, payload, text):
    if args.json:
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
        elif args.kind == "topped":
            pool = enumerate_topped_preorders(lat, cap=args.cap)
        else:
            pool = enumerate_lsu(lat, cap=args.cap)
            if args.kind == "separable":
                # separable implies LSU: from y, any z between y and the top
                # is reached by adding good items and dropping bad ones, each
                # step a strict gain; so filtering LSU keeps the topped order
                pool = [p for p in pool if is_separable(p, lat)]
        payload = [serialize_preorder(p, lat) for p in pool]
        _emit(args, payload,
              "\n".join(json.dumps(entry) for entry in payload)
              + f"\n# {len(pool)} {args.kind} preorders")
        return 0
    prefs = parse_preorder_file(args.prefs, lat)
    rows = []
    hypercube = lat.is_boolean()
    for p in prefs:
        sep = is_separable(p, lat) if hypercube else None
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


def _first_mismatch(spaces, table, form, lat):
    """The first ballots, row-major over ``spaces``, where ``form`` differs
    from ``table``, or None where it replays the table."""
    _, form_table = tabulate(form, lat, spaces)
    if form_table == table:
        return None
    return next(ballots for ballots, a, b in zip(itertools.product(*spaces), table, form_table)
                if a != b)


def _cmd_rule(args):
    lat = parse_lattice_file(args.lattice)
    rule = parse_rule_file(args.rule, lat)
    if args.action == "eval":
        ballots = tuple(_element(lat, b) for b in args.ballots.split(","))
        print(lat.names[rule.evaluate(lat, ballots)])
        return 0
    if args.action == "convert":
        if args.to == "explicit":    # needs no corners: any ballot spaces will do
            converted = ExplicitRule(*tabulate(rule, lat))
        else:
            # refuse too many corners, then too large a table, before any is evaluated
            _check_corner_count(rule.n)
            spaces, table = tabulate(rule, lat)
            converted = build_canonical_median_tree(table_corners(spaces, table, lat), rule.n)
            if args.to == "committee":
                converted = tree_to_committee(converted, lat)
            ballots = _first_mismatch(spaces, table, converted, lat)
            if ballots is not None:
                raise NotRepresentableError(
                    f"at ballots {[lat.names[b] for b in ballots]} the rule gives "
                    f"{lat.names[rule.evaluate(lat, ballots)]} but its canonical {args.to} "
                    f"gives {lat.names[converted.evaluate(lat, ballots)]}; nothing written")
        out = serialize_rule(converted, lat)
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
    suite = args.action
    given = {param: value for param, value in vars(args).items()
             if param in ("lat", "n", "samples", "seed") and value is not None}
    if given.get("n", 1) < 1 or given.get("samples", 0) < 0:
        bounds = {"n": "--n >= 1", "samples": "--samples >= 0"}
        named = [bound for dest, bound in bounds.items() if dest in vars(args)]
        raise FormatError(f"verify {suite} needs {' and '.join(named)}")
    if "lat" in given:
        given["lat"] = parse_lattice_file(given["lat"])
    return suites.run_all(seed=given.pop("seed", 0),
                          suite=None if suite == "all" else suite, **given)


def _cmd_verify(args):
    reports = _suite_reports(args)
    total = sum(len(r.checks) for r in reports)
    failed = sum(len(r.failures()) for r in reports)
    summary = f"{len(reports)} suites, {total} checks, {failed} failures"
    _emit(args, [r.to_dict() for r in reports],
          "\n".join([r.render_text() for r in reports] + [summary]))
    return 0 if failed == 0 else 1


# -- argument parsing -------------------------------------------------------------------


_PATH = {"metavar": "PATH"}
_INPUT = {"required": True, **_PATH}
# command -> (handler, add_parser keywords, {action: {flag: add_argument
# keywords}}); an action declares exactly the flags its handler reads
_COMMANDS = {
    "lattice": (_cmd_lattice, {"help": "build or inspect a lattice file"}, dict.fromkeys(
        ("build", "inspect"), {"covers": _INPUT, "json": _PATH})),
    "prefs": (_cmd_prefs, {"help": "enumerate or check preorders"}, {
        "enum": {"lattice": _INPUT, "kind": {"default": "topped", "choices": (
                     "topped", "unimodal", "strict", "separable")},
                 "cap": {"type": int, "default": DEFAULT_ENUM_CAP}, "json": _PATH},
        "check": {"lattice": _INPUT, "prefs": _INPUT, "json": _PATH}}),
    "rule": (_cmd_rule, {"help": "evaluate, convert or check a rule"}, {
        "eval": {"rule": _INPUT, "lattice": _INPUT,
                 "ballots": {"required": True, "metavar": "CSV"}},
        "convert": {"rule": _INPUT, "lattice": _INPUT, "to": {
                        "required": True, "choices": ("committee", "tree", "explicit")},
                    "json": _PATH},
        "check": {"rule": _INPUT, "lattice": _INPUT, "semantics": {
                      "default": "truthful", "choices": ("truthful", "literal")},
                  "cap": {"type": int, "default": DEFAULT_EVAL_CAP}, "json": _PATH}}),
}
# verify's flags, each filling the suite parameter named by its dest
_SUITE_FLAGS = {
    "lattice": {"dest": "lat", "metavar": "PATH",
                "help": "lattice put into the entries (labels dropped)"},
    "n": {"dest": "n", "type": int, "help": "voter count put into the entries"},
    "samples": {"dest": "samples", "type": int,
                "help": "sampled rule count put into the entries"},
    "seed": {"dest": "seed", "type": int,
             "help": "seed put into the seeded entries (default 0)"},
}


@functools.cache
def _build_parser():
    """The one parser, built on first use.  A suite takes the flags that its
    function's signature names (``all``: ``suites.run_all``'s)."""
    suite_actions = {}
    for suite in SUITE_NAMES:
        function = suites.run_all if suite == "all" else suites.suite_function(suite)
        params = inspect.signature(function).parameters
        suite_actions[suite] = {flag: keywords for flag, keywords in _SUITE_FLAGS.items()
                                if keywords["dest"] in params} | {"json": _PATH}
    verify = (_cmd_verify, {"help": "run a verification suite", "description":
              "With no flag a suite runs its battery entries.  A flag puts its value "
              "into them; a flag the suite does not take exits 2, and 'all' takes "
              "only --seed and --json."}, suite_actions)
    parser = argparse.ArgumentParser(
        prog="medianvoting",
        description="Distributive-lattice voting workbench: build lattices, "
                    "enumerate single-peaked preference domains, evaluate and "
                    "convert voting rules, and run the verification suites.")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (handler, keywords, actions) in {**_COMMANDS, "verify": verify}.items():
        sub = commands.add_parser(command, **keywords).add_subparsers(
            dest="action", required=True)
        for action, flags in actions.items():
            p = sub.add_parser(action)
            for flag, flag_keywords in flags.items():
                p.add_argument(f"--{flag}", **flag_keywords)
            p.set_defaults(handler=handler)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            parser.error(f"{args.command} {args.action} does not take "
                         f"{' '.join(extra)}")
        return args.handler(args)
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


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
