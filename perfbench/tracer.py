"""Traced run: spans around each layer's public entry points.

The tracer patches the package from outside, with no change to ``src/``.
A function is replaced in every package module that imported it (its home
module, ``verify``, ``suites``, ``cli`` ...), and ``Lattice.__init__`` and
the lattice query methods are replaced on the class.  A name that no longer
exists is skipped, so the benchmark keeps running when a later change removes
an entry point.

Spans are kept in memory as ``[layer, start, end, parent, leaf_s, label]``.
A layer's self time is the span's duration minus its child spans and minus
the lattice queries made directly inside it (``leaf_s``).  Lattice queries
are too many to keep one span each: they are summed into ``query_s``, and
only queries issued by a suite or by the workload itself are counted.
Queries made inside another layer (the filter of a domain enumeration, a
rule evaluation in a tabulation) stay part of that layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

# (layer, home module, name): functions wrapped wherever they were imported.
FUNCTION_SPANS = (
    ("lattice.build", "lattice", "build_from_covers"),
    ("lattice.build", "lattice", "build_chain"),
    ("lattice.build", "lattice", "build_boolean_hypercube"),
    ("lattice.build", "lattice", "build_product"),
    ("lattice.build", "lattice", "build_ideal_lattice"),
    ("preorders.enum", "preorders", "enumerate_topped_preorders"),
    ("preorders.enum", "preorders", "enumerate_unimodal"),
    ("preorders.enum", "preorders", "enumerate_lsu"),
    ("rules.tabulate", "rules", "tabulate"),
    ("verify.monotonicity", "verify", "find_monotonicity_violation"),
    ("verify.strategy", "verify", "find_strategy_violation"),
    ("verify.coalition", "verify", "find_coalitional_manipulation"),
    ("verify.axioms", "verify", "check_axioms"),
    ("suites.quota_tables", "suites", "_quota_tables"),
    ("cli.parse", "cli", "parse_lattice_file"),
    ("cli.parse", "cli", "parse_rule_file"),
    ("cli.parse", "cli", "parse_preorder_file"),
    ("cli", "cli", "run"),
)
IMPORTERS = ("lattice", "preorders", "rules", "verify", "suites", "cli")
QUERY_METHODS = ("median", "between", "join", "meet", "interval_mask",
                 "rank_valuation")
REPORT_LAYER = "suites.report"
SUITE_NAMES = {"chain_equivalence": "corollary1",
               "boolean_square": "boolean-square"}
LATTICE_NICKNAMES = {(4, True): "chain4", (4, False): "square",
                     (8, False): "cube", (9, False): "grid3x3"}


def self_times(spans):
    """Self seconds per layer: each span's duration minus its children's
    durations and minus the lattice queries made directly inside it."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (layer, start, end, _, leaf, _) in enumerate(spans):
        out[layer] += end - start - covered[i] - leaf
    return out


def report_label(fn, args, kwargs):
    """A unique label for one suite report, from the suite and its lattice
    and voter count (the package repeats report names)."""
    base = fn.__name__
    base = SUITE_NAMES.get(base[:-len("_suite")], base[:-len("_suite")])
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return base
    bound.apply_defaults()
    params = bound.arguments
    parts = [base]
    lat = params.get("lat")
    if params.get("label"):
        parts.append(params["label"])
    elif lat is not None:
        chain = lat.is_chain() if hasattr(lat, "is_chain") else None
        parts.append(LATTICE_NICKNAMES.get((lat.m, chain), f"m{lat.m}"))
    if isinstance(params.get("n"), int):
        parts.append(f"n{params['n']}")
    return "-".join(parts)


def _count_build(tracer, args, kwargs, result):
    tracer.counts["lattice.builds"] += 1
    tracer.counts["lattice.elements_built"] += args[0].m


def _count_enum(tracer, args, kwargs, result):
    tracer.counts["preorders.domain_size"] += len(result)


def _count_cells(tracer, args, kwargs, result):
    tracer.counts["rules.cells"] += len(result[1])


def _count_witness(tracer, args, kwargs, result):
    tracer.counts["verify.coalition_witnesses"] += result is not None


HOOKS = {"preorders.enum": _count_enum, "rules.tabulate": _count_cells,
         "verify.coalition": _count_witness}


class Tracer:
    """Spans and counts for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.query_s = 0.0
        self.query_ctx = True
        self._restore = []

    # -- spans -----------------------------------------------------------

    def call(self, layer, fn, args, kwargs, hook=None, label_of=None,
             hook_nested=False):
        stack = self.stack
        parent = stack[-1] if stack else None
        outermost = parent is None or self.spans[parent][0] != layer
        rec = [layer, 0.0, 0.0, parent, 0.0, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        saved_ctx = self.query_ctx
        self.query_ctx = layer.startswith("suites.")
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
            self.query_ctx = saved_ctx
        if outermost:
            self.counts[layer + "_calls"] += 1
        if hook is not None and (outermost or hook_nested):
            hook(self, args, kwargs, result)
        if label_of is not None:
            rec[5] = label_of(fn, args, kwargs)
        return result

    def span(self, layer, fn, hook=None, label_of=None, hook_nested=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, hook, label_of,
                               hook_nested)
        return traced

    def query(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.query_ctx:
                return fn(*args, **kwargs)
            tracer.query_ctx = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                tracer.query_ctx = True
                tracer.query_s += spent
                tracer.counts["lattice.queries"] += 1
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][4] += spent
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, modules):
        """Patch the package; ``modules`` maps short names to modules."""
        for layer, home, name in FUNCTION_SPANS:
            original = getattr(modules.get(home), name, None)
            if original is None:
                continue
            wrapper = self.span(layer, original, HOOKS.get(layer))
            for importer in IMPORTERS:
                module = modules.get(importer)
                if module is not None and module.__dict__.get(name) is original:
                    self._set(module, name, wrapper)
        suites = modules.get("suites")
        if suites is not None:
            for name, fn in list(vars(suites).items()):
                if name.endswith("_suite") and callable(fn):
                    self._set(suites, name, self.span(
                        REPORT_LAYER, fn, label_of=report_label))
        lattice_cls = getattr(modules.get("lattice"), "Lattice", None)
        own = vars(lattice_cls) if lattice_cls is not None else {}
        if "__init__" in own:
            self._set(lattice_cls, "__init__", self.span(
                "lattice.build", own["__init__"], _count_build, hook_nested=True))
        for name in QUERY_METHODS:
            if name in own:
                self._set(lattice_cls, name, self.query(own[name]))

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- results -------------------------------------------------------------

    def layer_seconds(self):
        """Self seconds per layer, lattice queries included."""
        out = self_times(self.spans)
        out["lattice.query"] += self.query_s
        return out

    def report_seconds(self):
        """Inclusive seconds per labelled suite report (outermost reports)."""
        out = defaultdict(float)
        for layer, start, end, parent, _, label in self.spans:
            if layer == REPORT_LAYER and (
                    parent is None or self.spans[parent][0] != REPORT_LAYER):
                out[label] += end - start
        return out
