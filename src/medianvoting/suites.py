"""Verification suites over the workbench's headline facts.

Each suite re-derives one cluster of results by exhaustive computation and
returns a ``VerificationReport``: betweenness/median axioms, the equivalence
of interval monotonicity with strategy-proofness on both single-peaked
domains, median closure of monotone rules, the representation round-trips,
the strategy-proof-but-coalitionally-manipulable constructions, the
anonymous-rule impossibility, the chain equivalence, and the Boolean-square
golden values.
"""

from __future__ import annotations

import itertools
import operator
import random
import time

from .errors import (InvalidSizeError, NoSuitableSublatticeError, NotAChainError,
                     NotALatticeError, NotEnoughAtomsError)
from .lattice import (Lattice, _bits, build_boolean_hypercube, build_chain,
                      build_from_covers, build_product)
from .preorders import (
    DEFAULT_ENUM_CAP,
    _ranked,
    enumerate_lsu,
    enumerate_topped_preorders,
    enumerate_unimodal,
    is_locally_strictly_unimodal,
    is_separable,
    is_unimodal,
)
from .rules import (
    CodeLanes,
    ExplicitRule,
    _held_by,
    build_canonical_median_tree,
    check_full_table_size,
    committee_from_corners,
    extended_median,
    extended_median_rule,
    full_spaces,
    table_corners,
    tabulate,
)
from .verify import (
    DEFAULT_EVAL_CAP,
    CheckResult,
    DomainDescriptor,
    ManipulationWitness,
    VerificationReport,
    _check_sweep_size,
    check_coalition_search_size,
    find_coalitional_manipulation,
    find_local_neutrality_violation,
    find_local_sovereignty_gap,
    find_monotonicity_violation,
    find_strategy_violation,
    check_axioms,
    random_explicit_rule,
    sample_monotone_rule,
    strategy_witness_from,
)


def _finish(name, checks, t0):
    return VerificationReport(name, checks, (time.perf_counter() - t0) * 1000.0)


def _names(lat, elements):
    return [lat.names[e] for e in elements]


# -- betweenness and median axioms -----------------------------------------------------


_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: bytes) -> int:
    """The bitmask whose bit i is ``flags[i]``, for a string of 0/1 bytes."""
    return int(flags[::-1].translate(_ASCII_BITS), 2)


def claim1_suite(lat: Lattice, label: str = "") -> VerificationReport:
    """Exhaustive betweenness axioms, median laws, and the metric picture.

    Each check reports the first tuple in ``itertools.product`` order that
    fails, by element names.  The scans read tables built once: ``between``
    is asked once per triple (x, z, y), and its answers are kept as
    bitmasks over one coordinate with the other two fixed (``last``,
    ``mid``, ``first``); ``median`` is asked once per triple into ``med``,
    with its byte rows ``flat[u]`` (med(u, d, e) over (d, e)) and
    ``gather[u*m + v]`` (med(u, b, v) over b); the rank distance is one
    m x m table.  A triple scan walks its two leading coordinates in
    product order and reads the failing mask over the third, so its first
    witness is the lowest set bit of the first nonzero mask, the tuple the
    naive loop would stop at.  Convexity ANDs each interval(u, v) mask with
    the complement of {z : between(x, z, y)}, in the same (x, y, u, v)
    order.  Redistribution compares, per (a, c), the m^3 bytes
    med(med(a, b, c), d, e) with med(med(a, d, e), b, med(c, d, e)) over
    (d, e, b): the left side is m slices of ``flat``, the right side one
    join of ``gather`` rows.  Ids fit in a byte, as the cap admits only
    m <= 39.  Only the first failing a is rescanned tuple by tuple, so its
    witness is still the first in product order.  The m^5 scan is refused
    beyond the evaluation cap before any table is built.  A code
    assignment that breaks the rank valuation fails the geodesic check
    with the valuation's witness pair instead of raising."""
    t0 = time.perf_counter()
    m = lat.m
    _check_sweep_size("claim1", m ** 5, DEFAULT_EVAL_CAP)
    rng = range(m)
    sq = m * m
    checks = []

    def add(claim, witness):
        if witness is not None:
            witness = _names(lat, witness)
        checks.append(CheckResult(claim, witness is None,
                                  witness=witness, detail=f"{m} elements"))

    def first_set(rows):
        """(i // m, i % m, lowest set bit) of the first nonzero ``rows[i]``."""
        for i, row in enumerate(rows):
            if row:
                return (*divmod(i, m), (row & -row).bit_length() - 1)
        return None

    def tuples(k):
        return itertools.product(rng, repeat=k)

    # btw[(x*m + z)*m + y] = between(x, z, y)
    btw = bytes(lat.between(x, z, y) for x, z, y in tuples(3))
    last = [_mask(btw[i * m:i * m + m]) for i in range(sq)]    # [x*m + z]: y
    mid = [_mask(btw[x * sq + y:x * sq + sq:m]) for x, y in tuples(2)]    # [x*m + y]: z
    first = [_mask(btw[i::sq]) for i in range(sq)]    # [z*m + y]: x
    add("betweenness-symmetry",
        first_set([last[x * m + z] & ~first[z * m + x] for x, z in tuples(2)]))
    add("betweenness-closure", next(
        ((x, y) for x, y in tuples(2) if not last[x * m + x] >> y & last[x * m + y] >> y & 1),
        None))
    add("betweenness-idempotence", next(
        ((x, y) for x, y in tuples(2) if last[x * m + y] >> x & 1 and y != x), None))
    interval = [lat.interval_mask(u, v) for u, v in tuples(2)]
    add("betweenness-convexity", next(
        ((x, u, v, (bad & -bad).bit_length() - 1, y) for x, y in tuples(2)
         for outside in [~mid[x * m + y]]
         for u, v in itertools.product(_bits(interval[x * m + y]), repeat=2)
         for bad in [interval[u * m + v] & outside] if bad), None))
    add("betweenness-antisymmetry",
        first_set([last[x * m + y] & last[y * m + x] if x != y else 0
                   for x, y in tuples(2)]))

    med = [[[lat.median(a, b, c) for c in rng] for b in rng] for a in rng]
    rows = [bytes(row) for plane in med for row in plane]    # [a*m + b]: c
    flat = [b"".join(rows[u * m:u * m + m]) for u in rng]    # [u]: (d, e)
    gather = [flat[u][v::m] for u, v in tuples(2)]    # [u*m + v]: b
    add("median-absorbs-bounds",
        next(((a,) for a in rng if med[lat.bottom][a][lat.top] != a), None))
    add("median-majority-of-repeats",
        next(((a, b) for a, b in tuples(2) if med[a][b][a] != a), None))
    add("median-symmetry", next(
        ((a, b, c) for a, b in tuples(2)
         if not rows[a * m + b] == rows[b * m + a] == gather[b * m + a]
         for c in rng if not med[a][b][c] == med[b][a][c] == med[b][c][a]), None))

    def redistribution():
        scaled = [[m * e for e in flat[a]] for a in rng]    # m*med(a, d, e)
        lhs = bytearray(m ** 3)
        for a, c in tuples(2):
            for b in rng:
                lhs[b::m] = flat[med[a][b][c]]
            pair = map(operator.add, scaled[a], flat[c])
            if lhs != b"".join(map(gather.__getitem__, pair)):
                return next((a, b, c, d, e) for b, c, d, e in tuples(4)
                            if med[med[a][b][c]][d][e] != med[med[a][d][e]][b][med[c][d][e]])
        return None

    add("median-redistribution", redistribution())
    marks = [bytes(z) + b"\1" + bytes(255 - z) for z in rng]    # byte z -> 1, else 0
    add("median-defines-betweenness",
        first_set([last[x * m + z] ^ _mask(gather[x * m + z].translate(marks[z]))
                   for x, z in tuples(2)]))
    add("join-meet-are-medians", next(
        ((a, b) for a, b in tuples(2)
         if med[a][b][lat.top] != lat.join(a, b) or med[a][b][lat.bottom] != lat.meet(a, b)),
        None))
    try:
        distance = lat.rank_valuation().distance
    except NotALatticeError as error:
        checks.append(CheckResult("valuation-metric-geodesics", False,
                                  _names(lat, error.witness), str(error)))
    else:
        dist = [[distance(x, y) for y in rng] for x in rng]
        add("valuation-metric-geodesics",
            first_set([last[x * m + y] ^ sum(1 << z for z in rng
                                             if dist[x][z] == dist[x][y] + dist[y][z])
                       for x, y in tuples(2)]))

    name = f"claim1:{label}" if label else "claim1"
    return _finish(name, checks, t0)


# -- monotonicity <-> strategy-proofness, and representations -----------------------------


def _full_domains(lat, n):
    """The full unimodal and full LSU domains of n voters, in that order."""
    return DomainDescriptor.full_unimodal(lat, n), DomainDescriptor.full_lsu(lat, n)


def _rule_pool(lat, n, samples, seed):
    """``samples`` random tables, then the projections and the constants;
    more than the evaluation cap of sampled cells are refused first."""
    _check_sweep_size("sampled-rule", samples * check_full_table_size(lat.m, n),
                      DEFAULT_EVAL_CAP)
    rng = random.Random(seed)
    pool = [("random", random_explicit_rule(lat, n, rng)) for _ in range(samples)]
    pool += [("projection", ExplicitRule.from_function(
        full_spaces(lat, n), lambda b, i=i: b[i])) for i in range(n)]
    pool += [("constant", ExplicitRule.from_function(
        full_spaces(lat, n), lambda b, c=c: c)) for c in range(lat.m)]
    return pool


def _roundtrips_exact(rule, lat):
    """Whether the median-tree and committee normal forms replay the table.

    Both forms are built from the corner cells of the rule's one table
    (``table_corners``).  Where the tree replays the table its corners are
    the table's, so its committee form (``tree_to_committee``) is the
    committee of those same values, built without folding the tree again.
    Each form's table is compared whole; no mismatching ballots are named.
    """
    spaces, table = tabulate(rule, lat)
    values = table_corners(spaces, table, lat)
    if tabulate(build_canonical_median_tree(values, rule.n), lat, spaces)[1] != table:
        return False, False
    return True, tabulate(committee_from_corners(values, rule.n), lat, spaces)[1] == table


def _strategy_proof(rule, violation, domain):
    """Strategy-proofness on a full single-peaked domain, given the rule's
    first monotonicity violation (None when monotone).  A violation must
    convert into a valid strategy witness whose preference is in the domain
    (Lemma 1's construction); a monotone rule is swept."""
    if violation is None:
        return find_strategy_violation(rule, domain) is None
    witness = strategy_witness_from(violation, domain)
    return not (witness.validate(rule, domain.lattice)
                and domain.holds(witness.voter, witness.preference))


def _monotone_and_sp(rule, lat, domains):
    """(monotone, strategy-proof on the unimodal domain, on the strict one)."""
    violation = find_monotonicity_violation(rule, lat)
    dom_u, dom_s = domains
    return (violation is None, _strategy_proof(rule, violation, dom_u),
            _strategy_proof(rule, violation, dom_s))


def _monotone_iff(pool, flags, keys, what):
    """One ``monotone-iff-<key>`` check per key: ``flags(rule)`` gives
    monotonicity and then one flag per key, and a check's witness is the
    kind of the first rule in ``pool`` whose flag differs from monotonicity."""
    offender = dict.fromkeys(keys)
    monotone_count = 0
    for kind, rule in pool:
        monotone, *values = flags(rule)
        monotone_count += monotone
        for key, value in zip(keys, values):
            if value != monotone and offender[key] is None:
                offender[key] = kind
    detail = f"{len(pool)} {what}, {monotone_count} monotone"
    return [CheckResult(f"monotone-iff-{key}", bad is None, bad, detail)
            for key, bad in offender.items()]


def lemma1_suite(lat: Lattice, n: int = 2, samples: int = 120,
                 seed: int = 0) -> VerificationReport:
    """Interval monotonicity iff strategy-proofness, on both full domains.

    "Not monotone implies not strategy-proof" is proved by construction: each
    monotonicity violation is converted into a validated strategy witness.
    "Monotone implies strategy-proof" is proved by an exhaustive sweep.
    """
    t0 = time.perf_counter()
    pool = _rule_pool(lat, n, samples, seed)    # refuses an oversized table first
    domains = _full_domains(lat, n)
    checks = _monotone_iff(pool, lambda rule: _monotone_and_sp(rule, lat, domains),
                           ("sp-on-unimodal", "sp-on-strict"), "rules")
    return _finish("lemma1", checks, t0)


def lemma2_suite(lat: Lattice, n: int = 3, label: str = "") -> VerificationReport:
    """Pointwise medians of monotone rules stay monotone.

    The base rules (the projections, the constants and the extended median)
    are packed once as ``CodeLanes`` ints, where the pointwise median of
    three tables is ``fa&fb | fb&fc | fa&fc`` on whole ints.  Each triple's
    mix is deduplicated on its int (med(a, a, b) = a: most mixes repeat) and
    swept as one; only a failing mix is decoded, to name its witness.
    """
    t0 = time.perf_counter()
    check_full_table_size(lat.m, n)    # before the n-entry spaces are built
    _check_sweep_size("monotonicity", lat.m ** (n + 1) * n, DEFAULT_EVAL_CAP)    # and any table
    lanes = CodeLanes.of(lat, full_spaces(lat, n))
    pool = [lanes.ballots(i) for i in range(n)]
    pool += [lanes.constant(lane) for lane in lanes.lane]
    pool.append(lanes.pack(tabulate(extended_median_rule(lat, n), lat)[1]))
    witness = None
    tested = 0
    swept = set()
    for fa, fb, fc in itertools.combinations_with_replacement(pool, 3):
        mixed = fa & fb | fb & fc | fa & fc
        tested += 1
        if mixed in swept:
            continue
        swept.add(mixed)
        if lanes.first_failure(mixed) is not None:
            rule = ExplicitRule(lanes.spaces, lanes.decode(mixed))
            witness = find_monotonicity_violation(rule, lat).describe(lat)
            break
    checks = [CheckResult("median-of-monotone-rules-is-monotone",
                          witness is None, witness,
                          f"{tested} rule triples, {len(pool)} base rules")]
    name = f"lemma2:{label}" if label else "lemma2"
    return _finish(name, checks, t0)


def _blocked_pair_rule():
    """The four-chain rule that freezes a blocked ballot pair: on ballots
    restricted to the ends of the chain's middle segment it returns interior
    elements crosswise, which breaks interval monotonicity."""
    chain = chain4()
    a, b, c, d = (chain.element(s) for s in "abcd")
    value = _corner_rule((a, b, c, d))

    def clamp(e):
        return a if chain.leq(e, b) else d

    full = ExplicitRule.from_function(
        full_spaces(chain, 2), lambda ballots: value[(clamp(ballots[0]), clamp(ballots[1]))])
    return chain, full


# voter counts up to which theorem1 sweeps every quota rule
QUOTA_MAX_N = 3


def theorem1_suite(lat: Lattice, n: int = 2, samples: int = 200,
                   seed: int = 0) -> VerificationReport:
    """Five-way equivalence sweep: monotonicity, strategy-proofness on both
    domains, median-tree representability, committee representability.

    Strategy-proofness follows ``lemma1_suite``: a rule with a monotonicity
    violation is shown not strategy-proof by a constructed and validated
    strategy witness, and a monotone rule by an exhaustive sweep.  The quota
    rules start from ``_quota_tables``' code-space tables, so their tree and
    committee round-trips rebuild both forms from tables no committee built.
    """
    t0 = time.perf_counter()
    pool = _rule_pool(lat, n, samples, seed)    # refuses an oversized table first
    domains = _full_domains(lat, n)
    checks = _monotone_iff(
        pool, lambda rule: _monotone_and_sp(rule, lat, domains) + _roundtrips_exact(rule, lat),
        ("sp-unimodal", "sp-strict", "tree-form", "committee-form"), "sampled rules")

    quota_bad = None
    quota_count = 0
    for nn in range(1, QUOTA_MAX_N + 1):
        quota_domains = _full_domains(lat, nn)
        for constants, table in _quota_tables(lat, nn):
            quota_count += 1
            rule = ExplicitRule(full_spaces(lat, nn), table)
            results = (_monotone_and_sp(rule, lat, quota_domains)
                       + _roundtrips_exact(rule, lat))
            if not all(results):
                quota_bad = {"n": nn, "constants": _names(lat, constants),
                             "results": results}
                break
        if quota_bad:
            break
    checks.append(CheckResult("quota-rules-satisfy-all-five", quota_bad is None,
                              quota_bad, f"{quota_count} quota rules, n <= {QUOTA_MAX_N}"))

    chain, blocked = _blocked_pair_rule()
    flags = (_monotone_and_sp(blocked, chain, _full_domains(chain, 2))
             + _roundtrips_exact(blocked, chain))
    checks.append(CheckResult("blocked-pair-rule-fails-all-five",
                              not any(flags), flags,
                              "crosswise four-chain rule on full ballot spaces"))
    return _finish("theorem1", checks, t0)


# -- strategy-proof but coalitionally manipulable -------------------------------------------


_CORNER_TABLE = {
    ("a", "a"): "a", ("a", "b"): "b", ("a", "c"): "a", ("a", "d"): "b",
    ("b", "a"): "a", ("b", "b"): "b", ("b", "c"): "a", ("b", "d"): "b",
    ("c", "a"): "c", ("c", "b"): "d", ("c", "c"): "c", ("c", "d"): "d",
    ("d", "a"): "c", ("d", "b"): "d", ("d", "c"): "c", ("d", "d"): "d",
}


def _corner_rule(elements):
    """``_CORNER_TABLE`` with its letters a, b, c, d mapped onto ``elements``,
    as {(ballot, ballot): outcome}."""
    id_of = dict(zip("abcd", elements))
    return {(id_of[u], id_of[v]): id_of[o] for (u, v), o in _CORNER_TABLE.items()}


def _four_chain_labels(lat):
    """Lexicographically first four-element cover path, labelled bottom-up."""
    for z0 in range(lat.m):
        for z1 in lat.upper_covers(z0):
            for z2 in lat.upper_covers(z1):
                for z3 in lat.upper_covers(z2):
                    return z0, z1, z2, z3
    return None


def _diamond_labels(lat):
    """First incomparable pair with its meet and join: (meet, u, v, join)."""
    for u in range(lat.m):
        for v in range(u + 1, lat.m):
            if not lat.comparable(u, v):
                return lat.meet(u, v), u, v, lat.join(u, v)
    return None


def _dummy_pool(lat):
    if lat.m <= DEFAULT_ENUM_CAP:
        return enumerate_unimodal(lat)
    # indifference-except-top preorders; always unimodal, keeps big carriers cheap
    return [_ranked(lat, [[t]]) for t in range(lat.m)]


def _sp_yet_manipulable(rule, lat, domains, name, scope=""):
    """Checks that ``rule`` is strategy-proof on both ``domains`` (unimodal,
    then strict) and that each has a validated coalition witness.
    Strategy-proofness is swept, as ``strategy_witness_from`` takes only
    full domains."""
    checks = [CheckResult(f"{name}-sp-on-{tag}{scope}",
                          find_strategy_violation(rule, dom) is None)
              for tag, dom in zip(("unimodal", "strict"), domains)]
    for tag, dom in zip(("unimodal", "strict"), domains):
        witness = find_coalitional_manipulation(rule, dom)
        good = witness is not None and witness.validate(rule, lat)
        checks.append(CheckResult(
            f"{name}-coalition-witness-{tag}", good,
            None if good else "no witness",
            str(witness.describe(lat)) if witness else ""))
    return checks


def theorem2_suite(lat: Lattice, label: str = "") -> VerificationReport:
    """Constructions that are strategy-proof yet coalitionally manipulable:
    a restricted two-ballot rule over a blocked pair, and (off chains) the
    diamond-sublattice rule built from its corner values.

    There is no construction-failure check: a distributive lattice with at
    least four elements and no four-element cover path has height 2, so it
    is the Boolean square, whose two atoms form a diamond.  Every carrier
    the suite accepts therefore has one labelling or the other.  A
    ``label`` names the report ``theorem2:<label>``."""
    t0 = time.perf_counter()
    name = f"theorem2:{label}" if label else "theorem2"
    if lat.m < 4:
        raise NoSuitableSublatticeError("need at least four elements")
    checks = []

    chain_labels = _four_chain_labels(lat)
    if chain_labels is not None:
        a, b, d, c = chain_labels    # chain a < b < d < c
    else:    # height 2, so the square (see above)
        d, b, c, a = _diamond_labels(lat)    # bottom, the two incomparables, their join
    table4 = _corner_rule((a, b, c, d))

    pair = tuple(sorted((a, d)))
    carrier = tuple(range(lat.m))
    restricted = ExplicitRule.from_function(
        (pair, pair, carrier), lambda ballots: table4[(ballots[0], ballots[1])])

    p_top_a = _ranked(lat, [[a], [b]])
    p_top_d = _ranked(lat, [[d], [b]])
    q_top_a = _ranked(lat, [[a], [b], [c]])
    q_top_d = _ranked(lat, [[d], [b], [c]])
    pool = _dummy_pool(lat)
    domains = [DomainDescriptor(lat, (pair, pair, carrier), (tops, tops, pool))
               for tops in ((p_top_a, p_top_d), (q_top_a, q_top_d))]

    checks.append(CheckResult(
        "restricted-subdomain-preferences-unimodal",
        is_unimodal(p_top_a, lat) and is_unimodal(p_top_d, lat),
        detail=f"pair ballots {{{lat.names[a]}, {lat.names[d]}}}"))
    violation = find_monotonicity_violation(restricted, lat)
    if chain_labels is not None:
        # on a chain host the crosswise values land outside [d, a]
        checks.append(CheckResult(
            "restricted-rule-not-interval-monotone", violation is not None,
            None if violation else "no violation",
            "" if violation is None else str(violation.describe(lat))))
    else:
        checks.append(CheckResult(
            "restricted-rule-interval-monotone", violation is None,
            violation.describe(lat) if violation else None,
            "diamond host: the corner rule restricts a monotone rule"))
    checks += _sp_yet_manipulable(restricted, lat, domains, "restricted-rule", "-subdomain")

    if lat.is_chain():
        checks.append(CheckResult(
            "diamond-rule", True,
            detail="chain carrier: coalition equivalence holds, construction exempt"))
        return _finish(name, checks, t0)

    dd, bb, cc, aa = _diamond_labels(lat)
    sub = lat.sublattice([dd, bb, cc, aa])
    sa, sb, sc, sd = (sub.element(lat.names[e]) for e in (aa, bb, cc, dd))
    tree = build_canonical_median_tree([sd, sc, sb, sa], 2)
    table_ok = all(tree.evaluate(sub, cell) == out
                   for cell, out in _corner_rule((sa, sb, sc, sd)).items())
    checks.append(CheckResult(
        "diamond-rule-table-matches-corner-expansion", table_ok,
        detail=f"sublattice {{{', '.join(sub.names)}}}"))
    checks.append(CheckResult(
        "diamond-rule-interval-monotone",
        find_monotonicity_violation(tree, sub) is None))
    checks += _sp_yet_manipulable(tree, sub, _full_domains(sub, 2), "diamond-rule")
    return _finish(name, checks, t0)


# -- impossibility for anonymous rules --------------------------------------------------------


def nondecreasing_tuples(lat: Lattice, length: int):
    """All lattice-order-nondecreasing tuples over the carrier, lexicographic."""
    out = [()]
    for _ in range(length):
        out = [t + (e,) for t in out for e in range(lat.m) if not t or lat.leq(t[-1], e)]
    return out


def _quota_tables(lat, n):
    """(constants, full table) per quota rule, all built on ``CodeLanes``.

    A quota rule joins, for each coalition size s, the constant c_s met with
    the meet of every size-s coalition's ballots; its constants are
    nondecreasing in s, the empty coalition first.  This is the program's
    one quota-rule generator: ``theorem1_suite``, ``theorem3_suite`` and
    ``chain_equivalence_suite`` wrap its tables as ``ExplicitRule``s.

    On lanes, E[s] is the join over size-s coalitions of their meet on every
    profile at once: ``rules._held_by``, the recurrence ``extended_median``
    runs per profile, on the voters' ballot lanes (``CodeLanes.ballots``)
    with the top's constant table as E[0].  A rule's table is then
    ``c_0 | OR_s (E[s] & c_s)`` with each c_s a constant table
    (``CodeLanes.constant``), decoded once to element ids (``CodeLanes.decode``).
    """
    check_full_table_size(lat.m, n)
    lanes = CodeLanes.of(lat, full_spaces(lat, n))
    constant = [lanes.constant(lane) for lane in lanes.lane]
    best = _held_by(map(lanes.ballots, range(n)), constant[lat.top], n)
    out = []
    for vector in nondecreasing_tuples(lat, n + 1):
        table = constant[vector[0]]
        for held, c in zip(best[1:], vector[1:]):
            table |= held & constant[c]
        out.append((vector, lanes.decode(table)))
    return out


def _targeted_prefs(lat, x, z, low, domain):
    """The impossibility proof's first, second and third preferences: the
    atom x or z on top, then the coalition's target, bottom when the quota
    is at most half the voters (``low``) and x|z otherwise."""
    bottom, xz = lat.bottom, lat.join(x, z)
    near, far = (bottom, xz) if low else (xz, bottom)
    if domain == "unimodal":
        orders = ([x, near], [z, near], [bottom])
    else:
        orders = ([x, near, far, z], [z, near, far, x], [bottom, x, z, xz])
    return tuple(_ranked(lat, [[e] for e in order]) for order in orders)


def _targeted_witness(lat, rule, n, q, x, z, domain):
    """Try the proof's profile and joint deviation; None when inapplicable."""
    low = 2 * q <= n
    first, second, third = _targeted_prefs(lat, x, z, low, domain)
    valid = (is_unimodal if domain == "unimodal" else is_locally_strictly_unimodal)
    if not all(valid(p, lat) for p in (first, second, third)):
        return None
    # n//2 firsts, then seconds, then at most one third; every voter but
    # the third joins the coalition and votes the target.  A majority quota
    # of all n voters (n = 2) takes no third: one voter cannot move the meet
    thirds = 0 if (low and n % 2 == 0) or q == n // 2 + 1 == n else 1
    profile = ((first,) * (n // 2) + (second,) * (n - n // 2 - thirds)
               + (third,) * thirds)
    coalition = tuple(range(n - thirds))
    deviation = (lat.bottom if low else lat.join(x, z),) * len(coalition)
    tops = tuple(p.top for p in profile)
    context = tops[len(coalition):]
    witness = ManipulationWitness(
        profile=profile, coalition=coalition, context_ballots=context,
        deviation=deviation, outcome_truthful=rule.evaluate(lat, tops),
        outcome_deviant=rule.evaluate(lat, deviation + context))
    return witness if witness.validate(rule, lat) else None


def _quota_threshold(lat, constants, target):
    """The least s >= 1 with ``target`` <= c_s, or None.  With s voters at a
    join-irreducible x and the rest at bottom, a quota rule gives
    c_0 | (c_s & x), and x lies below that iff x <= c_s, because c_0 <= c_s."""
    return next((s for s in range(1, len(constants))
                 if lat.leq(target, constants[s])), None)


def theorem3_suite(lat: Lattice, n: int = 5) -> VerificationReport:
    """No anonymous quota rule that is locally sovereign and neutral on the
    four-element sublattice over two atoms survives the coalition search.

    One voter needs no check: the only such rule is then the identity, a
    dictatorship no coalition can manipulate, so n < 2 is refused."""
    t0 = time.perf_counter()
    if n < 2:
        raise InvalidSizeError(f"theorem3 needs n >= 2 voters, got n = {n}")
    atoms = sorted(lat.atoms)
    if len(atoms) < 2:
        raise NotEnoughAtomsError("need at least two atoms")
    x, z = atoms[:2]
    xz = lat.join(x, z)
    local = [lat.bottom, x, z, xz]

    survivors = []
    total = 0
    for constants, table in _quota_tables(lat, n):
        total += 1
        if (find_local_sovereignty_gap(table, lat, local, n) is None
                and find_local_neutrality_violation(table, lat, local, n) is None):
            survivors.append((constants, ExplicitRule(full_spaces(lat, n), table)))

    checks = [CheckResult(
        "quota-enumeration",
        bool(survivors),
        detail=f"{total} quota rules, {len(survivors)} locally sovereign+neutral "
               f"on {{{', '.join(_names(lat, local))}}}")]

    majority, domains = n // 2 + 1, None
    for constants, rule in survivors:
        q = _quota_threshold(lat, constants, xz)
        tag = f"q{q}" if q is not None else "q-none"
        for strict, domain in enumerate(("unimodal", "strict")):
            witness = None
            how = "targeted-profile"
            if q is not None:
                witness = _targeted_witness(lat, rule, n, q, x, z, domain)
            if witness is None:
                how = "fallback-search"
                domains = domains or _full_domains(lat, n)    # built once, lanes shared
                witness = find_coalitional_manipulation(rule, domains[strict])
            found = witness is not None and witness.validate(rule, lat)
            must_be_targeted = q == majority
            passed = found and (how == "targeted-profile" or not must_be_targeted)
            checks.append(CheckResult(
                f"{tag}-manipulable-{domain}", passed,
                None if passed else "no witness or fallback needed at majority quota",
                f"{how}; constants {_names(lat, constants)}"
                + (f"; {witness.describe(lat)}" if witness else "")))
    return _finish(f"theorem3:n{n}", checks, t0)


# -- chains: individual and coalitional strategy-proofness coincide ----------------------------


def chain_equivalence_suite(lat: Lattice, n: int = 2, samples: int = 100,
                            seed: int = 0) -> VerificationReport:
    """On a chain, no monotone rule admits any coalition manipulation."""
    t0 = time.perf_counter()
    if not lat.is_chain():
        raise NotAChainError("carrier is not a chain")
    size = check_full_table_size(lat.m, n)    # before the n-voter domains are built
    domains = _full_domains(lat, n)
    for dom in domains:    # refuse an oversized search before any table
        check_coalition_search_size(dom)
    _check_sweep_size("sampled-rule", samples * size, DEFAULT_EVAL_CAP)
    rng = random.Random(seed)
    pool = [(f"quota{_names(lat, constants)}", ExplicitRule(full_spaces(lat, n), table))
            for constants, table in _quota_tables(lat, n)]
    pool += [(f"sampled-{i}", sample_monotone_rule(lat, n, rng))
             for i in range(samples)]
    not_monotone = None
    witnesses = {"unimodal": None, "strict": None}
    for tag, rule in pool:
        if find_monotonicity_violation(rule, lat) is not None:
            not_monotone = tag
            break
        for domain, dom in zip(witnesses, domains):
            if witnesses[domain] is None:
                found = find_coalitional_manipulation(rule, dom)
                if found is not None:
                    witnesses[domain] = {"rule": tag, **found.describe(lat)}
    detail = f"{len(pool)} monotone rules, n={n}"
    checks = [CheckResult("pool-is-interval-monotone", not_monotone is None,
                          not_monotone, detail)]
    for domain in ("unimodal", "strict"):
        checks.append(CheckResult(
            f"no-coalition-witness-{domain}", witnesses[domain] is None,
            witnesses[domain], detail))
    return _finish(f"corollary1:n{n}", checks, t0)


# -- the Boolean-square walkthrough ------------------------------------------------------------


_SQUARE_BETWEENNESS = [
    ("0", "x", "1"), ("0", "y", "1"), ("0", "0", "1"), ("0", "1", "1"),
    ("1", "x", "0"), ("1", "y", "0"), ("1", "0", "0"), ("1", "1", "0"),
    ("x", "0", "y"), ("x", "1", "y"), ("x", "x", "y"), ("x", "y", "y"),
    ("y", "0", "x"), ("y", "1", "x"), ("y", "x", "x"), ("y", "y", "x"),
    ("0", "0", "x"), ("0", "x", "x"), ("x", "0", "0"), ("x", "x", "0"),
    ("0", "0", "y"), ("0", "y", "y"), ("y", "0", "0"), ("y", "y", "0"),
    ("x", "x", "1"), ("x", "1", "1"), ("1", "x", "x"), ("1", "1", "x"),
    ("y", "y", "1"), ("y", "1", "1"), ("1", "y", "y"), ("1", "1", "y"),
]


def boolean_square() -> Lattice:
    return build_from_covers(["0", "x", "y", "1"],
                             [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])


def chain4() -> Lattice:
    """The four-element chain a < b < d < c."""
    return build_from_covers(["a", "b", "d", "c"],
                             [("a", "b"), ("b", "d"), ("d", "c")])


def square_templates(lat: Lattice, strict: bool):
    """The twelve single-peaked preorders of each family, three per top."""
    out = set()
    for top in range(lat.m):
        anti = lat.complement(top)
        b, b2 = sorted(set(range(lat.m)) - {top, anti})
        for middle in ([[b], [b2]], [[b2], [b]], [[b, b2]]):
            # strict: the complement ranks alone, last; otherwise it ties
            # with the last middle class in _ranked's leftover class
            out.add(_ranked(lat, [[top], *middle, [anti]] if strict
                            else [[top], *middle[:-1]]))
    return out


def _support(lat, ballots, med):
    """How many ballots lie below ``med``, and how many above it."""
    return (sum(lat.leq(v, med) for v in ballots),
            sum(lat.leq(med, v) for v in ballots))


def boolean_square_suite() -> VerificationReport:
    """Golden values for the four-element Boolean square walkthrough."""
    t0 = time.perf_counter()
    lat = boolean_square()
    O, X, Y, I = (lat.element(s) for s in "0xy1")
    checks = []

    unimodal = enumerate_unimodal(lat)
    strict = enumerate_lsu(lat)
    for tag, family, kind in (("unimodal", unimodal, "unimodal"),
                              ("strict", strict, "locally strictly unimodal")):
        per_top = {sum(1 for p in family if p.top == t) for t in range(4)}
        checks.append(CheckResult(
            f"twelve-{tag}-three-per-top",
            len(family) == 12 and per_top == {3}
            and set(family) == square_templates(lat, strict=tag == "strict"),
            detail=f"{len(family)} {kind}"))
    checks.append(CheckResult(
        "families-disjoint", not set(unimodal) & set(strict)))
    separable = {p for p in enumerate_topped_preorders(lat) if is_separable(p, lat)}
    checks.append(CheckResult(
        "separable-equals-strict-family", separable == set(strict),
        detail=f"{len(separable)} separable"))

    golden = {tuple(lat.element(s) for s in triple)
              for triple in _SQUARE_BETWEENNESS}
    trivial = {(u, w, v) for u, w, v in itertools.product(range(4), repeat=3)
               if u == w or v == w}
    computed = {(u, w, v) for u, w, v in itertools.product(range(4), repeat=3)
                if lat.between(u, w, v)}
    checks.append(CheckResult(
        "betweenness-golden-set", computed == golden | trivial,
        detail=f"{len(computed)} triples, {len(golden)} listed, "
               f"{len(trivial)} trivial"))

    maj5 = extended_median_rule(lat, 5)
    dom_u, dom_s = _full_domains(lat, 5)
    checks.append(CheckResult(
        "majority-interval-monotone",
        find_monotonicity_violation(maj5, lat) is None))
    checks.append(CheckResult(
        "majority-sp-unimodal", find_strategy_violation(maj5, dom_u) is None))
    checks.append(CheckResult(
        "majority-sp-strict", find_strategy_violation(maj5, dom_s) is None))
    witness = find_coalitional_manipulation(maj5, dom_u)
    shape_ok = (witness is not None and witness.validate(maj5, lat)
                and witness.outcome_truthful == O and witness.outcome_deviant == I
                and len(witness.coalition) == 4
                and sorted(witness.profile[i].top for i in witness.coalition)
                == [X, X, Y, Y])
    checks.append(CheckResult(
        "majority-coalition-witness", shape_ok,
        None if shape_ok else (witness.describe(lat) if witness else "none"),
        str(witness.describe(lat)) if witness else ""))

    spaces, table = tabulate(maj5, lat)
    cast_only = all(table[idx] in ballots for idx, ballots in
                    enumerate(itertools.product(range(4), repeat=5)))
    checks.append(CheckResult(
        "majority-output-always-among-ballots", cast_only,
        detail="4^5 ballot profiles"))
    axioms = check_axioms(maj5, lat, range(4))
    checks.append(CheckResult(
        "majority-axioms-all-hold", axioms.all_hold(), axioms.witnesses or None,
        "anonymous, locally neutral/sovereign/idempotent, efficient"))

    med = extended_median(lat, (I, X, Y))
    below, above = _support(lat, (I, X, Y), med)
    checks.append(CheckResult(
        "support-balance-fails-on-square",
        med == I and below == 3 and above == 1,
        detail=f"median(1,x,y)={lat.names[med]}, counts ({below},{above}), "
               "majority threshold 2"))

    chain = chain4()
    balanced = all(min(_support(chain, ballots, extended_median(chain, ballots))) >= 2
                   for ballots in itertools.product(range(4), repeat=3))
    checks.append(CheckResult(
        "support-balance-holds-on-four-chain", balanced, detail="4^3 profiles"))

    square2 = build_from_covers(["d", "b", "c", "a"],
                                [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")])
    A, B, C, D = (square2.element(s) for s in "abcd")
    checks.append(CheckResult(
        "interval-transitivity-fails",
        square2.between(A, B, D) and square2.between(B, A, C)
        and not square2.between(C, B, D),
        detail="b in [a,d], a in [b,c], b not in [c,d]"))

    cube = build_boolean_hypercube(3)
    ballots = tuple(cube.element(s) for s in ("110", "011", "101"))
    med3 = cube.median(*ballots)
    checks.append(CheckResult(
        "cube-median-can-leave-ballots",
        cube.names[med3] == "111" and med3 not in ballots,
        detail=f"median(110,011,101)={cube.names[med3]}"))

    return _finish("boolean-square", checks, t0)


# -- the battery ----------------------------------------------------------------------------


LATTICES = {
    "square": boolean_square,
    "chain4": chain4,
    "cube": lambda: build_boolean_hypercube(3),
    "grid3x3": lambda: build_product(build_chain(3), build_chain(3)),
}

# (suite, lattice key, keyword arguments) per report, in report order; an
# entry with a "seed" gets the run's seed
BATTERY = (
    ("claim1", "square", {"label": "square"}),
    ("claim1", "chain4", {"label": "chain4"}),
    ("claim1", "cube", {"label": "cube"}),
    ("claim1", "grid3x3", {"label": "grid3x3"}),
    ("lemma1", "square", {"n": 2, "samples": 120, "seed": 0}),
    ("lemma2", "square", {"n": 3, "label": "square"}),
    ("lemma2", "cube", {"n": 3, "label": "cube"}),
    ("theorem1", "square", {"n": 2, "samples": 200, "seed": 0}),
    ("theorem2", "square", {"label": "square"}),
    ("theorem2", "chain4", {"label": "chain4"}),
    ("theorem2", "cube", {"label": "cube"}),
    ("theorem3", "square", {"n": 3}),
    ("theorem3", "square", {"n": 4}),
    ("theorem3", "square", {"n": 5}),
    ("corollary1", "chain4", {"n": 2, "samples": 100, "seed": 0}),
    ("corollary1", "chain4", {"n": 3, "samples": 0, "seed": 0}),
    ("boolean-square", None, {}),
)


def suite_function(suite: str):
    """The function behind a battery suite name, looked up in the module
    namespace at each call, so a patched attribute is the one that runs."""
    stem = "chain_equivalence" if suite == "corollary1" else suite.replace("-", "_")
    return globals()[f"{stem}_suite"]


def run_all(seed: int = 0, suite: str | None = None, **given) -> list:
    """The battery's reports, or only those of ``suite``'s entries.

    ``given`` values (``lat``, ``n``, ``samples``) are put into each entry,
    and a given ``lat`` drops the entry's label.  Each distinct call runs
    once, and each default lattice is built once per run.
    """
    lattices = {}
    done = set()
    reports = []
    for name, key, kwargs in BATTERY:
        if suite not in (None, name):
            continue
        call = {**kwargs, **given}
        if "seed" in kwargs:
            call["seed"] = seed
        if "lat" in given:
            call.pop("label", None)
            key = None
        identity = (name, key, tuple(sorted(call.items())))
        if identity in done:
            continue
        done.add(identity)
        if key is not None:
            if key not in lattices:
                lattices[key] = LATTICES[key]()
            call["lat"] = lattices[key]
        reports.append(suite_function(name)(**call))
    return reports
