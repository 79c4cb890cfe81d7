"""Verdict gates.  None of them asks the package under test for the answer.

- battery: every check passes; for seed 0 the ordered checks equal a golden
  file recorded at the commit that introduced the benchmark.
- rule-check: the verdicts obey the paper (Theorem 1, monotonicity of tree
  and quota rules, Corollary 1 on chains) and a constant rule passes every
  check; for seed 0 each job's JSON payload equals a golden file.
- lattice-build: element names decode to down-sets, which must be exactly
  the poset's down-sets found by brute force; sampled queries must equal
  set operations on the decoded down-sets.

Each gate returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

CHECK_KEYS = ("claim", "pass", "witness", "detail")
RULE_CHECKS = ("interval_monotone", "strategy_proof_unimodal",
               "coalition_proof_unimodal", "strategy_proof_strict",
               "coalition_proof_strict")


# -- battery ---------------------------------------------------------------------


def battery_checks(reports):
    """Per report, its ordered (claim, pass, witness, detail) records; suite
    names, timings and keys added later are ignored."""
    return [[{k: check.get(k) for k in CHECK_KEYS} for check in report["checks"]]
            for report in reports]


def battery_problems(exit_code, reports, golden=None):
    """One problem list per report, plus a list for the pass as a whole."""
    whole = []
    if exit_code != 0:
        whole.append(f"verify all exited {exit_code}")
    checks = battery_checks(reports)
    per_report = [[f"{c['claim']} failed" for c in report if c["pass"] is not True]
                  for report in checks]
    if golden is not None:
        flat = [c for report in checks for c in report]
        expected = [c for report in golden for c in report]
        if len(flat) != len(expected):
            whole.append(f"{len(flat)} checks, golden has {len(expected)}")
        at = 0
        for problems, report in zip(per_report, checks):
            for check in report:
                want = expected[at] if at < len(expected) else None
                if check != want:
                    problems.append(f"check {at} ({check['claim']}) differs "
                                    "from the golden file")
                at += 1
    return per_report, whole


# -- rule-check --------------------------------------------------------------------


def rule_check_problems(job, exit_code, payload, golden=None):
    """Problems with one ``rule check`` job's verdicts.

    ``job`` needs ``kind`` (explicit, tree, quota or constant) and ``chain``
    (whether the carrier is a chain, known from how the benchmark built it).
    """
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"]
    if not isinstance(payload, dict) or set(payload) != set(RULE_CHECKS):
        return ["payload does not hold the five checks"]
    verdict = {key: payload[key]["pass"] for key in RULE_CHECKS}
    problems = []
    if (exit_code == 0) != all(verdict.values()):
        problems.append(f"exit code {exit_code} disagrees with the verdicts")
    for key in RULE_CHECKS:
        if verdict[key] is False and payload[key]["witness"] is None:
            problems.append(f"{key} failed without a witness")
    monotone = verdict["interval_monotone"]
    if not (monotone == verdict["strategy_proof_unimodal"]
            == verdict["strategy_proof_strict"]):
        problems.append("Theorem 1: monotonicity and strategy-proofness differ")
    if job["kind"] in ("tree", "quota") and not monotone:
        problems.append(f"a {job['kind']} rule is not interval monotone")
    if job["kind"] == "constant" and not all(verdict.values()):
        problems.append("a constant rule fails a check")
    if job["chain"] and monotone and not (
            verdict["coalition_proof_unimodal"] and verdict["coalition_proof_strict"]):
        problems.append("Corollary 1: a monotone rule on a chain is manipulable")
    if golden is not None and payload != golden:
        problems.append("payload differs from the golden file")
    return problems


# -- lattice-build -------------------------------------------------------------------


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def count_down_sets(below):
    """Number of down-sets of a poset given ``below[i]`` (mask of the points
    at or below i); fast, for sampling inputs."""
    up = [0] * len(below)
    for i, mask in enumerate(below):
        for j in _bits(mask):
            up[j] |= 1 << i
    memo = {0: 1}

    def count(rest):
        if rest not in memo:
            x = rest.bit_length() - 1
            memo[rest] = count(rest & ~up[x]) + count(rest & ~below[x])
        return memo[rest]

    return count((1 << len(below)) - 1)


def down_sets(below):
    """Every down-set of the poset, by brute force over all subsets."""
    return [s for s in range(1 << len(below))
            if all(below[i] & ~s == 0 for i in _bits(s))]


def _between(x, z, y):
    return (x & y) & ~z == 0 and z & ~(x | y) == 0


def lattice_problems(reference, decoded, queries, results):
    """Problems with one built lattice and its query pass.

    ``reference`` is the set of the poset's down-sets as masks, ``decoded``
    the down-set each element's name denotes, ``queries`` the sampled
    arguments and ``results`` the lattice's answers, per operation.
    """
    if len(decoded) != len(reference):
        return [f"{len(decoded)} elements, the poset has {len(reference)} down-sets"]
    if set(decoded) != reference:
        return ["element names are not exactly the poset's down-sets"]
    problems = []
    d = decoded
    expected = {
        "median": [(d[a] & d[b]) | (d[b] & d[c]) | (d[a] & d[c])
                   for a, b, c in queries["median"]],
        "between": [_between(d[x], d[z], d[y]) for x, z, y in queries["between"]],
        "join": [d[a] | d[b] for a, b in queries["join"]],
        "meet": [d[a] & d[b] for a, b in queries["meet"]],
        "interval_mask": [sum(1 << e for e in range(len(d))
                              if _between(d[x], d[e], d[y]))
                          for x, y in queries["interval_mask"]],
        "rank_valuation": [bin(mask).count("1") for mask in d],
    }
    for op, want in expected.items():
        got = results[op]
        if op in ("median", "join", "meet"):
            try:
                got = [d[e] for e in got]
            except (IndexError, TypeError):
                got = None
        if got != want:
            problems.append(f"a {op} answer is wrong")
    return problems
