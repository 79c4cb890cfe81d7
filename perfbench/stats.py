"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
from fractions import Fraction

# Percentiles the tail may be reported at; the tail is the highest of these
# that leaves at least MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(values, pct: float):
    """The nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(n: int, pct: float) -> int:
    # exact: 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the nearest-rank pct percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it."""
    fitting = [pct for pct in TAIL_LADDER if beyond(n, pct) >= MIN_BEYOND]
    if not fitting:
        raise ValueError(
            f"{n} samples leave fewer than {MIN_BEYOND} beyond any percentile")
    return max(fitting)
