"""Host speed: a fixed probe, timed at regular intervals while a run measures.

The benchmark runs on a few cores of a shared machine whose speed changes by
up to twice over spans of seconds to minutes, for every kind of code alike.
The fastest of several passes does not remove that: a whole run can fall into
a slow spell.  So a timer signal interrupts the program every INTERVAL_S and
runs ``probe()``, a fixed piece of pure-Python work of the benchmark's own
(it calls nothing of the package under test).  Over an interval of the run, the mean
probe time over REF_PROBE_S, the probe's time on a calm core, is how much
slower the host was than calm.

``HostSpeed.calm_seconds(start, end)`` is the interval's duration without the
probes that interrupted it, divided by that slowdown: the time the interval
would have taken on the calm host.  The slowdown is taken over the interval
widened by PAD_S on both sides, so that a job shorter than INTERVAL_S still
has probes around it.
"""

from __future__ import annotations

import bisect
import signal
import time
from statistics import fmean

INTERVAL_S = 0.05
PAD_S = 0.25
# the probe's fastest time, run back to back, on a two-vCPU x86-64 Linux VM
# with Python 3.11; it only sets the scale of the calm times
REF_PROBE_S = 525e-6


def _mix(a, b):
    return (a & b) | (a ^ b) >> 1


def probe():
    """Fixed work shaped like the package's inner loops: dictionary counting,
    small frozensets, tuples, calls and a sort."""
    acc, counts = 0, {}
    for i in range(1500):
        k = (i * 7919) & 1023
        counts[k] = counts.get(k, 0) + (i ^ k)
        acc += (i & 0x5A) | (k >> 2)
    sets = [frozenset(range(i % 5, i % 5 + 4)) for i in range(60)]
    sizes = {}
    for i, left in enumerate(sets):
        for j in range(0, len(sets), 7):
            sizes[(i, j)] = len(left | sets[j])
            acc += _mix(i, j)
    acc += len(sorted(sizes, key=sizes.get))
    return acc + sum(max(t) for t in [(i, i * 3 % 7, 5) for i in range(100)])


class HostSpeed:
    """Context manager: while active, PROBE runs every ``interval`` seconds
    of real time; each probe's start and duration are kept."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _between(self, start, end):
        return slice(bisect.bisect_left(self.starts, start),
                     bisect.bisect_left(self.starts, end))

    def probe_seconds(self, start: float, end: float) -> float:
        """Time the probes took inside [start, end]."""
        return sum(self.durations[self._between(start, end)])

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time around [start, end] over REF_PROBE_S; over every
        probe kept when none ran near the interval."""
        near = self.durations[self._between(start - PAD_S, end + PAD_S)]
        near = near or self.durations
        if not near:
            raise RuntimeError("no host-speed probe ran")
        return fmean(near) / REF_PROBE_S

    def calm_seconds(self, start: float, end: float) -> float:
        """The interval's duration without its probes, scaled to the calm
        host."""
        return (end - start - self.probe_seconds(start, end)) / self.slowdown(start, end)
