"""Scale measured times to a fixed host speed.

On a shared virtual machine the same pure-Python work runs up to 1.7x
slower for stretches of a second to a minute, when a neighbour loads the
other hardware thread of the core.  Within one run that moves throughput by
20% or more, far beyond the effects the benchmark must resolve.  So the run
times a fixed probe (pure-Python set and dict work, independent of leafspan)
every quarter second between operations, and scales each operation's time by
REFERENCE_PROBE_S over the median probe time around it.  A scaled time reads as
the time the operation would take on a host where the probe takes
REFERENCE_PROBE_S, which is the probe's time on an uncontended core of a
2-core x86 VM with CPython 3.11.  Raw times are recorded beside the scaled
ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_PROBE_S = 0.00135
PROBE_EVERY_S = 0.25
# Probes this close to an operation's interval speak for it.  One probe can
# take ten times its usual time when the scheduler preempts it, so the factor
# uses the median of the several probes in a window of this width.
WINDOW_S = 1.0


def probe_work() -> int:
    """About a millisecond of set, dict and sort traffic on small ints."""
    state = 12345
    adj = [set() for _ in range(200)]
    for _ in range(3000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        u, v = state % 200, (state >> 8) % 200
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    seen: set[int] = set()
    total = 0
    for v in range(200):
        total += len(sorted(adj[v] - seen)) + len(adj[v] & adj[(v + 1) % 200])
        seen |= adj[v]
    return total


class HostSpeed:
    """Probe times, taken between operations, and the scaling they imply."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._due = 0.0

    def probe(self) -> None:
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._due = t1 + PROBE_EVERY_S

    def probe_if_due(self) -> None:
        if perf_counter() >= self._due:
            self.probe()

    def factor(self, start: float, duration: float) -> float:
        """REFERENCE_PROBE_S over the median probe near [start, start + duration].

        A probe taken right before each operation (`probe_if_due`) is at most
        PROBE_EVERY_S old, so the window always holds one in practice.
        """
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, start + duration + WINDOW_S)
        return REFERENCE_PROBE_S / statistics.median(self.took[lo:hi] or self.took)

    def scaled(self, starts: list[float], durations: list[float]) -> list[float]:
        return [d * self.factor(s, d) for s, d in zip(starts, durations)]

    def mean_factor(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.took)
