"""Timings at a reference host speed.

The sandbox this benchmark was sized on changes speed by up to 1.7x over
seconds to minutes, for reasons outside the benchmark: the process keeps
its CPU (process CPU time grows exactly as wall time does), it just runs
slower.  A fixed pure-Python loop that builds and hashes small objects,
timed between the items of a run, slows by about as much as the workloads
do.  So every timing is also reported on an adjusted clock, which runs
slower while the loop runs slower:

    adjusted time = raw time * REFERENCE_S / (loop time at that moment)

where the loop time at a moment is the median of the loop timings taken
within ``WINDOW_S`` of it.  The loop touches no proofdiag code and runs
with the garbage collector off, so neither a change to the program nor the
size of its heap can move it.
"""
from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

LOOP_N = 2000
REFERENCE_S = 0.001  # the loop's time at the reference speed
PROBE_EVERY_S = 0.1  # at most one probe per this much run time
WINDOW_S = 0.5
EDGE_PROBES = 5  # probes taken just before and just after a timed region


class _Node:
    __slots__ = ("key", "children")

    def __init__(self, key, children):
        self.key = key
        self.children = children


def reference_loop(n: int = LOOP_N) -> int:
    """Build n small objects holding tuples and hash them: the kind of work
    proofdiag does when it builds diagrams, with none of its code.  Among an
    arithmetic loop, random reads of a large list, dict building and this,
    this tracked the workloads' slow-downs best."""
    nodes = [_Node(i, (i,)) for i in range(n)]
    return sum(hash((x.key, x.children)) & 1 for x in nodes)


class HostSpeed:
    """Probes of the reference loop, taken between the items of one run."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def probe(self, times: int = 1):
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = perf_counter()
                reference_loop()
                self.starts.append(t0)
                self.ends.append(perf_counter())
        finally:
            if collecting:
                gc.enable()

    def maybe_probe(self, now: float):
        """Probe when the last probe ended at least PROBE_EVERY_S ago."""
        if not self.ends or now - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, a: float, b: float) -> float:
        """Host slowness over [a, b]: loop time near it over REFERENCE_S."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        near = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        if not near:  # a span far from every probe: use the nearest one
            i = min(lo, len(self.starts) - 1)
            near = [self.ends[i] - self.starts[i]]
        return statistics.median(near) / REFERENCE_S

    def probe_s(self, a: float, b: float) -> float:
        """Time spent probing inside [a, b]."""
        return sum(e - s for s, e in zip(self.starts, self.ends) if a <= s and e <= b)


class AdjustedClock:
    """Adjusted seconds since ``begin`` for any raw time in [begin, end].

    The region is cut into segments at the probes inside it; each segment
    runs at its own factor, and the probes themselves take no adjusted time.
    """

    def __init__(self, speed: HostSpeed, begin: float, end: float):
        inside = [
            (s, e) for s, e in zip(speed.starts, speed.ends) if begin <= s and e <= end
        ]
        self.seg_start = [begin] + [e for _, e in inside]
        seg_end = [s for s, _ in inside] + [end]
        self.factor = [speed.factor(a, b) for a, b in zip(self.seg_start, seg_end)]
        self.before = [0.0]  # adjusted time at the start of each segment
        for a, b, f in zip(self.seg_start, seg_end, self.factor):
            self.before.append(self.before[-1] + (b - a) / f)
        self.seg_end = seg_end

    def __call__(self, t: float) -> float:
        k = max(0, bisect.bisect_right(self.seg_start, t) - 1)
        t = min(t, self.seg_end[k])
        return self.before[k] + (t - self.seg_start[k]) / self.factor[k]
