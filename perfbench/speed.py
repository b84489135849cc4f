"""Host speed probe: the benchmark's yardstick against a drifting machine.

On a shared virtual machine each virtual CPU switches, every tenth of a
second or so, between a fast state and one in which the same work takes
about 50% longer, and the share of time spent slow drifts over minutes,
so the same work can take 20-30% more or less wall time from one minute
to the next. ``probe`` times one fixed pass of pure-Python graph work
(breadth-first searches over a fixed random graph, the kind of work
cdgraph itself does), and ``Sampler`` interleaves probes with the workload, every ``INTERVAL_S`` seconds, from
a timer signal. An operation's time is then reported at the reference
speed: its own wall time, less the probes that ran inside it, times
``REFERENCE_S`` over the probe time measured around it. The probe uses
no cdgraph code and pauses the cyclic collector, so a change to the
program can move the yardstick only through the state it leaves in the
CPU caches. Each virtual CPU has a state of its own, so ``pin`` keeps the
benchmark and every process it starts on one CPU, where the probes and
the work they measure share it.

The raw wall times are kept as well; run.py prints them in its
``{"run": ...}`` line.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import signal
import statistics
import time

clock = time.perf_counter

# One probe's time at the reference speed: about its mean during the
# workloads on the 2-CPU machine the reference figures in README.md come
# from, so that reported times read close to that machine's wall times.
REFERENCE_S = 0.0008
# About 1.5% of the time goes to probes.
INTERVAL_S = 0.05
# An operation's speed comes from the probes inside it and NEIGHBOURS on
# either side, which are close enough to share its fast or slow state.
NEIGHBOURS = 3
# Probes taken when a Sampler starts and when it stops.
EDGE_PROBES = 10

_N = 120
_rng = random.Random(20230520)
_ADJ: dict[int, set[int]] = {v: set() for v in range(_N)}
for _v in range(_N):
    for _w in _rng.sample(range(_N), 4):
        if _w != _v:
            _ADJ[_v].add(_w)
            _ADJ[_w].add(_v)


def _work() -> int:
    total = 0
    for source in range(0, _N, 15):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in _ADJ[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(sorted(dist.values()))
    return total


def probe() -> float:
    """Seconds for one pass of the fixed work, with the cyclic collector
    paused so that the size of the program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        _work()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def pin() -> int | None:
    """Confine this process, and the processes it starts later, to the
    lowest-numbered CPU it may use; that CPU, or None where the platform
    cannot pin. cdgraph is single-threaded, so it loses nothing by it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def scale(probes: list[float]) -> float:
    """Reference speed over the host speed these probe times show: their
    mean, since work slows in proportion to the share of time spent
    slow, without the top and bottom tenth (interrupted probes)."""
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return REFERENCE_S / statistics.fmean(ordered[cut : len(ordered) - cut])


class Sampler:
    """Probe start times (``clock``, which is system-wide) and durations.

    As a context manager it probes ``EDGE_PROBES`` times on entry and on
    exit and every ``INTERVAL_S`` seconds in between, from a timer
    signal; the code under test must run in the main thread, between
    whose bytecodes the handler runs. ``sample`` probes once, for callers
    that interleave probes themselves."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self, *_) -> None:
        start = clock()
        took = probe()
        self.starts.append(start)
        self.seconds.append(took)

    def __enter__(self) -> "Sampler":
        for _ in range(EDGE_PROBES):
            self.sample()
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        for _ in range(EDGE_PROBES):
            self.sample()

    def inside(self, start: float, end: float) -> float:
        """Probe seconds that began within [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.seconds[lo:hi])

    def scale_around(self, start: float, end: float) -> float:
        """Reference speed over the host's speed around [start, end), from
        the probes inside it and ``NEIGHBOURS`` on either side."""
        lo = max(0, bisect.bisect_left(self.starts, start) - NEIGHBOURS)
        hi = bisect.bisect_left(self.starts, end) + NEIGHBOURS
        return scale(self.seconds[lo:hi])

    def normalize(self, start: float, end: float) -> tuple[float, float]:
        """An operation's wall time less the probes inside it, raw and at
        the reference speed."""
        raw = end - start - self.inside(start, end)
        return raw, raw * self.scale_around(start, end)
