"""Host speed, measured beside the program, and times rescaled by it.

The benchmark gets a few cores of a shared host. How fast the interpreter
runs there drifts by a third within seconds, and further over minutes, as
other tenants come and go; the CPU time of a request drifts with its wall
time, so this is the processor running slower, not the process waiting.
A run's own medians cannot average out a drift that outlasts the run.

So the benchmark also times a *quantum*: a fixed piece of pure-Python
work that shares no code with the program (:func:`quantum`). Quanta run
between requests, outside the timed region, and each measured time is
rescaled by ``NOMINAL_QUANTUM_S / (median time of the quanta run around
it)``. The timings then read in seconds on a host that runs the quantum
in :data:`NOMINAL_QUANTUM_S`: a slower program still reads slower, by
the same share; a slower host does not.

This corrects for how fast the processor runs, not for how much of it
the benchmark gets: a quantum fits between two scheduler time slices, so
another process time-sharing the benchmark's CPU slows requests but not
quanta. Nothing else should run on the machine during a run.
"""

from __future__ import annotations

import bisect
import re
import statistics
import time

#: The unit the rescaled timings are read in: about the quantum's median
#: time between requests on the 2-vCPU host of README.md (run back to
#: back, quanta take 0.6 ms there; after a request, nearer 1 ms).
NOMINAL_QUANTUM_S = 1.0e-3

#: Quanta within this many seconds of a measured interval rescale it.
WINDOW_S = 0.1

#: An interval with fewer quanta in its window uses this many nearest.
MIN_QUANTA = 4

_WEIGHTS = [((i * 7919) % 97 + 3) / 10.0 for i in range(7)]
_PREDICATES = " AND ".join(f"t{i}.c{i % 7} = t{i + 1}.c{i % 5}" for i in range(40))
_PREDICATE = re.compile(r"(\w+)\.(\w+) = (\w+)\.(\w+)")


class _Node:
    __slots__ = ("cost", "rows", "left", "right")

    def __init__(self, cost: float, rows: float, left=None, right=None):
        self.cost = cost
        self.rows = rows
        self.left = left
        self.right = right


def _subset_dp(items: int = 7) -> float:
    """Cheapest bushy split over bitmasks: integers and float lists."""
    full = 1 << items
    card = [1.0] * full
    cost = [0.0] * full
    for mask in range(1, full):
        low = mask & -mask
        rest = mask ^ low
        card[mask] = card[rest] * _WEIGHTS[low.bit_length() - 1]
        if not rest:
            continue
        best = None
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:
                split = cost[sub] + cost[other]
                if best is None or split < best:
                    best = split
            sub = (sub - 1) & mask
        cost[mask] = best + card[mask]
    return cost[full - 1]


def _object_dp(items: int = 7) -> float:
    """Left-deep plan objects in a dict keyed by frozensets."""
    base = [frozenset([i]) for i in range(items)]
    best = {leaf: _Node(0.0, 10.0 + i) for i, leaf in enumerate(base)}
    for size in range(2, items + 1):
        for subset in [s for s in best if len(s) == size - 1]:
            for leaf in base:
                if leaf <= subset:
                    continue
                left, right = best[subset], best[leaf]
                rows = left.rows * right.rows * 0.1
                cost = left.cost + right.cost + rows
                union = subset | leaf
                current = best.get(union)
                if current is None or cost < current.cost:
                    best[union] = _Node(cost, rows, left, right)
    return best[frozenset(range(items))].cost


def _text_scan(rounds: int = 6) -> int:
    """Regex matches over predicate text, grouped in a dict of lists."""
    grouped: dict[str, list] = {}
    for _ in range(rounds):
        grouped = {}
        for left, column, right, other in (
            match.groups() for match in _PREDICATE.finditer(_PREDICATES)
        ):
            grouped.setdefault(left, []).append((column, right, other))
    return len(grouped)


def quantum() -> float:
    """About 0.6 ms of interpreter work in three styles the program has.

    Bitmask arithmetic over lists, small objects in frozenset-keyed
    dicts, and regex over SQL-like text, in about equal parts: across
    runs on the host of README.md, each style alone tracked the program's
    speed less closely than the three together.
    """
    return _subset_dp() + _object_dp() + _text_scan()


class Speedometer:
    """Quantum times, stamped with the ``perf_counter`` midpoint of each."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times: list[float] = []

    def tick(self, count: int = 1) -> float:
        """Run ``count`` quanta; returns the seconds they took."""
        spent = 0.0
        for _ in range(count):
            started = time.perf_counter()
            quantum()
            elapsed = time.perf_counter() - started
            self.stamps.append(started + elapsed / 2)
            self.times.append(elapsed)
            spent += elapsed
        return spent

    def scale(self, start: float, end: float) -> float:
        """Factor that rescales a time measured over ``[start, end]``."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi - lo < MIN_QUANTA:
            middle = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo = max(0, min(middle - MIN_QUANTA // 2, len(self.stamps) - MIN_QUANTA))
            hi = lo + MIN_QUANTA
        return NOMINAL_QUANTUM_S / statistics.median(self.times[lo:hi])
