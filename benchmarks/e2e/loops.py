"""Load generation and the percentile rule.

* :func:`closed_loop` is one client that sends its next request when the
  previous one returns, so a slower program receives less load.
* :func:`open_loop` sends on a fixed schedule regardless, like
  independent users, and times each request from when it was *due*: a
  stall delays every request queued behind it, and that delay counts.

Timings are reported as a median plus the highest percentile that has at
least :data:`MIN_BEYOND` samples beyond it (:func:`percentile` refuses
otherwise), each latency rescaled to the host's reference speed
(:mod:`speed`). A run long enough is cut into consecutive segments and
each statistic is the median of its per-segment values (:func:`segmented`),
so a burst of load from other tenants of the host that covers part of a
run moves the run's numbers less.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import deque
from concurrent.futures import wait
from fractions import Fraction
from functools import partial
from typing import Callable

from repro.errors import ReproError

from speed import Speedometer

#: Samples a reported percentile must leave beyond it.
MIN_BEYOND = 10

#: Percentiles :func:`highest_percentile` tries, highest first.
PERCENTILE_LADDER = (99.9, 99, 90, 50)

#: :func:`segmented` cuts a run into at most this many segments, of at
#: least SEGMENT_SAMPLES samples each (so each has a p90 by the rule).
SEGMENTS = 5
SEGMENT_SAMPLES = 100

#: :func:`open_loop` stops idle work (a quantum takes about 1 ms) or
#: sleep this long before a due time, and polls the clock from there.
IDLE_MARGIN_S = 1.5e-3


class TooFewSamples(ValueError):
    """Fewer samples than the percentile rule needs."""


def percentile(samples, p: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``p``-th percentile, if ``min_beyond`` samples lie beyond it."""
    count = len(samples)
    rank = math.ceil(Fraction(str(p)) * count / 100)
    if rank < 1 or count - rank < min_beyond:
        raise TooFewSamples(
            f"p{p} of {count} samples leaves {count - rank} beyond it; "
            f"the rule needs {min_beyond}"
        )
    return sorted(samples)[rank - 1]


def highest_percentile(samples, min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """``(p, value)`` for the highest ladder percentile the samples support."""
    for p in PERCENTILE_LADDER:
        try:
            return p, percentile(samples, p, min_beyond)
        except TooFewSamples:
            continue
    raise TooFewSamples(
        f"{len(samples)} samples support no percentile with {min_beyond} beyond"
    )


def segmented(samples: list[float], statistic: Callable[[list[float]], float]) -> float:
    """Median over consecutive equal segments of ``statistic(segment)``."""
    count = max(1, min(SEGMENTS, len(samples) // SEGMENT_SAMPLES))
    size = len(samples) / count
    parts = [samples[round(i * size) : round((i + 1) * size)] for i in range(count)]
    return statistics.median(statistic(part) for part in parts)


def closed_loop(
    call: Callable[[str], object],
    items: list[tuple[str, str]],
    seconds: float,
    min_requests: int,
    check: Callable[[str, str, object], None],
    meter: Speedometer,
    share: float,
) -> list[tuple[float, float]]:
    """Cycle ``items`` through ``call`` for ``seconds`` of timed wall clock.

    Runs at least ``min_requests`` requests. After each one the clock
    stops and ``check(label, sql, result)`` runs (``result`` is the
    raised ``ReproError`` for a failed call), so answers are checked
    outside the timed region and none is kept alive: a result holds its
    query, whose join graph can hold megabytes of memoized search state.
    Also outside it, ``meter`` runs quanta for about ``share`` of the
    timed clock, before the first request, between later ones and after
    the last.

    Returns ``(start, latency)`` per request, as measured.
    """
    spans: list[tuple[float, float]] = []
    timed = 0.0
    owed = 0.0
    while timed < seconds or len(spans) < min_requests:
        while owed >= 0:
            owed -= meter.tick()
        label, sql = items[len(spans) % len(items)]
        before = time.perf_counter()
        try:
            result = call(sql)
        except ReproError as exc:
            result = exc
        elapsed = time.perf_counter() - before
        spans.append((before, elapsed))
        timed += elapsed
        owed += share * elapsed
        check(label, sql, result)
        del result
    owed -= meter.tick()
    while owed >= 0:
        owed -= meter.tick()
    return spans


class Scheduled:
    """One open-loop request: when it was due, sent and completed.

    ``scale`` is the host-speed factor its latency is reported with
    (:meth:`Speedometer.scale`; 1.0 when not rescaled).
    """

    __slots__ = ("label", "sql", "due", "sent", "done", "future", "error", "scale")

    def __init__(self, label: str, sql: str, due: float):
        self.label = label
        self.sql = sql
        self.due = due
        self.sent: float | None = None
        self.done: float | None = None
        self.future = None
        self.error: ReproError | None = None
        self.scale = 1.0

    @property
    def latency(self) -> float:
        """Completion minus due time (inf while pending or when refused)."""
        if self.error is not None or self.done is None:
            return math.inf
        return self.done - self.due


def _stamp(
    request: Scheduled, clock: Callable[[], float], completed: threading.Event, _future
) -> None:
    request.done = clock()
    completed.set()


def _await_due(
    due: float,
    in_flight: deque[Scheduled],
    completed: threading.Event,
    clock: Callable[[], float],
    idle: Callable[[], object] | None,
) -> None:
    """Return at ``due``, having run ``idle`` only while nothing is in flight.

    While a request is served the generator waits for its completion, so
    it never holds the interpreter lock the service needs, and is woken by
    the serving thread rather than by a timer. Otherwise it runs ``idle``
    (or sleeps) until :data:`IDLE_MARGIN_S` before ``due`` and polls the
    clock for the rest: a thread that sleeps through the due time on an
    idle virtual CPU wakes up late, for 1-5 ms in 3% of sleeps on the
    host of README.md, and every such delay would count as latency.
    """
    while True:
        completed.clear()
        while in_flight and in_flight[0].done is not None:
            in_flight.popleft()
        delay = due - clock()
        if delay <= 0:
            return
        if in_flight:
            completed.wait(delay)
        elif delay > IDLE_MARGIN_S:
            if idle is not None:
                idle()
            else:
                time.sleep(delay - IDLE_MARGIN_S)


def open_loop(
    submit: Callable[[str], object],
    items: list[tuple[str, str]],
    rate: float,
    writes: tuple[float, ...] = (),
    write: Callable[[], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
    idle: Callable[[], object] | None = None,
) -> list[Scheduled]:
    """Submit ``items[i]`` at ``start + i / rate`` from this thread.

    ``submit`` returns a future or raises a ``ReproError`` (a refusal).
    ``write`` runs from the same thread before the first request due at
    or after each offset in ``writes`` (seconds from the start), so writes
    land at the same point of the schedule on every run. ``idle``, when
    given, fills the waits between requests (:func:`_await_due`).
    """
    requests = []
    pending_writes = sorted(writes)
    in_flight: deque[Scheduled] = deque()
    completed = threading.Event()
    start = clock()
    for index, (label, sql) in enumerate(items):
        offset = index / rate
        while pending_writes and offset >= pending_writes[0]:
            pending_writes.pop(0)
            write()
        request = Scheduled(label, sql, start + offset)
        _await_due(request.due, in_flight, completed, clock, idle)
        request.sent = clock()
        try:
            request.future = submit(sql)
        except ReproError as exc:
            request.error = exc
        else:
            request.future.add_done_callback(
                partial(_stamp, request, clock, completed)
            )
            in_flight.append(request)
        requests.append(request)
    return requests


def drain(requests: list[Scheduled], timeout: float) -> list[Scheduled]:
    """Wait for every submitted request; returns the ones still pending."""
    submitted = [r for r in requests if r.future is not None]
    wait([r.future for r in submitted], timeout=timeout)
    # A future wakes its waiters before it runs its callbacks; give the
    # completion stamps a moment to land.
    deadline = time.monotonic() + 1.0
    while time.monotonic() < deadline and any(
        r.done is None and r.future.done() for r in submitted
    ):
        time.sleep(0.001)
    return [r for r in submitted if not r.future.done()]
