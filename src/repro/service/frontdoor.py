"""The overload-robust serving front door.

Everything below :class:`FrontDoor` optimizes one query at a time and
assumes a polite caller. This module is the impolite-world adapter: a
bounded admission queue, per-tenant token buckets, a brownout controller
that trades plan quality for throughput under load, and a circuit breaker
that keeps statistics-refresh storms from livelocking the plan cache.

The contract — the serving-layer restatement of the paper's robustness
thesis (*always return a plan, degrade gracefully, never fall over*):

* every submitted request either returns a plan — possibly degraded, with
  honest provenance (:attr:`FrontDoorResult.brownout_level`,
  :attr:`FrontDoorResult.degraded`) — or fails **fast** with a typed
  :class:`~repro.errors.AdmissionRejected`; it never hangs and never
  escapes with an untyped error;
* a plan-cache hit is answered at admission, on the submitting thread:
  it never waits for a worker and never takes queue capacity, so only
  misses are queued; a hit reports brownout level 0 at any level, since
  only baseline plans are cached;
* overload is absorbed in a **bounded** queue and then shed, newest
  first-rejected — memory use does not grow with offered load;
* one tenant's storm becomes that tenant's
  :class:`~repro.errors.TenantBudgetExhausted` rejections, not everyone's
  latency (see :mod:`repro.service.tenancy`);
* under sustained pressure the :class:`LoadController` steps down a fixed
  **brownout ladder**: the optimizer entry point moves from the service's
  configured technique toward cheaper ones (``SDP → IDP(4) → GOO``), so
  admitted requests keep completing — the same fallback-ladder idea as
  :class:`~repro.robust.RobustOptimizer`, applied fleet-wide instead of
  per call;
* brownout results are **never cached** (the cache must only ever serve
  full-quality plans) and the unloaded path — brownout level 0 — is
  bit-identical to calling :meth:`OptimizationService.optimize` directly;
* ``analyze()`` storms hit the :class:`StatsRefreshBreaker`, which
  coalesces a burst of refreshes into one epoch bump carrying the newest
  snapshot, so the cache is not invalidated faster than it can fill.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from queue import Empty, Full, Queue
from typing import Callable

from repro.catalog.statistics import CatalogStatistics
from repro.errors import AdmissionRejected, ServiceError, TenantBudgetExhausted
from repro.obs.names import (
    METRIC_FRONTDOOR_BROWNOUT_LEVEL,
    METRIC_FRONTDOOR_LATENCY_SECONDS,
    METRIC_FRONTDOOR_QUEUE_DEPTH,
    METRIC_FRONTDOOR_REQUESTS_TOTAL,
    METRIC_FRONTDOOR_RUNG_ENTRIES_TOTAL,
    METRIC_STATS_REFRESHES_TOTAL,
    SPAN_FRONTDOOR_REQUEST,
)
from repro.obs.runtime import current_tracer, enabled as _obs_enabled, metrics as _obs_metrics
from repro.obs.trace import maybe_span
from repro.query.query import Query
from repro.robust.ladder import RobustOptimizer
from repro.service.service import OptimizationService, ServiceResult
from repro.service.tenancy import TenantRegistry

__all__ = [
    "LoadController",
    "StatsRefreshBreaker",
    "FrontDoorConfig",
    "FrontDoorResult",
    "FrontDoorStats",
    "FrontDoor",
]

#: How long a worker blocks on the queue before re-checking shutdown.
_WORKER_POLL_SECONDS = 0.05


# -- brownout ladder -----------------------------------------------------------

#: Entry technique per brownout level. Level 0 (None) is the service's own
#: configured path (the bit-identical unloaded path); each further level runs
#: ``RobustOptimizer(entry)`` with its default budget, entering the fallback
#: ladder lower, which mirrors the paper's DP -> SDP -> IDP -> GOO
#: cost/quality ordering at the fleet level.
_BROWNOUT_ENTRIES = (None, "SDP", "IDP(4)", "GOO")

#: Queue occupancy (0..1) at/above which the load controller sees heavy load.
_HIGH_WATERMARK = 0.75
#: Occupancy at/below which it sees light load.
_LOW_WATERMARK = 0.25
#: Sliding-window p95 latency above which a pressured queue counts as heavy.
_LATENCY_SLO_SECONDS = 0.5
#: Completed-request latencies kept for the p95.
_LATENCY_WINDOW = 64
#: Minimum spacing between applied statistics epochs.
_STATS_REFRESH_INTERVAL_SECONDS = 0.25


# -- load controller -----------------------------------------------------------


class LoadController:
    """Turns queue depth and recent latency into a brownout level.

    The controller is deliberately boring: a sliding window of the last
    64 completed request latencies plus the instantaneous queue occupancy,
    compared against fixed watermarks (0.75 and 0.25) with hysteresis; a
    p95 above 0.5 s also counts as heavy load once the queue is past the
    low watermark (a slow backend backs the queue up eventually, but
    latency notices first). Escalation is immediate-but-rate-limited (at
    most one level per ``cooldown_seconds``); de-escalation requires the
    system to look calm for a full cooldown, so the level does not flap
    at the boundary. The level never exceeds the ladder's last rung.

    Args:
        cooldown_seconds: Minimum time between level changes; > 0.
        clock: Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        cooldown_seconds: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        # ``not > 0`` also rejects NaN, which would never change level.
        if not cooldown_seconds > 0:
            raise ServiceError(
                f"cooldown_seconds must be > 0, got {cooldown_seconds!r}"
            )
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._level = 0
        self._last_change = clock()
        self._lock = threading.Lock()

    def observe(self, latency_seconds: float) -> None:
        """Record one completed request's end-to-end latency."""
        with self._lock:
            self._latencies.append(latency_seconds)

    def p95(self) -> float:
        """Sliding-window p95 latency (0.0 while the window is empty)."""
        with self._lock:
            if not self._latencies:
                return 0.0
            ordered = sorted(self._latencies)
            index = min(len(ordered) - 1, int(0.95 * len(ordered)))
            return ordered[index]

    @property
    def level(self) -> int:
        """The most recently commanded brownout level."""
        return self._level

    def evaluate(self, queue_depth: int, queue_capacity: int) -> int:
        """Re-evaluate and return the brownout level for current load.

        Latency alone never escalates: with an empty queue a slow request
        is just a slow request, and degrading plan quality would buy
        nothing. The p95 signal only counts once the queue shows real
        pressure (above the low watermark) — it then catches the slow
        backend *before* the queue hits the high watermark.
        """
        occupancy = queue_depth / queue_capacity if queue_capacity else 0.0
        # The p95 (a copy and sort of the window) is only taken strictly
        # between the watermarks, the one band where it can change the level.
        heavy = occupancy >= _HIGH_WATERMARK or (
            occupancy > _LOW_WATERMARK and self.p95() > _LATENCY_SLO_SECONDS
        )
        calm = occupancy <= _LOW_WATERMARK
        with self._lock:
            now = self._clock()
            if now - self._last_change >= self.cooldown_seconds:
                if heavy and self._level < len(_BROWNOUT_ENTRIES) - 1:
                    self._level += 1
                    self._last_change = now
                elif calm and self._level > 0:
                    self._level -= 1
                    self._last_change = now
            return self._level


# -- statistics-refresh circuit breaker ----------------------------------------


class StatsRefreshBreaker:
    """Coalesces statistics-refresh storms into bounded epoch churn.

    Every :meth:`OptimizationService.install_statistics` call invalidates
    the whole plan cache; a monitoring job calling ``analyze()`` in a
    tight loop would keep the cache permanently cold and every miss
    re-optimizing — a livelock. The breaker closes that loop:

    * **closed** — a refresh at least 0.25 s after the previous applied
      one goes straight through (``"applied"``);
    * **open** — refreshes inside the interval are *coalesced*: the
      snapshot is parked (newest wins, older parked snapshots are simply
      dropped — they were already stale) and the call returns
      ``"coalesced"`` without touching the epoch;
    * **half-open** — once the interval elapses, the next
      :meth:`flush` — the front door calls it opportunistically from its
      worker loop and after each hit it serves at admission — applies the
      parked snapshot and re-closes.

    The breaker never *loses* data: the newest snapshot always lands,
    just at a bounded epoch rate.
    """

    def __init__(
        self,
        service: OptimizationService,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._service = service
        self._clock = clock
        self._lock = threading.Lock()
        self._last_applied: float | None = None
        self._pending: CatalogStatistics | None = None
        #: Lifetime outcome counters.
        self.applied = 0
        self.coalesced = 0

    def _note(self, outcome: str) -> None:
        if _obs_enabled():
            _obs_metrics().counter(
                METRIC_STATS_REFRESHES_TOTAL,
                "Statistics refreshes through the circuit breaker, by outcome.",
                ("outcome",),
            ).inc(outcome=outcome)

    def install(self, stats: CatalogStatistics) -> str:
        """Refresh statistics through the breaker: "applied" | "coalesced"."""
        with self._lock:
            now = self._clock()
            if (
                self._last_applied is None
                or now - self._last_applied >= _STATS_REFRESH_INTERVAL_SECONDS
            ):
                self._service.install_statistics(stats)
                self._last_applied = now
                self._pending = None
                self.applied += 1
                self._note("applied")
                return "applied"
            self._pending = stats
            self.coalesced += 1
            self._note("coalesced")
            return "coalesced"

    def flush(self) -> bool:
        """Apply a parked snapshot if the interval has elapsed (half-open)."""
        with self._lock:
            if self._pending is None:
                return False
            now = self._clock()
            if (
                self._last_applied is not None
                and now - self._last_applied < _STATS_REFRESH_INTERVAL_SECONDS
            ):
                return False
            self._service.install_statistics(self._pending)
            self._last_applied = now
            self._pending = None
            self.applied += 1
            self._note("applied")
            return True

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (pending, interval up)."""
        with self._lock:
            if self._pending is None:
                return "closed"
            now = self._clock()
            if (
                self._last_applied is not None
                and now - self._last_applied < _STATS_REFRESH_INTERVAL_SECONDS
            ):
                return "open"
            return "half-open"


# -- the front door ------------------------------------------------------------


@dataclass(frozen=True)
class FrontDoorConfig:
    """Static configuration for one :class:`FrontDoor`.

    Attributes:
        queue_capacity: Bounded admission-queue depth; requests beyond it
            are shed with ``AdmissionRejected("queue-full")``.
        workers: Serving threads draining the queue.
        cooldown_seconds: Minimum time between brownout level changes
            (:class:`LoadController`).
    """

    queue_capacity: int = 32
    workers: int = 4
    cooldown_seconds: float = 0.25

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ServiceError(
                f"queue_capacity must be >= 1, got {self.queue_capacity!r}"
            )
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers!r}")


@dataclass(frozen=True)
class FrontDoorResult:
    """A served plan plus its admission/degradation provenance.

    Attributes:
        result: The underlying :class:`ServiceResult` (plan, cost,
            counters, cache/epoch metadata).
        tenant: Tenant the request was admitted under.
        brownout_level: Ladder level the request was served at (0 =
            baseline path, which every plan-cache hit is).
        entry: Optimizer entry technique actually used (the service's
            configured technique at level 0).
        queue_wait_seconds: Admission-to-dispatch queue time (0.0 for a
            hit served at admission).
        total_seconds: Admission-to-completion wall clock.
    """

    result: ServiceResult
    tenant: str
    brownout_level: int
    entry: str
    queue_wait_seconds: float
    total_seconds: float

    @property
    def degraded(self) -> bool:
        """True when the plan is not the full-quality baseline answer.

        Either the inner search itself fell down its fallback ladder, or
        the front door entered the ladder below baseline (any brownout
        level above 0) — both are honest "you got a cheaper plan" signals.
        """
        return self.result.degraded or self.brownout_level > 0


@dataclass(frozen=True)
class FrontDoorStats:
    """A point-in-time snapshot of front-door traffic counters."""

    admitted: int = 0
    completed: int = 0
    errors: int = 0
    shed_queue: int = 0
    shed_tenant: int = 0
    shed_shutdown: int = 0
    brownout_level: int = 0
    rung_entries: dict[str, int] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        return self.shed_queue + self.shed_tenant + self.shed_shutdown

    @property
    def submitted(self) -> int:
        return self.admitted + self.shed


@dataclass
class _Request:
    query: Query
    tenant: str
    future: Future
    admitted_at: float
    sql: str | None = None


class FrontDoor:
    """Admission control + brownout serving over an :class:`OptimizationService`.

    Usage::

        service = OptimizationService(technique="SDP")
        service.analyze(schema)
        with FrontDoor(service) as door:
            result = door.optimize(query, tenant="analytics")
            assert result.result.plan is not None
            assert not result.degraded          # unloaded: baseline path

    ``submit()`` is the asynchronous form: it returns a
    :class:`~concurrent.futures.Future` — already done for a plan-cache
    hit, which it serves itself, and pending for a miss, which it
    enqueues for a worker — or raises a typed
    :class:`~repro.errors.AdmissionRejected` immediately. All shedding
    happens at admission time — once admitted, a request is always
    served.

    Args:
        service: The backing optimization service (shared, thread-safe).
        config: Queue, worker and cooldown settings.
        tenants: Tenant policy/bucket registry; a fresh default registry
            when omitted.
        clock: Monotonic time source, forwarded to the load controller
            and circuit breaker (injectable for deterministic tests).
    """

    def __init__(
        self,
        service: OptimizationService,
        config: FrontDoorConfig | None = None,
        tenants: TenantRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or FrontDoorConfig()
        self.service = service
        self.tenants = tenants if tenants is not None else TenantRegistry(clock=clock)
        self._clock = clock
        self._queue: Queue[_Request] = Queue(maxsize=self.config.queue_capacity)
        self.controller = LoadController(self.config.cooldown_seconds, clock)
        self.breaker = StatsRefreshBreaker(service, clock)
        self._workers: list[threading.Thread] = []
        self._closing = threading.Event()
        self._started = False
        self._lock = threading.Lock()
        self._counts = {
            "admitted": 0,
            "completed": 0,
            "errors": 0,
            "shed-queue": 0,
            "shed-tenant": 0,
            "shed-shutdown": 0,
        }
        self._rung_entries: dict[str, int] = {}

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "FrontDoor":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._closing.is_set():
                raise ServiceError("front door cannot be restarted after close()")
            if self._started:
                return self
            for index in range(self.config.workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"frontdoor-worker-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
            self._started = True
        return self

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop admitting; optionally serve what is already queued.

        With ``drain=False`` every still-queued request is completed with
        ``AdmissionRejected("shutdown")`` — completed exceptionally, not
        abandoned: no future ever hangs.
        """
        # Under the lock submit() enqueues with: once the flag is set,
        # nothing more enters the queue.
        with self._lock:
            self._closing.set()
        if not drain:
            while True:
                try:
                    request = self._queue.get(block=False)
                except Empty:
                    break
                self._reject_queued(request)
        deadline = self._clock() + timeout
        for worker in self._workers:
            remaining = max(0.0, deadline - self._clock())
            worker.join(timeout=remaining)
        self._workers.clear()

    def __enter__(self) -> "FrontDoor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _reject_queued(self, request: _Request) -> None:
        self._count("shed-shutdown")
        request.future.set_exception(
            AdmissionRejected("shutdown", "front door closed before dispatch")
        )

    # -- admission --------------------------------------------------------------

    def submit(self, query: Query | str, tenant: str = "default") -> Future:
        """Admit ``query`` or raise a typed rejection, synchronously.

        ``query`` may be raw SQL text; it is parsed at admission time
        through the backing service's :meth:`~OptimizationService.parse`
        memo, so malformed SQL — like anything that is neither a
        ``Query`` nor text, which raises
        :class:`~repro.errors.ServiceError` — is rejected synchronously
        rather than poisoning a worker. The worker hands the service the
        text, which the memo answers without parsing again.

        Admission order: shutdown check, then the tenant's token bucket
        (a shed there must not consume queue capacity), then the plan
        cache, then the bounded queue. A plan-cache hit is served right
        here, on the calling thread, through
        :meth:`~OptimizationService.lookup`: its future is already done
        when ``submit`` returns, and it never takes queue capacity. Only a
        miss is queued for a worker. A request shed at the queue
        (``queue-full``, or ``shutdown``) gives its token back. The
        shutdown check is repeated with the enqueue, under the lock
        :meth:`close` sets its flag with, so a request whose admission
        overlaps ``close()`` is either refused or queued before the
        workers can see the door closed. The returned future resolves to
        a :class:`FrontDoorResult` (or to the error the optimization
        itself raised).
        """
        if self._closing.is_set():
            self._count("shed-shutdown")
            raise AdmissionRejected("shutdown", "front door is closing")
        if not self._started:
            raise ServiceError("front door not started (use start() or a with-block)")
        sql: str | None = None
        if isinstance(query, str):
            sql = query
            query, _ = self.service.parse(sql)
        elif not isinstance(query, Query):
            raise ServiceError(
                f"query must be a Query or SQL text, got {type(query).__name__}"
            )

        bucket = self.tenants.bucket(tenant)
        if not bucket.try_acquire():
            self._count("shed-tenant")
            raise TenantBudgetExhausted(tenant, bucket.retry_after())

        request = _Request(
            query=query,
            tenant=tenant,
            future=Future(),
            admitted_at=self._clock(),
            sql=sql,
        )
        hit = self.service.lookup(query if sql is None else sql)
        if hit is not None:
            self._serve_hit(request, hit)
            return request.future
        with self._lock:
            if self._closing.is_set():
                outcome = "shed-shutdown"
            else:
                try:
                    self._queue.put(request, block=False)
                    outcome = "admitted"
                except Full:
                    outcome = "shed-queue"
            # Counted inline: _count takes this same (non-reentrant) lock.
            self._counts[outcome] += 1
        if outcome != "admitted":
            bucket.refund()
            self._note_request(outcome)
            if outcome == "shed-shutdown":
                raise AdmissionRejected("shutdown", "front door is closing")
            raise AdmissionRejected(
                "queue-full",
                f"admission queue at capacity ({self.config.queue_capacity})",
            )
        if _obs_enabled():
            _obs_metrics().gauge(
                METRIC_FRONTDOOR_QUEUE_DEPTH,
                "Requests waiting in the front-door admission queue.",
            ).set(self._queue.qsize())
        return request.future

    def optimize(
        self,
        query: Query | str,
        tenant: str = "default",
        timeout: float = 60.0,
    ) -> FrontDoorResult:
        """Synchronous submit-and-wait (the common client path).

        ``timeout`` is a backstop, not a scheduling device: workers never
        abandon admitted work.
        """
        return self.submit(query, tenant=tenant).result(timeout=timeout)

    # -- serving ----------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            try:
                request = self._queue.get(timeout=_WORKER_POLL_SECONDS)
            except Empty:
                # Nothing is enqueued after the closing flag is set, so a
                # queue found empty after the flag stays empty.
                if self._closing.is_set() and self._queue.empty():
                    return
                self.breaker.flush()
                continue
            self._serve(request)
            self.breaker.flush()

    def _serve(self, request: _Request) -> None:
        started = self._clock()
        level = self.controller.evaluate(
            self._queue.qsize(), self.config.queue_capacity
        )
        ladder_entry = _BROWNOUT_ENTRIES[level]
        entry = ladder_entry or self.service.technique
        submission = request.query if request.sql is None else request.sql
        with maybe_span(
            current_tracer(), SPAN_FRONTDOOR_REQUEST,
            query=request.query.label, tenant=request.tenant,
            brownout_level=level, entry=entry,
        ) as span:
            try:
                if ladder_entry is None:
                    # Baseline: the exact service path an unloaded caller
                    # would take (cached, single-flighted, full budget).
                    inner = self.service.optimize(submission)
                else:
                    optimizer = RobustOptimizer(ladder_entry)
                    inner = self.service.optimize(submission, optimizer=optimizer)
            except Exception as exc:
                span.set(outcome="error")
                self._count("errors")
                self._note_request("error")
                request.future.set_exception(exc)
                return
            self._complete(
                request, span, inner, level, entry, started - request.admitted_at
            )

    def _serve_hit(self, request: _Request, inner: ServiceResult) -> None:
        """Serve a plan-cache hit at admission, on the submitting thread."""
        self._count("admitted")
        # As for a served request: brownout must still step down, and
        # parked statistics land, while the traffic is all hits.
        self.controller.evaluate(self._queue.qsize(), self.config.queue_capacity)
        with maybe_span(
            current_tracer(), SPAN_FRONTDOOR_REQUEST,
            query=request.query.label, tenant=request.tenant,
        ) as span:
            self._complete(request, span, inner, 0, self.service.technique, 0.0)
        self.breaker.flush()

    def _complete(
        self,
        request: _Request,
        span,
        inner: ServiceResult,
        level: int,
        entry: str,
        queue_wait: float,
    ) -> None:
        """Deliver ``inner`` and record it: counts, span, metrics, latency.

        A cache hit is the baseline search's plan whatever level the
        controller commands, so it reports level 0 and the service's
        technique.
        """
        if inner.cache_hit:
            level, entry = 0, self.service.technique
        total = self._clock() - request.admitted_at
        served = FrontDoorResult(
            result=inner,
            tenant=request.tenant,
            brownout_level=level,
            entry=entry,
            queue_wait_seconds=queue_wait,
            total_seconds=total,
        )
        span.set(
            outcome="ok", brownout_level=level, entry=entry,
            degraded=served.degraded, cache_hit=inner.cache_hit,
        )
        self.controller.observe(total)
        with self._lock:
            self._counts["completed"] += 1
            self._rung_entries[entry] = self._rung_entries.get(entry, 0) + 1
        self._note_request("ok")
        if _obs_enabled():
            registry = _obs_metrics()
            registry.histogram(
                METRIC_FRONTDOOR_LATENCY_SECONDS,
                "End-to-end front-door latency (admission to plan).",
            ).observe(total)
            registry.gauge(
                METRIC_FRONTDOOR_BROWNOUT_LEVEL,
                "Brownout level currently applied by the load controller.",
            ).set(self.controller.level)
            registry.counter(
                METRIC_FRONTDOOR_RUNG_ENTRIES_TOTAL,
                "Front-door ladder entries chosen, by technique.",
                ("entry",),
            ).inc(entry=entry)
        request.future.set_result(served)

    # -- statistics lifecycle ----------------------------------------------------

    def install_statistics(self, stats: CatalogStatistics) -> str:
        """Refresh statistics through the circuit breaker.

        Returns the breaker outcome (``"applied"`` or ``"coalesced"``);
        a coalesced snapshot is applied by a worker once the refresh
        interval elapses.
        """
        return self.breaker.install(stats)

    # -- introspection -----------------------------------------------------------

    def _count(self, key: str) -> None:
        with self._lock:
            self._counts[key] += 1
        if key.startswith("shed-"):
            self._note_request(key)

    def _note_request(self, outcome: str) -> None:
        if _obs_enabled():
            _obs_metrics().counter(
                METRIC_FRONTDOOR_REQUESTS_TOTAL,
                "Front-door request dispositions.",
                ("outcome",),
            ).inc(outcome=outcome)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def stats(self) -> FrontDoorStats:
        """A consistent snapshot of the traffic counters."""
        with self._lock:
            return FrontDoorStats(
                admitted=self._counts["admitted"],
                completed=self._counts["completed"],
                errors=self._counts["errors"],
                shed_queue=self._counts["shed-queue"],
                shed_tenant=self._counts["shed-tenant"],
                shed_shutdown=self._counts["shed-shutdown"],
                brownout_level=self.controller.level,
                rung_entries=dict(self._rung_entries),
            )

    def __repr__(self) -> str:
        return (
            f"FrontDoor(workers={self.config.workers}, "
            f"queue={self._queue.qsize()}/{self.config.queue_capacity}, "
            f"level={self.controller.level})"
        )
