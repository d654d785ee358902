"""The optimization service: a cached, epoch-aware ``optimize()`` front end.

:class:`OptimizationService` is what a query engine would actually embed:
it owns an optimizer (any registry technique, including the robust
fallback ladder), a statistics snapshot with an explicit *epoch*, and a
:class:`~repro.service.cache.PlanCache`. Repeated — or merely
*equivalent* — queries are answered from the cache in microseconds; an
``analyze()`` refresh bumps the epoch and invalidates every cached plan,
so the service never serves a plan optimized against stale statistics.

Usage::

    service = OptimizationService(technique="SDP", cache_capacity=256)
    service.analyze(schema)             # install statistics (epoch 1)
    first = service.optimize(query)     # cold: runs the search
    again = service.optimize(query)     # warm: cache hit, no search
    assert again.cache_hit and again.cost == first.cost
    service.analyze(schema)             # stats refresh -> epoch 2
    cold = service.optimize(query)      # re-optimizes against new stats

The service is safe to call from many threads (the front door,
:mod:`repro.service.frontdoor`, does exactly that):

* statistics installs are an **atomic epoch swap** — snapshot, epoch and
  cache invalidation flip under one lock, so a concurrent ``optimize()``
  either sees the old world entirely or the new world entirely;
* cold misses on the same ``(fingerprint, epoch)`` are **single-flight**:
  one caller runs the search, the rest wait (bounded) and then serve the
  cached result, so a thundering herd on a hot fingerprint costs one
  search, not N;
* SQL text is parsed once per distinct text: :meth:`OptimizationService.parse`
  keeps a bounded LRU from text to ``(Query, fingerprint)`` for the
  retained schema, shared by every caller under the service lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.catalog.schema import Schema
from repro.catalog.statistics import CatalogStatistics, analyze
from repro.core.base import Optimizer, OptimizerResult, SearchBudget, evolve
from repro.core.registry import make_optimizer
from repro.cost.model import CostModel
from repro.errors import ServiceError
from repro.obs.names import SPAN_SERVICE_OPTIMIZE
from repro.obs.runtime import current_tracer
from repro.obs.trace import maybe_span
from repro.query.parser import parse_sql
from repro.query.query import Query
from repro.service.cache import CacheStats, PlanCache
from repro.service.fingerprint import query_fingerprint
from repro.util.timer import Timer

__all__ = ["ServiceResult", "OptimizationService"]

#: How long a single-flight follower waits for the leader's search before
#: giving up and running its own. Bounded on purpose: a wedged leader
#: (or one cancelled mid-search) must not hang every follower forever.
INFLIGHT_WAIT_SECONDS = 30.0


@dataclass(frozen=True)
class ServiceResult(OptimizerResult):
    """An :class:`OptimizerResult` plus serving-layer metadata.

    Attributes:
        cache_hit: True when the plan came from the cache; in that case
            ``elapsed_seconds`` is the lookup time, while ``plans_costed``
            and ``modeled_memory_mb`` still describe the original search
            that produced the plan.
        fingerprint: Canonical query fingerprint used as the cache key.
        stats_epoch: Statistics epoch the plan was optimized under.
    """

    cache_hit: bool = False
    fingerprint: str = ""
    stats_epoch: int = 0


class OptimizationService:
    """A caching optimizer façade bound to one statistics snapshot.

    Args:
        technique: Registry name of the backing optimizer (``"SDP"``,
            ``"DP"``, ``"Robust"``, ...).
        budget: Per-optimization search budget.
        cost_model: Cost-model override.
        cache_capacity: Plan-cache LRU capacity (an ``int`` >= 1); it
            bounds the SQL-text memo of :meth:`parse` too.
    """

    def __init__(
        self,
        technique: str = "SDP",
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
        cache_capacity: int = 128,
    ):
        self.technique = technique
        self._optimizer = make_optimizer(
            technique, budget=budget, cost_model=cost_model
        )
        self._cache = PlanCache(cache_capacity)
        # SQL text -> (Query, fingerprint) parsed against ``_schema``.
        self._parsed: OrderedDict[str, tuple[Query, str]] = OrderedDict()
        self._stats: CatalogStatistics | None = None
        self._schema: Schema | None = None
        self._epoch = 0
        # RLock: analyze() -> install_statistics() nests under optimize()'s
        # epoch-snapshot critical section.
        self._lock = threading.RLock()
        self._inflight: dict[tuple, threading.Event] = {}

    # -- statistics lifecycle ----------------------------------------------------

    def analyze(self, schema: Schema) -> CatalogStatistics:
        """Collect fresh statistics for ``schema`` and install them.

        Bumps the statistics epoch and invalidates the plan cache: every
        plan optimized before this call is considered stale. The schema
        is retained so subsequent :meth:`optimize` calls may submit raw
        SQL text without re-passing it; a schema other than the retained
        one drops the texts :meth:`parse` memoized against the old one.
        """
        with self._lock:
            if schema is not self._schema:
                self._parsed.clear()
            self._schema = schema
            return self.install_statistics(analyze(schema))

    def install_statistics(self, stats: CatalogStatistics) -> CatalogStatistics:
        """Install a pre-collected snapshot (same epoch/invalidation rules).

        The swap is atomic: snapshot, epoch bump and cache invalidation
        happen under the service lock, so concurrent ``optimize()`` calls
        see either the old (snapshot, epoch) pair or the new one — never
        a mix. In-flight searches against the old epoch finish and cache
        under their old key, which can no longer be served. The SQL-text
        memo survives: parsing reads no statistics.
        """
        with self._lock:
            self._stats = stats
            self._epoch += 1
            self._cache.invalidate()
        return stats

    @property
    def stats_epoch(self) -> int:
        """Current statistics epoch (0 = no statistics installed yet)."""
        return self._epoch

    @property
    def statistics(self) -> CatalogStatistics | None:
        return self._stats

    # -- optimization ------------------------------------------------------------

    @property
    def schema(self) -> Schema | None:
        """Schema retained by :meth:`analyze` (SQL-text parsing target)."""
        return self._schema

    def parse(self, sql: str) -> tuple[Query, str]:
        """``(Query, fingerprint)`` of ``sql`` parsed against the retained schema.

        Memoized per text in an LRU bounded by ``cache_capacity``, so a
        repeated text costs one dict lookup instead of a parse and a
        fingerprint, and every caller of one text shares one ``Query``.
        Statistics installs keep the memo; :meth:`analyze` of another
        schema drops it. Malformed text is never memoized.

        Raises:
            ServiceError: ``sql`` is not text, or no schema is retained.
            QueryError: malformed SQL text.
        """
        if not isinstance(sql, str):
            raise ServiceError(f"sql must be text, got {type(sql).__name__}")
        return self._parse(sql)

    def _parse(self, sql: str) -> tuple[Query, str]:
        """:meth:`parse` of text already known to be a string."""
        with self._lock:
            retained = self._schema
            parsed = self._parsed.get(sql)
            if parsed is not None:
                self._parsed.move_to_end(sql)
                return parsed
        if retained is None:
            raise ServiceError(
                "SQL text needs a schema to parse against: analyze() one first"
            )
        query = parse_sql(retained, sql)
        parsed = (query, query_fingerprint(query))
        with self._lock:
            if self._schema is retained:
                # A racing parse of the same text may have landed
                # first: keep its entry so all callers share it.
                parsed = self._parsed.setdefault(sql, parsed)
                if len(self._parsed) > self._cache.capacity:
                    self._parsed.popitem(last=False)
        return parsed

    def _resolve(self, query: Query | str) -> tuple[Query, str | None, str | None]:
        """``(Query, sql, fingerprint)`` of a submission.

        Text goes through :meth:`_parse`, which also gives its
        fingerprint; a ``Query`` keeps ``sql`` and ``fingerprint`` None.
        """
        if isinstance(query, str):
            parsed, fingerprint = self._parse(query)
            return parsed, query, fingerprint
        if not isinstance(query, Query):
            raise ServiceError(
                f"query must be a Query or SQL text, got {type(query).__name__}"
            )
        return query, None, None

    def lookup(self, query: Query | str) -> ServiceResult | None:
        """The cached plan for ``query`` at the current epoch, or None.

        Lookup only: it never searches, never installs statistics and
        never waits for another caller's search. Text goes through the
        :meth:`parse` memo. A hit is returned as :meth:`optimize` would
        return it and counted in :attr:`cache_stats`; a miss is not
        counted, because the caller follows it with :meth:`optimize`,
        whose own lookup counts it (the front door's admission probe).

        Raises:
            ServiceError: ``query`` is neither a ``Query`` nor text, or
                is text with no retained schema.
            QueryError: malformed SQL text.
        """
        timer = Timer().start()
        query, sql, fingerprint = self._resolve(query)
        if fingerprint is None:
            fingerprint = query_fingerprint(query)
        cached = self._cache.probe((fingerprint, self._epoch))
        return None if cached is None else self._hit(cached, timer, query, sql)

    def optimize(
        self,
        query: Query | str,
        stats: CatalogStatistics | None = None,
        *,
        optimizer: Optimizer | None = None,
    ) -> ServiceResult:
        """Optimize ``query``, serving repeated fingerprints from cache.

        Args:
            query: The query to optimize — a :class:`~repro.query.Query`,
                or raw SQL text. Text is parsed against the schema
                retained by the last :meth:`analyze`, through the
                :meth:`parse` memo; the parsed form is fingerprinted with
                selection constants collapsed into selectivity buckets, so
                a templated workload re-issuing one SQL shape with
                different constants hits the warm cache.
            stats: Optional snapshot override. Passing a *different* object
                than the installed one installs it first (bumping the epoch
                and invalidating the cache); passing the installed object
                again is a no-op. With no snapshot installed and none
                passed, statistics are collected from ``query.schema``.
            optimizer: Per-call optimizer override (the front door's
                brownout path). The cache is still *consulted* — a warm
                full-quality plan beats any degraded search — but the
                override's result is **not cached** (degraded plans must
                not shadow full-quality ones once load drops) and misses
                are not single-flighted (each degraded request pays its
                own, deliberately cheap, search).

        Raises:
            ServiceError: SQL text submitted with no schema to parse
                against, or a ``query`` that is neither a ``Query`` nor
                text.
            QueryError: malformed SQL text.
            OptimizationBudgetExceeded: propagated from the backing
                optimizer; budget trips are never cached.
        """
        query, sql, fingerprint = self._resolve(query)
        with self._lock:
            if stats is not None:
                if stats is not self._stats:
                    self.install_statistics(stats)
            elif self._stats is None:
                self.analyze(query.schema)
            snapshot = self._stats
            epoch = self._epoch

        timer = Timer().start()
        with maybe_span(
            current_tracer(), SPAN_SERVICE_OPTIMIZE,
            technique=self.technique, query=query.label,
        ) as span:
            if fingerprint is None:
                fingerprint = query_fingerprint(query)
            span.set(fingerprint=fingerprint, epoch=epoch)
            key = (fingerprint, epoch)
            cached = self._cache.get(key)
            if cached is not None:
                span.set(cache_hit=True)
                return self._hit(cached, timer, query, sql)
            span.set(cache_hit=False)

            if optimizer is not None:
                result = optimizer.optimize(query, snapshot)
                return self._served(
                    result, fingerprint, epoch, cache=False,
                    query=query, sql=sql,
                )

            leader, event = self._claim(key)
            if not leader:
                span.set(single_flight="follower")
                event.wait(timeout=INFLIGHT_WAIT_SECONDS)
                # The lookup above counted this request's miss: this read of
                # the leader's plan is not counted again.
                cached = self._cache.peek(key)
                if cached is not None:
                    return self._hit(cached, timer, query, sql)
                # Leader failed, timed out, or the epoch moved: compute
                # independently rather than re-electing (no herd left —
                # every waiter was woken by the same event).
                result = self._optimizer.optimize(query, snapshot)
                return self._served(
                    result, fingerprint, epoch, cache=True,
                    query=query, sql=sql,
                )

            try:
                result = self._optimizer.optimize(query, snapshot)
                served = self._served(
                    result, fingerprint, epoch, cache=True,
                    query=query, sql=sql,
                )
            finally:
                self._release(key, event)
            return served

    def _hit(
        self, cached: object, timer: Timer, query: Query, sql: str | None
    ) -> ServiceResult:
        """A cached result as served to this call: its query, text and time."""
        return evolve(
            cached,  # type: ignore[arg-type]
            cache_hit=True,
            elapsed_seconds=timer.stop(),
            query=query,
            sql=sql,
        )

    def _served(
        self,
        result: OptimizerResult,
        fingerprint: str,
        epoch: int,
        cache: bool,
        query: Query | None = None,
        sql: str | None = None,
    ) -> ServiceResult:
        """Wrap an optimizer result; optionally publish it to the cache."""
        served = ServiceResult(
            technique=result.technique,
            plan=result.plan,
            cost=result.cost,
            rows=result.rows,
            plans_costed=result.plans_costed,
            modeled_memory_mb=result.modeled_memory_mb,
            elapsed_seconds=result.elapsed_seconds,
            jcrs_created=result.jcrs_created,
            jcrs_pruned=result.jcrs_pruned,
            degraded=result.degraded,
            cache_hit=False,
            fingerprint=fingerprint,
            stats_epoch=epoch,
            query=query,
            sql=sql,
        )
        if cache:
            self._cache.put((fingerprint, epoch), served)
        return served

    # -- single-flight bookkeeping -----------------------------------------------

    def _claim(self, key: tuple) -> tuple[bool, threading.Event]:
        """Elect a leader for ``key``: (am_leader, the key's event)."""
        with self._lock:
            event = self._inflight.get(key)
            if event is not None:
                return False, event
            event = threading.Event()
            self._inflight[key] = event
            return True, event

    def _release(self, key: tuple, event: threading.Event) -> None:
        """Leader done (cached or failed): wake every follower."""
        with self._lock:
            if self._inflight.get(key) is event:
                del self._inflight[key]
        event.set()

    # -- introspection -----------------------------------------------------------

    @property
    def optimizer(self) -> Optimizer:
        """The backing optimizer (shared across calls and threads).

        Exposed so harnesses can instrument it — e.g. the chaos harness
        installs a :class:`~repro.robust.faults.SlowCostModel` here to
        slow the default path down without changing its answers.
        """
        return self._optimizer

    @property
    def cache(self) -> PlanCache:
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction/invalidation counters of the plan cache."""
        return self._cache.stats

    def __repr__(self) -> str:
        stats = self._cache.stats
        return (
            f"OptimizationService(technique={self.technique!r}, "
            f"epoch={self._epoch}, cached={len(self._cache)}, "
            f"hit_rate={stats.hit_rate:.2f})"
        )
