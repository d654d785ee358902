"""Tests for the overload-robust serving front door.

Unit tests drive every component deterministically — the load
controller on a fake clock, the statistics-refresh circuit breaker,
admission shedding, tenant isolation, plan-cache hits served at
admission, the plan each brownout level serves — and a
``stress``-marked smoke test asserts the end-to-end serving contract at
4x sustained overload with chaos faults installed.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.base import SearchBudget
from repro.errors import (
    AdmissionRejected,
    ReproError,
    ServiceError,
    TenantBudgetExhausted,
)
from repro.service import (
    FrontDoor,
    FrontDoorConfig,
    FrontDoorStats,
    LoadController,
    OptimizationService,
    StatsRefreshBreaker,
    TenantBudget,
    TenantPolicy,
    TenantRegistry,
)
from repro.service.frontdoor import _LATENCY_SLO_SECONDS
from tests.conftest import make_star_query


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def service(small_schema, small_stats):
    svc = OptimizationService(
        technique="SDP", budget=SearchBudget(max_seconds=10.0)
    )
    svc.install_statistics(small_stats)
    return svc


@pytest.fixture
def query(small_schema):
    return make_star_query(small_schema, 5)


# ---------------------------------------------------------------------------
# Load controller
# ---------------------------------------------------------------------------


class TestLoadController:
    def make(self, clock):
        return LoadController(cooldown_seconds=1.0, clock=clock)

    def test_starts_at_baseline(self):
        controller = self.make(FakeClock())
        assert controller.level == 0

    def test_high_occupancy_escalates_one_level_per_cooldown(self):
        clock = FakeClock()
        controller = self.make(clock)
        # Cooldown has not elapsed since construction: no change yet.
        assert controller.evaluate(8, 8) == 0
        clock.advance(1.0)
        assert controller.evaluate(8, 8) == 1
        # Rate-limited: an immediate re-evaluation cannot skip levels.
        assert controller.evaluate(8, 8) == 1
        clock.advance(1.0)
        assert controller.evaluate(8, 8) == 2
        clock.advance(1.0)
        assert controller.evaluate(8, 8) == 3
        clock.advance(1.0)
        assert controller.evaluate(8, 8) == 3  # capped at the last rung

    def test_latency_alone_never_escalates(self):
        clock = FakeClock()
        controller = self.make(clock)
        for _ in range(64):
            controller.observe(10.0)
        assert controller.p95() > _LATENCY_SLO_SECONDS
        clock.advance(5.0)
        assert controller.evaluate(0, 8) == 0

    def test_latency_with_queue_pressure_escalates(self):
        clock = FakeClock()
        controller = self.make(clock)
        for _ in range(64):
            controller.observe(10.0)
        clock.advance(1.0)
        # Half-full queue is below the high watermark but above the low
        # one, so the p95 breach counts.
        assert controller.evaluate(4, 8) == 1

    def test_calm_queue_deescalates(self):
        clock = FakeClock()
        controller = self.make(clock)
        clock.advance(1.0)
        assert controller.evaluate(8, 8) == 1
        # Still slow in the window, but the queue is empty: stand down.
        for _ in range(64):
            controller.observe(10.0)
        clock.advance(1.0)
        assert controller.evaluate(0, 8) == 0

    def test_mid_band_occupancy_holds_level(self):
        clock = FakeClock()
        controller = self.make(clock)
        clock.advance(1.0)
        assert controller.evaluate(8, 8) == 1
        clock.advance(1.0)
        # Between the watermarks with a healthy p95: neither heavy nor calm.
        assert controller.evaluate(4, 8) == 1

    def test_p95_is_read_only_between_the_watermarks(self, monkeypatch):
        clock = FakeClock()
        controller = self.make(clock)
        reads = []
        monkeypatch.setattr(controller, "p95", lambda: reads.append(1) or 0.0)
        clock.advance(1.0)
        # Empty, at the low watermark, at the high one, and full: the p95
        # cannot change the level, so it is never taken.
        for depth in (0, 2, 6, 8):
            controller.evaluate(depth, 8)
        assert reads == []
        controller.evaluate(4, 8)
        assert reads == [1]

    def test_empty_window_p95_is_zero(self):
        assert self.make(FakeClock()).p95() == 0.0

    @pytest.mark.parametrize(
        "setting",
        [
            # A NaN cooldown would never change level.
            {"cooldown_seconds": float("nan")},
            {"cooldown_seconds": -1.0},
        ],
        ids=["cooldown-nan", "cooldown-negative"],
    )
    def test_setting_validation(self, setting):
        with pytest.raises(ServiceError, match=next(iter(setting))):
            LoadController(**setting)


# ---------------------------------------------------------------------------
# Statistics-refresh circuit breaker
# ---------------------------------------------------------------------------


class RecordingService:
    """Stands in for OptimizationService: records installed snapshots."""

    def __init__(self):
        self.installed = []

    def install_statistics(self, stats):
        self.installed.append(stats)


class TestStatsRefreshBreaker:
    def test_first_refresh_applies(self):
        service = RecordingService()
        breaker = StatsRefreshBreaker(service, clock=FakeClock())
        assert breaker.install("s1") == "applied"
        assert service.installed == ["s1"]
        assert breaker.state == "closed"

    def test_storm_coalesces_newest_wins(self):
        service = RecordingService()
        clock = FakeClock()
        breaker = StatsRefreshBreaker(service, clock=clock)
        breaker.install("s1")
        assert breaker.install("s2") == "coalesced"
        assert breaker.install("s3") == "coalesced"
        assert breaker.state == "open"
        assert service.installed == ["s1"]
        # Inside the interval flush() is a no-op (breaker still open).
        assert breaker.flush() is False
        clock.advance(1.0)
        assert breaker.state == "half-open"
        assert breaker.flush() is True
        # Only the newest parked snapshot lands; s2 was already stale.
        assert service.installed == ["s1", "s3"]
        assert breaker.state == "closed"
        assert (breaker.applied, breaker.coalesced) == (2, 2)

    def test_spaced_refreshes_all_apply(self):
        service = RecordingService()
        clock = FakeClock()
        breaker = StatsRefreshBreaker(service, clock=clock)
        for snapshot in ("s1", "s2", "s3"):
            assert breaker.install(snapshot) == "applied"
            clock.advance(1.0)
        assert service.installed == ["s1", "s2", "s3"]
        assert breaker.coalesced == 0

    def test_flush_without_pending_is_noop(self):
        breaker = StatsRefreshBreaker(RecordingService(), clock=FakeClock())
        assert breaker.flush() is False


# ---------------------------------------------------------------------------
# Front-door configuration
# ---------------------------------------------------------------------------


class TestFrontDoorConfig:
    def test_queue_capacity_validation(self):
        with pytest.raises(ServiceError):
            FrontDoorConfig(queue_capacity=0)

    def test_workers_validation(self):
        with pytest.raises(ServiceError):
            FrontDoorConfig(workers=0)

    @pytest.mark.parametrize("bad", [0, -1.0, float("nan")])
    def test_tenant_budget_validation(self, bad):
        with pytest.raises(ServiceError, match="capacity"):
            TenantBudget(capacity=bad)
        with pytest.raises(ServiceError, match="refill"):
            TenantBudget(refill_per_second=bad)

    def test_tenant_refund_undoes_an_acquire(self):
        clock = FakeClock()
        bucket = TenantBudget(capacity=2.0, refill_per_second=1.0, clock=clock)
        assert bucket.try_acquire()
        bucket.refund()
        assert (bucket.available, bucket.admitted) == (2.0, 0)
        # A refund never lifts the bucket past its capacity.
        assert bucket.try_acquire()
        clock.advance(5.0)
        bucket.refund()
        assert (bucket.available, bucket.admitted) == (2.0, 0)

    def test_stats_properties(self):
        stats = FrontDoorStats(
            admitted=5, completed=4, shed_queue=2, shed_tenant=1, shed_shutdown=3
        )
        assert stats.shed == 6
        assert stats.submitted == 11


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


class TestFrontDoorServing:
    def test_unloaded_request_is_baseline(self, service, query):
        # A huge cooldown pins the controller at level 0 for the whole test.
        config = FrontDoorConfig(workers=2, cooldown_seconds=60.0)
        with FrontDoor(service, config) as door:
            first = door.optimize(query)
            assert first.brownout_level == 0
            assert first.entry == service.technique
            assert not first.degraded
            assert first.result.plan is not None
            assert not first.result.cache_hit
            assert first.total_seconds >= first.queue_wait_seconds >= 0.0
            # The baseline path is the plain service path: it caches.
            second = door.optimize(query)
            assert second.result.cache_hit
            assert second.result.plan == first.result.plan
        stats = door.stats()
        assert stats.admitted == stats.completed == 2
        assert stats.shed == 0
        assert stats.rung_entries == {service.technique: 2}

    def test_submit_before_start_raises(self, service, query):
        door = FrontDoor(service)
        with pytest.raises(ServiceError):
            door.submit(query)

    def test_wrong_type_submission_rejected_worker_survives(
        self, service, query
    ):
        # One worker: a bad request reaching it would kill the only thread
        # and leave every later request waiting for a TimeoutError.
        config = FrontDoorConfig(workers=1, cooldown_seconds=60.0)
        with FrontDoor(service, config) as door:
            for bad in (123, None):
                with pytest.raises(ReproError, match="Query or SQL text"):
                    door.submit(bad)
            served = door.optimize(query, timeout=30.0)
            assert served.result.plan is not None
        stats = door.stats()
        assert stats.admitted == stats.completed == 1


class TestFrontDoorSql:
    def _analyzed_service(self, small_schema):
        svc = OptimizationService(
            technique="SDP", budget=SearchBudget(max_seconds=10.0)
        )
        svc.analyze(small_schema)
        return svc

    def _sql(self, small_schema):
        names = small_schema.relation_names
        return (
            f"SELECT * FROM {names[0]}, {names[1]} "
            f"WHERE {names[0]}.c1 = {names[1]}.c2 AND {names[0]}.c3 < 40"
        )

    def test_sql_submission_matches_query_path(self, small_schema, parse_calls):
        from repro.query import parse_sql

        sql = self._sql(small_schema)
        svc = self._analyzed_service(small_schema)
        config = FrontDoorConfig(workers=2, cooldown_seconds=60.0)
        with FrontDoor(svc, config) as door:
            # N submissions of one text parse it once: admission and the
            # worker both answer from the service's text memo.
            served = [door.optimize(sql) for _ in range(5)]
            assert parse_calls == [sql]
            # One lookup counted per request: the four hits at admission,
            # the first request's miss by its worker.
            cache = svc.cache_stats
            assert (cache.hits, cache.misses) == (4, 1)
            from_sql = served[0]
            assert [s.result.cache_hit for s in served] == [False] + [True] * 4
            assert all(s.result.query is from_sql.result.query for s in served)
            assert all(s.result.cost == from_sql.result.cost for s in served)
            from_query = door.optimize(parse_sql(small_schema, sql))
            assert parse_calls == [sql]
            assert from_sql.result.cost == from_query.result.cost
            assert from_sql.result.sql == sql
            assert from_sql.result.query is not None
            assert from_query.result.sql is None
            # Same canonical form: the second submission is a warm hit.
            assert from_query.result.cache_hit
        # Two service.optimize(sql) calls of another text parse it once.
        other = sql.replace("< 40", "< 45")
        first, second = svc.optimize(other), svc.optimize(other)
        assert parse_calls == [sql, other]
        assert second.sql == other and second.query is first.query

    def test_hit_keeps_its_provenance(self, small_schema):
        from repro.query import parse_sql
        from repro.service import ServiceResult

        svc = self._analyzed_service(small_schema)
        sql = self._sql(small_schema)
        query = parse_sql(small_schema, sql)
        with FrontDoor(svc, FrontDoorConfig(workers=1)) as door:
            missed = door.optimize(sql).result
            by_text = door.optimize(sql).result
            by_query = door.optimize(query).result
        cached = svc.cache.get((missed.fingerprint, missed.stats_epoch))
        for hit, hit_sql, hit_query in (
            (by_text, sql, missed.query), (by_query, None, query),
        ):
            assert type(hit) is ServiceResult and hit.cache_hit
            assert hit.sql == hit_sql and hit.query is hit_query
            assert hit.elapsed_seconds >= 0.0
            assert hit.plan is missed.plan and hit.cost == missed.cost
            assert hit.plans_costed == missed.plans_costed
            assert (hit.fingerprint, hit.stats_epoch) == (missed.fingerprint, 1)
        # Serving a hit copies the cached result; the entry itself is the
        # miss's result, untouched.
        assert cached is missed and not cached.cache_hit
        assert cached.elapsed_seconds == missed.elapsed_seconds

    def test_malformed_sql_rejected_at_admission(self, small_schema, parse_calls):
        from repro.errors import QueryError

        bad = "SELECT * FROM nope WHERE"
        svc = self._analyzed_service(small_schema)
        with FrontDoor(svc) as door:
            for _ in range(3):
                with pytest.raises(QueryError):
                    door.submit(bad)
        with pytest.raises(QueryError):
            svc.optimize(bad)
        # Every submission parsed afresh: nothing was memoized or cached.
        assert parse_calls == [bad] * 4
        assert door.stats().admitted == 0
        assert len(svc.cache) == 0 and svc.cache_stats.lookups == 0

    def test_sql_needs_analyzed_schema(self, service, small_schema):
        # The shared fixture installs statistics but never a schema.
        with FrontDoor(service) as door:
            with pytest.raises(ServiceError, match="schema"):
                door.submit(self._sql(small_schema))

    def test_submit_after_close_is_typed_shutdown(self, service, query):
        door = FrontDoor(service).start()
        door.close()
        with pytest.raises(AdmissionRejected) as excinfo:
            door.submit(query)
        assert excinfo.value.reason == "shutdown"

    def test_restart_after_close_rejected(self, service):
        door = FrontDoor(service).start()
        door.close()
        with pytest.raises(ServiceError):
            door.start()

    def test_tenant_budget_rejection_and_isolation(self, service, query):
        clock = FakeClock()
        tenants = TenantRegistry(
            default_policy=TenantPolicy(bucket_capacity=1.0, refill_per_second=1.0),
            clock=clock,
        )
        config = FrontDoorConfig(workers=1, cooldown_seconds=60.0)
        with FrontDoor(service, config, tenants=tenants) as door:
            door.optimize(query, tenant="loud")
            with pytest.raises(TenantBudgetExhausted) as excinfo:
                door.submit(query, tenant="loud")
            assert excinfo.value.reason == "tenant-budget"
            assert excinfo.value.tenant == "loud"
            assert excinfo.value.retry_after_seconds > 0.0
            # One tenant's storm is not another tenant's problem.
            quiet = door.optimize(query, tenant="quiet")
            assert quiet.result.plan is not None
            # The bucket refills continuously: the loud tenant recovers.
            clock.advance(1.0)
            recovered = door.optimize(query, tenant="loud")
            assert recovered.result.plan is not None
        assert door.stats().shed_tenant == 1

    def _gate(self, service):
        """Make the service's optimize block until the event is set."""
        release = threading.Event()
        real = service.optimize

        def gated(query, stats=None, **kwargs):
            assert release.wait(timeout=10.0), "test gate never released"
            return real(query, stats, **kwargs)

        service.optimize = gated
        return release

    def test_queue_full_shedding(self, service, query):
        release = self._gate(service)
        config = FrontDoorConfig(
            queue_capacity=2, workers=1, cooldown_seconds=60.0
        )
        with FrontDoor(service, config) as door:
            first = door.submit(query)
            for _ in range(200):  # wait for the worker to dequeue it
                if door.queue_depth == 0:
                    break
                time.sleep(0.01)
            queued = [door.submit(query), door.submit(query)]
            with pytest.raises(AdmissionRejected) as excinfo:
                door.submit(query)
            assert excinfo.value.reason == "queue-full"
            release.set()
            for future in [first, *queued]:
                assert future.result(timeout=10.0).result.plan is not None
        stats = door.stats()
        assert stats.admitted == 3
        assert stats.completed == 3
        assert stats.shed_queue == 1

    def _hold_worker(self, door, service, query):
        """Hold the only worker on a gated miss and queue one more behind it.

        Returns the gate and the two admitted futures.
        """
        release = self._gate(service)
        held = door.submit(query)
        for _ in range(200):  # wait for the worker to dequeue it
            if door.queue_depth == 0:
                break
            time.sleep(0.01)
        return release, [held, door.submit(query)]

    def test_cache_hit_is_served_at_admission(self, small_schema, query):
        svc = self._analyzed_service(small_schema)
        sql = self._sql(small_schema)
        config = FrontDoorConfig(queue_capacity=1, workers=1, cooldown_seconds=60.0)
        with FrontDoor(svc, config) as door:
            cached = door.optimize(sql)
            release, admitted = self._hold_worker(door, svc, query)
            with pytest.raises(AdmissionRejected) as excinfo:
                door.submit(query)
            assert excinfo.value.reason == "queue-full"
            # A hit takes no queue capacity and no worker.
            future = door.submit(sql)
            assert future.done()
            hit = future.result(timeout=0)
            assert hit.result.cache_hit
            assert hit.result.plan == cached.result.plan
            assert hit.queue_wait_seconds == 0.0
            assert hit.total_seconds >= 0.0
            stats = door.stats()
            assert (stats.admitted, stats.completed, stats.shed_queue) == (4, 2, 1)
            release.set()
            for held in admitted:
                assert held.result(timeout=10.0).result.plan is not None

    def test_queue_shed_gives_the_token_back(self, service, query):
        # The frozen clock refills nothing: the bucket shows every token.
        clock = FakeClock()
        config = FrontDoorConfig(queue_capacity=1, workers=1, cooldown_seconds=60.0)
        with FrontDoor(service, config, clock=clock) as door:
            release, admitted = self._hold_worker(door, service, query)
            for _ in range(6):
                with pytest.raises(AdmissionRejected) as excinfo:
                    door.submit(query)
                assert excinfo.value.reason == "queue-full"
            bucket = door.tenants.bucket("default")
            assert (bucket.available, bucket.admitted) == (6.0, 2)
            release.set()
            for held in admitted:
                assert held.result(timeout=10.0).result.plan is not None
        assert door.stats().shed_queue == 6

    def test_cache_hit_under_brownout_reports_the_baseline(self, small_schema):
        svc = self._analyzed_service(small_schema)
        sql = self._sql(small_schema)
        clock = FakeClock()
        config = FrontDoorConfig(queue_capacity=8, workers=1, cooldown_seconds=1.0)
        with FrontDoor(svc, config, clock=clock) as door:
            baseline = door.optimize(sql)
            clock.advance(1.0)
            assert door.controller.evaluate(8, 8) == 1
            clock.advance(1.0)
            assert door.controller.evaluate(8, 8) == 2
            hit = door.optimize(sql)
            # A request that missed at admission can still hit in the
            # worker, where a leader filled the key while it waited.
            svc.lookup = lambda submission: None
            late = door.optimize(sql)
            assert door.controller.level == 2
        for served in (hit, late):
            assert served.result.cache_hit
            assert (served.brownout_level, served.entry) == (0, svc.technique)
            assert not served.degraded
            assert served.result.plan == baseline.result.plan
        assert door.stats().rung_entries == {svc.technique: 3}

    def test_cache_hit_records_one_request_span(self, small_schema):
        from repro import obs
        from repro.obs.names import (
            METRIC_FRONTDOOR_LATENCY_SECONDS,
            METRIC_FRONTDOOR_REQUESTS_TOTAL,
            METRIC_FRONTDOOR_RUNG_ENTRIES_TOTAL,
            SPAN_FRONTDOOR_REQUEST,
        )

        svc = self._analyzed_service(small_schema)
        sql = self._sql(small_schema)
        config = FrontDoorConfig(workers=1, cooldown_seconds=60.0)
        with FrontDoor(svc, config) as door:
            door.optimize(sql)
            with obs.capture() as exporter:
                door.optimize(sql)
                registry = obs.metrics()
        (span,) = exporter.spans
        assert span.name == SPAN_FRONTDOOR_REQUEST
        assert span.attributes["cache_hit"] is True
        assert span.attributes["outcome"] == "ok"
        assert span.attributes["brownout_level"] == 0
        assert span.attributes["entry"] == svc.technique
        assert registry.get(METRIC_FRONTDOOR_LATENCY_SECONDS).count() == 1
        requests = registry.get(METRIC_FRONTDOOR_REQUESTS_TOTAL)
        assert requests.value(outcome="ok") == 1
        rungs = registry.get(METRIC_FRONTDOOR_RUNG_ENTRIES_TOTAL)
        assert rungs.value(entry=svc.technique) == 1

    def test_close_without_drain_rejects_queued(self, service, query):
        release = self._gate(service)
        config = FrontDoorConfig(
            queue_capacity=4, workers=1, cooldown_seconds=60.0
        )
        door = FrontDoor(service, config).start()
        in_flight = door.submit(query)
        for _ in range(200):
            if door.queue_depth == 0:
                break
            time.sleep(0.01)
        queued = [door.submit(query), door.submit(query)]
        door.close(drain=False, timeout=0.2)
        for future in queued:
            with pytest.raises(AdmissionRejected) as excinfo:
                future.result(timeout=1.0)
            assert excinfo.value.reason == "shutdown"
        # The in-flight request was admitted before close: it is served.
        release.set()
        assert in_flight.result(timeout=10.0).result.plan is not None
        assert door.stats().shed_shutdown == 2

    def test_submit_overlapping_close_is_served_or_rejected(self, small_schema):
        # A submission still parsing while close() runs must not be queued
        # after the last worker has left: it is served or refused.
        svc = self._analyzed_service(small_schema)
        sql = self._sql(small_schema)
        parsing, release = threading.Event(), threading.Event()
        real_parse = svc.parse

        def gated_parse(text):
            parsing.set()
            assert release.wait(timeout=10.0), "test gate never released"
            return real_parse(text)

        svc.parse = gated_parse
        config = FrontDoorConfig(workers=1, cooldown_seconds=60.0)
        door = FrontDoor(svc, config).start()
        outcome = []

        def submit():
            try:
                outcome.append(door.submit(sql))
            except AdmissionRejected as exc:
                outcome.append(exc)

        submitter = threading.Thread(target=submit)
        submitter.start()
        assert parsing.wait(timeout=10.0)
        door.close(drain=True, timeout=5.0)
        release.set()
        submitter.join(timeout=10.0)
        assert not submitter.is_alive()
        (result,) = outcome
        if isinstance(result, AdmissionRejected):
            assert result.reason == "shutdown"
        else:
            assert result.result(timeout=2.0).result.plan is not None
        stats = door.stats()
        assert stats.admitted == stats.completed
        assert stats.admitted + stats.shed_shutdown == 1

    def test_submissions_racing_close_all_resolve(self, service, query):
        # More submitting threads than cores race close(), with frequent
        # thread switches: every admitted request is still served.
        tenants = TenantRegistry(
            default_policy=TenantPolicy(
                bucket_capacity=1000.0, refill_per_second=1000.0
            )
        )
        config = FrontDoorConfig(queue_capacity=64, workers=2, cooldown_seconds=60.0)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _round in range(5):
                door = FrontDoor(service, config, tenants=tenants).start()
                admitted = []
                start = threading.Barrier(9)

                def submit_many():
                    start.wait(timeout=10.0)
                    for _ in range(20):
                        try:
                            admitted.append(door.submit(query))
                        except AdmissionRejected:
                            pass

                submitters = [threading.Thread(target=submit_many) for _ in range(8)]
                for thread in submitters:
                    thread.start()
                start.wait(timeout=10.0)
                door.close(drain=True, timeout=10.0)
                for thread in submitters:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()
                for future in admitted:
                    assert future.result(timeout=10.0).result.plan is not None
                stats = door.stats()
                assert stats.admitted == stats.completed == len(admitted)
                assert stats.submitted == 8 * 20
        finally:
            sys.setswitchinterval(switch_interval)

    def test_brownout_serving_and_recovery(self, service, query):
        clock = FakeClock()
        config = FrontDoorConfig(
            queue_capacity=8, workers=1, cooldown_seconds=1.0
        )
        with FrontDoor(service, config, clock=clock) as door:
            # Drive the controller up the ladder by hand: the fake clock
            # freezes between our evaluate() calls, so the worker's own
            # re-evaluation cannot change the level underneath the test.
            clock.advance(1.0)
            assert door.controller.evaluate(8, 8) == 1
            clock.advance(1.0)
            assert door.controller.evaluate(8, 8) == 2

            browned = door.optimize(query)
            assert browned.brownout_level == 2
            assert browned.entry == "IDP(4)"
            assert browned.degraded
            assert browned.result.plan is not None
            assert not browned.result.cache_hit
            # Degraded plans are never cached: a repeat under brownout
            # still misses.
            again = door.optimize(query)
            assert not again.result.cache_hit

            # Recovery: a calm queue walks the level back to baseline and
            # full-quality results start landing in the cache again.
            clock.advance(1.0)
            assert door.controller.evaluate(0, 8) == 1
            clock.advance(1.0)
            assert door.controller.evaluate(0, 8) == 0
            full = door.optimize(query)
            assert full.brownout_level == 0
            assert not full.degraded
            assert not full.result.cache_hit
            warmed = door.optimize(query)
            assert warmed.result.cache_hit
        mix = door.stats().rung_entries
        assert mix == {"IDP(4)": 2, service.technique: 2}

    def test_each_brownout_level_serves_its_ladder_plan(self):
        from repro.robust import RobustOptimizer, ladder_from
        from repro.workloads import TPCH_LITE_SQL, tpch_lite_schema

        svc = OptimizationService(technique="SDP")
        stats = svc.analyze(tpch_lite_schema())
        clock = FakeClock()
        config = FrontDoorConfig(queue_capacity=8, workers=1, cooldown_seconds=1.0)
        with FrontDoor(svc, config, clock=clock) as door:
            for level, entry in enumerate(("SDP", "IDP(4)", "GOO"), start=1):
                # The frozen clock holds the level for the whole pass.
                clock.advance(1.0)
                assert door.controller.evaluate(8, 8) == level
                for label, sql in TPCH_LITE_SQL:
                    # One tenant per template: a bucket admits 8 at once.
                    served = door.optimize(sql, tenant=label)
                    assert (served.brownout_level, served.entry) == (level, entry)
                    expected = RobustOptimizer(
                        ladder=ladder_from(served.entry)
                    ).optimize(served.result.query, stats)
                    assert served.result.cost == expected.cost, (level, label)
                    assert (
                        served.result.plans_costed == expected.plans_costed
                    ), (level, label)

    def test_stats_refresh_routes_through_breaker(self, service, small_stats):
        # The frozen clock keeps every refresh inside the breaker's interval.
        clock = FakeClock()
        config = FrontDoorConfig(workers=1, cooldown_seconds=60.0)
        with FrontDoor(service, config, clock=clock) as door:
            epoch = service.stats_epoch
            assert door.install_statistics(small_stats) == "applied"
            assert service.stats_epoch == epoch + 1
            # A storm inside the interval does not churn the epoch.
            for _ in range(5):
                assert door.install_statistics(small_stats) == "coalesced"
            assert service.stats_epoch == epoch + 1
            assert door.breaker.state == "open"


# ---------------------------------------------------------------------------
# The serving contract under sustained overload (opt-in: pytest -m stress)
# ---------------------------------------------------------------------------


@pytest.mark.stress
class TestOverloadContract:
    def test_chaos_overload_never_drops_a_request(self, schema, stats):
        from repro.bench import LoadScenario, run_load

        scenario = LoadScenario(
            label="smoke-overload",
            duration_seconds=1.5,
            overload_factor=4.0,
            queue_capacity=8,
            latency_fault_seconds=0.005,
            latency_fault_every=64,
            stats_churn_interval_seconds=0.2,
            query_sizes=(8, 9, 10),
            technique="DP",
        )
        report = run_load(scenario, schema=schema, stats=stats)

        # Every submitted request ended in a plan or a typed rejection.
        assert report["errors"] == 0
        assert report["hung"] == 0
        shed_total = sum(report["shed"].values())
        assert report["completed"] + shed_total == report["submitted"]
        assert report["completed"] > 0

        # 4x overload must be *visible*: either the bounded queue shed or
        # brownout moved requests off the baseline technique (usually both).
        off_baseline = sum(
            count
            for entry, count in report["rung_mix"].items()
            if entry != scenario.technique
        )
        assert report["shed"]["queue-full"] > 0 or off_baseline > 0
