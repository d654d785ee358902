"""Observability layer: tracing, metrics, search profiling.

Covers the ``repro.obs`` package itself (span trees, exporters, the
metrics registry, Prometheus rendering, the profiler) and its wiring into
the optimizers, the robust ladder, the serving layer and the fault
harness — including the contract that everything is a no-op while
observability is disabled.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

import repro.obs as obs
from repro.core import SearchBudget, make_optimizer
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemorySpanExporter, JsonlSpanExporter, Tracer
from repro.robust import FaultHarness, RobustOptimizer
from repro.service import OptimizationService, PlanCache, optimize_many
from tests.conftest import make_star_query

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _pristine_obs():
    """Every test starts and ends with observability fully disabled."""
    obs.reset()
    yield
    obs.reset()


# -- tracer mechanics --------------------------------------------------------


class TestTracer:
    def test_span_tree_parentage(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(exporter)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert grandchild.parent_id == child.span_id
        assert child.parent_id == root.span_id
        assert sibling.parent_id == root.span_id
        assert root.parent_id is None
        # Exported in finish order: leaves first.
        assert [s.name for s in exporter.spans] == [
            "grandchild", "child", "sibling", "root",
        ]

    def test_span_timing_and_attributes(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(exporter)
        with tracer.span("work", kind="test") as span:
            span.set(items=3)
        assert span.duration_seconds >= 0.0
        assert span.attributes == {"kind": "test", "items": 3}
        assert span.status == "ok"

    def test_error_status_on_exception(self):
        exporter = InMemorySpanExporter()
        tracer = Tracer(exporter)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = exporter.spans
        assert span.status == "error"
        assert span.attributes["error"] == "ValueError"

    def test_ring_buffer_capacity(self):
        exporter = InMemorySpanExporter(capacity=3)
        tracer = Tracer(exporter)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in exporter.spans] == ["s2", "s3", "s4"]

    def test_jsonl_exporter(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlSpanExporter(path) as exporter:
            tracer = Tracer(exporter)
            with tracer.span("a", n=1):
                with tracer.span("b"):
                    pass
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["b", "a"]
        assert records[1]["attributes"] == {"n": 1}
        assert records[0]["parent_id"] == records[1]["span_id"]

    def test_threads_keep_their_own_span_stacks(self):
        """Spans opened on one thread never parent another thread's spans,
        however the two threads interleave on the one tracer."""
        exporter = InMemorySpanExporter()
        tracer = Tracer(exporter)
        a_open, b_open, b_may_close = (threading.Event() for _ in range(3))
        failures = []

        def thread_a():
            with tracer.span("a-outer"):
                a_open.set()
                if not b_open.wait(5.0):
                    failures.append("b never opened its span")
                with tracer.span("a-inner"):
                    pass
            b_may_close.set()

        def thread_b():
            if not a_open.wait(5.0):
                failures.append("a never opened its span")
            with tracer.span("b-outer"):
                b_open.set()
                if not b_may_close.wait(5.0):
                    failures.append("a never finished")

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        spans = {span.name: span for span in exporter.spans}
        assert spans["b-outer"].parent_id is None
        assert spans["a-inner"].parent_id == spans["a-outer"].span_id
        assert tracer.current_span is None

    def test_span_ids_stay_unique_under_thread_contention(self):
        exporter = InMemorySpanExporter(capacity=100_000)
        tracer = Tracer(exporter)
        misparented = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                for _ in range(500):
                    with tracer.span("outer") as outer:
                        with tracer.span("inner") as inner:
                            if inner.parent_id != outer.span_id:
                                misparented.append(inner)

            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert misparented == []
        spans = exporter.spans
        assert len(spans) == 8 * 500 * 2
        assert len({span.span_id for span in spans}) == len(spans)
        outer_ids = {span.span_id for span in spans if span.name == "outer"}
        assert all(
            span.parent_id in outer_ids for span in spans if span.name == "inner"
        )


# -- metrics registry --------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_snapshot(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "Hits.", ("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        snap = registry.snapshot()
        assert snap["hits_total"]["values"] == {("a",): 1.0, ("b",): 2.0}

    def test_counter_rejects_negative_and_bad_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "C.", ("kind",))
        with pytest.raises(ObservabilityError):
            counter.inc(-1, kind="a")
        with pytest.raises(ObservabilityError):
            counter.inc(other="a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing", "T.")
        with pytest.raises(ObservabilityError):
            registry.gauge("thing", "T.")

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "D.")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert registry.snapshot()["depth"]["values"] == {(): 4.0}

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_seconds", "L.", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        rendered = registry.render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in rendered
        assert 'lat_seconds_bucket{le="1"} 2' in rendered
        assert 'lat_seconds_bucket{le="+Inf"} 3' in rendered
        assert "lat_seconds_count 3" in rendered

    def test_prometheus_rendering_escapes_labels(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C.", ("q",)).inc(q='star "x"\n')
        rendered = registry.render_prometheus()
        assert '\\"x\\"' in rendered and "\\n" in rendered


# -- optimizer instrumentation ----------------------------------------------


class TestOptimizerSpans:
    def test_sdp_level_spans_sum_to_plans_costed(self, schema, stats):
        query = make_star_query(schema, 10)
        with obs.capture() as exporter:
            result = make_optimizer("SDP").optimize(query, stats)
        levels = [s for s in exporter.spans if s.name == "sdp.level"]
        assert levels, "traced SDP run emitted no level spans"
        assert (
            sum(s.attributes["plans_costed"] for s in levels)
            == result.plans_costed
        )
        # One span per DP level, in order.
        assert [s.attributes["level"] for s in levels] == list(range(1, 11))

    def test_dp_span_tree_deterministic_across_seeds(self, schema, stats):
        query = make_star_query(schema, 6)

        def shape():
            with obs.capture() as exporter:
                result = make_optimizer("DP").optimize(query, stats)
            spans = list(exporter.spans)
            levels = [s for s in spans if s.name == "dp.level"]
            assert (
                sum(s.attributes["plans_costed"] for s in levels)
                == result.plans_costed
            )
            return [
                (s.name, s.attributes.get("level"),
                 s.attributes.get("plans_costed"))
                for s in spans
            ]

        first = shape()
        for _ in range(2):
            assert shape() == first

    def test_optimize_counters_and_histogram(self, schema, stats):
        query = make_star_query(schema, 6)
        registry = MetricsRegistry()
        with obs.capture(registry=registry):
            make_optimizer("SDP").optimize(query, stats)
        snap = registry.snapshot()
        assert snap["repro_optimizations_total"]["values"] == {
            ("SDP", "ok"): 1.0
        }
        assert snap["repro_plans_costed_total"]["values"][("SDP",)] > 0
        seconds = snap["repro_optimize_seconds"]["values"][("SDP",)]
        assert seconds["count"] == 1

    def test_budget_trip_recorded_as_error_status(self, schema, stats):
        query = make_star_query(schema, 12)
        optimizer = make_optimizer(
            "DP", budget=SearchBudget(max_plans_costed=50)
        )
        registry = MetricsRegistry()
        with obs.capture(registry=registry) as exporter:
            with pytest.raises(Exception):
                optimizer.optimize(query, stats)
        (root,) = [s for s in exporter.spans if s.name == "optimize"]
        assert root.status == "error"
        (key,) = registry.snapshot()["repro_optimizations_total"]["values"]
        assert key == ("DP", "OptimizationBudgetExceeded")


# -- disabled path -----------------------------------------------------------


class TestDisabledPath:
    def test_no_spans_no_counters_when_disabled(self, schema, stats):
        query = make_star_query(schema, 6)
        probe = InMemorySpanExporter()
        assert not obs.enabled()
        result = make_optimizer("SDP").optimize(query, stats)
        assert result.plans_costed > 0
        assert list(probe.spans) == []
        assert obs.metrics().snapshot() == {}

    def test_disabled_run_equals_traced_run(self, schema, stats):
        query = make_star_query(schema, 8)
        plain = make_optimizer("SDP").optimize(query, stats)
        with obs.capture():
            traced = make_optimizer("SDP").optimize(query, stats)
        assert traced.cost == plain.cost
        assert traced.plans_costed == plain.plans_costed
        from repro import explain

        assert explain(traced.tree(query)) == explain(plain.tree(query))

    def test_cache_disabled_no_metrics(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert obs.metrics().snapshot() == {}
        # CacheStats still counts regardless of observability state.
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_capture_windows_do_not_share_metrics(self, schema, stats):
        query = make_star_query(schema, 5)
        with obs.capture():
            make_optimizer("SDP").optimize(query, stats)
        # A later capture starts from a clean registry; the earlier
        # window's counts stay out of it and out of the global registry.
        with obs.capture():
            make_optimizer("SDP").optimize(query, stats)
            counter = obs.metrics().get("repro_optimizations_total")
            assert counter.value(technique="SDP", status="ok") == 1.0
        assert obs.metrics().snapshot() == {}


# -- serving + robustness wiring ---------------------------------------------


class TestServiceAndRobustObservability:
    def test_plan_cache_metrics_snapshot(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        service = OptimizationService(technique="SDP", cache_capacity=1)
        service.install_statistics(small_stats)
        other = make_star_query(small_schema, 6)
        with obs.capture():
            service.optimize(query)      # miss
            service.optimize(query)      # hit
            service.optimize(other)      # miss + eviction (capacity 1)
            service.install_statistics(small_stats)  # invalidation
            snapshot = obs.metrics().snapshot()
        values = snapshot["repro_plan_cache_events_total"]["values"]
        assert values[("miss",)] == 2.0
        assert values[("hit",)] == 1.0
        assert values[("eviction",)] == 1.0
        assert values[("invalidation",)] == 1.0
        assert snapshot["repro_plan_cache_size"]["values"][()] == 0.0
        # CacheStats agrees with the registry.
        stats = service.cache_stats
        assert (stats.hits, stats.misses) == (1, 2)

    def test_service_optimize_span(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        with obs.capture() as exporter:
            service.optimize(query)
            service.optimize(query)
        spans = [s for s in exporter.spans if s.name == "service.optimize"]
        assert [s.attributes["cache_hit"] for s in spans] == [False, True]
        assert all(s.attributes["fingerprint"] for s in spans)

    @pytest.mark.faults
    def test_robust_rung_spans_and_fault_counter(self, schema, stats):
        query = make_star_query(schema, 8)
        robust = RobustOptimizer(
            budget=SearchBudget(max_memory_bytes=1 << 30)
        )
        harness = FaultHarness(seed=7)
        with obs.capture() as exporter:
            with harness.budget_trip(robust, at_event=100, resource="memory"):
                result = robust.optimize(query, stats)
            snapshot = obs.metrics().snapshot()
        assert result.degraded
        rungs = [s for s in exporter.spans if s.name == "robust.rung"]
        outcomes = [
            (s.attributes["technique"], s.attributes["outcome"])
            for s in rungs
        ]
        assert outcomes == [("DP", "budget-exceeded"), ("SDP", "ok")]
        (ladder,) = [s for s in exporter.spans if s.name == "robust.ladder"]
        assert ladder.attributes["winner"] == "SDP"
        assert ladder.attributes["degraded"] is True
        faults = snapshot["repro_faults_injected_total"]["values"]
        assert faults[("budget-trip",)] == 1.0
        rung_counts = snapshot["repro_robust_rungs_total"]["values"]
        assert rung_counts[("DP", "budget-exceeded")] == 1.0
        assert rung_counts[("SDP", "ok")] == 1.0

    def test_batch_spans_serial(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        with obs.capture() as exporter:
            grid = optimize_many(
                [query], ["SDP", "GOO"], stats=small_stats, workers=1
            )
        assert grid[0][0].feasible and grid[0][1].feasible
        names = [s.name for s in exporter.spans]
        assert names.count("service.cell") == 2
        assert names.count("service.batch") == 1


# -- profiler ----------------------------------------------------------------


class TestSearchProfiler:
    def test_profile_rows_aggregate_runs(self, schema, stats):
        query = make_star_query(schema, 6)
        with obs.capture() as exporter:
            make_optimizer("SDP").optimize(query, stats)
            make_optimizer("SDP").optimize(query, stats)
        rows = obs.search_profile(exporter.spans)
        assert {row.technique for row in rows} == {"SDP"}
        assert all(row.runs == 2 for row in rows)
        level2 = next(row for row in rows if row.level == 2)
        assert level2.total("plans_costed") % 2 == 0

    def test_render_profile_table(self, schema, stats):
        query = make_star_query(schema, 6)
        with obs.capture() as exporter:
            make_optimizer("SDP").optimize(query, stats)
            make_optimizer("DP").optimize(query, stats)
        table = obs.render_search_profile(exporter.spans)
        assert "Technique" in table and "Plans costed" in table
        assert "SDP" in table and "DP" in table

    def test_render_empty(self):
        assert "no level spans" in obs.render_search_profile([])

    def test_explain_trace_accepts_result_and_exporter(self, schema, stats):
        import repro

        query = make_star_query(schema, 6)
        traced = repro.optimize(query, stats=stats, trace=True)
        rendered = obs.explain_trace(traced)
        assert "optimize" in rendered and "sdp.level" in rendered
        assert obs.explain_trace(traced.trace) == rendered
