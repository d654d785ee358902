"""Hot-path benchmark harness tests, including the perf regression guard.

The ``perf``-marked tests run the real harness — minutes, not
milliseconds — so they are **opt-in**: the default ``pytest`` run
deselects them (``addopts`` carries ``-m "not perf"``); run them with
``pytest -m perf``. The unmarked tests read the committed report, check
the guard on synthetic reports, and trace one small search.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time

import pytest

from repro.bench.hotpaths import (
    BUDGET,
    _traced_peak_mb,
    compare_reports,
    run_harness,
)
from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog.schema import paper_schema
from repro.catalog.statistics import analyze
from repro.core.registry import make_optimizer

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(REPO_ROOT, "benchmarks", "bench_hot_paths.py")
COMMITTED = os.path.join(REPO_ROOT, "BENCH_optimize.json")


def _committed_report() -> dict:
    with open(COMMITTED, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.perf
def test_bench_harness_end_to_end(tmp_path):
    output = tmp_path / "BENCH_optimize.json"
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, HARNESS, "--repeats", "1", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stderr
    # The front-door load arms dominate; generous but bounded.
    assert elapsed < 300.0, f"harness smoke run took {elapsed:.1f}s"

    report = json.loads(output.read_text())
    benches = report["benchmarks"]
    assert set(benches) == {
        "dp_star_12",
        "sdp_star_25",
        "grid_workers",
        "plan_cache",
        "sql_workload",
        "frontdoor_load",
    }
    # Search counters are deterministic: they only move when the search
    # itself changes, so the smoke run pins them.
    assert benches["dp_star_12"]["plans_costed"] == 78871
    assert benches["dp_star_12"]["median_seconds"] > 0
    assert benches["sdp_star_25"]["plans_costed"] == 157472
    assert benches["grid_workers"]["identical_outcomes"] is True
    assert benches["grid_workers"]["mode"] in ("serial", "pool")
    assert benches["plan_cache"]["speedup"] >= 10.0


@pytest.mark.perf
def test_no_regression_against_committed_report():
    """The regression guard: current run vs. the committed baseline.

    Same comparison ``sdp-bench --check BENCH_optimize.json`` runs —
    plans_costed and winning cost must match the committed report exactly
    (a drift means the *search* changed, not just its speed), and scenario
    medians may not regress past the bounded factor.
    """
    baseline = _committed_report()
    current = run_harness(repeats=3)
    problems = compare_reports(baseline, current)
    assert not problems, "\n".join(problems)


class TestCompareReports:
    """Unit-level checks of the guard itself (fast, always selected)."""

    def _load_arm(self, label):
        return {
            "label": label,
            "technique": "DP",
            "submitted": 10,
            "completed": 10,
            "shed": {"queue-full": 2 if label == "overload" else 0},
            "shed_rate": 0.0,
            "errors": 0,
            "hung": 0,
            "rung_mix": {"DP": 10},
            "degraded_fraction": 0.0,
        }

    def _report(self, **overrides):
        base = {
            "benchmarks": {
                "dp_star_12": {
                    "median_seconds": 0.1,
                    "peak_traced_mb": 4.0,
                    "plans_costed": 100,
                    "cost": 1.5,
                },
                "sdp_star_25": {
                    "median_seconds": 0.5,
                    "peak_traced_mb": 4.0,
                    "plans_costed": 200,
                    "cost": 2.5,
                },
                "grid_workers": {
                    "identical_outcomes": True,
                    "plans_costed": {"DP": 10},
                    "mode": "serial",
                    "speedup": 1.0,
                },
                "plan_cache": {"speedup": 50.0},
                "sql_workload": self._sql_workload_arm(),
                "frontdoor_load": {
                    "unloaded": self._load_arm("unloaded"),
                    "overload": self._load_arm("overload"),
                },
            }
        }
        for path, value in overrides.items():
            bench, key = path.split(".")
            base["benchmarks"][bench][key] = value
        return base

    def test_identical_reports_pass(self):
        assert compare_reports(self._report(), self._report()) == []

    def test_counter_drift_is_flagged(self):
        problems = compare_reports(
            self._report(), self._report(**{"dp_star_12.plans_costed": 101})
        )
        assert any("plans_costed drifted" in p for p in problems)

    def test_cost_drift_is_flagged(self):
        problems = compare_reports(
            self._report(), self._report(**{"sdp_star_25.cost": 2.500001})
        )
        assert any("cost drifted" in p for p in problems)

    def test_time_regression_is_flagged_beyond_factor(self):
        slow = self._report(**{"dp_star_12.median_seconds": 0.26})
        assert any(
            "exceeds" in p for p in compare_reports(self._report(), slow)
        )
        ok = self._report(**{"dp_star_12.median_seconds": 0.24})
        assert compare_reports(self._report(), ok) == []

    def test_traced_peak_regression_is_flagged_beyond_factor(self):
        baseline = self._report()
        bloated = self._report(**{"sdp_star_25.peak_traced_mb": 6.1})
        problems = compare_reports(baseline, bloated)
        assert any("sdp_star_25: traced peak" in p for p in problems)
        within = self._report(**{"sdp_star_25.peak_traced_mb": 5.9})
        assert compare_reports(baseline, within) == []
        # A baseline that lacks the field is a problem, not a pass.
        del baseline["benchmarks"]["sdp_star_25"]["peak_traced_mb"]
        assert compare_reports(baseline, bloated) == [
            "sdp_star_25/peak_traced_mb: missing from the baseline"
        ]

    def test_outcome_divergence_is_flagged(self):
        problems = compare_reports(
            self._report(),
            self._report(**{"grid_workers.identical_outcomes": False}),
        )
        assert any("diverged" in p for p in problems)

    def test_slow_pool_is_flagged_but_serial_fallback_is_not(self):
        slow_pool = self._report(
            **{"grid_workers.mode": "pool", "grid_workers.speedup": 0.8}
        )
        assert any(
            "pool mode slower" in p
            for p in compare_reports(self._report(), slow_pool)
        )
        # Serial fallback runs the same path twice: ~1x by construction,
        # so 0.8 is timer noise, not a regression.
        noisy_serial = self._report(**{"grid_workers.speedup": 0.8})
        assert compare_reports(self._report(), noisy_serial) == []

    def test_plan_cache_speedup_floor(self):
        problems = compare_reports(
            self._report(), self._report(**{"plan_cache.speedup": 5.0})
        )
        assert any("plan_cache" in p for p in problems)

    def _sql_workload_arm(self, **overrides):
        arm = {
            "templates": 1,
            "techniques": ["DP", "SDP"],
            "sql_equals_query_path": True,
            "sql_text_seconds": 0.01,
            "queries": {
                "q1": {
                    "DP": {"plans_costed": 10, "cost": 1.0, "ratio_to_dp": 1.0},
                    "SDP": {"plans_costed": 8, "cost": 1.2, "ratio_to_dp": 1.2},
                }
            },
        }
        for path, value in overrides.items():
            technique, key = path.split(".")
            arm["queries"]["q1"][technique][key] = value
        return arm

    def test_sql_workload_absent_in_baseline_is_flagged(self):
        baseline = self._report()
        del baseline["benchmarks"]["sql_workload"]
        assert compare_reports(baseline, self._report()) == [
            "sql_workload: missing from the baseline"
        ]

    @pytest.mark.parametrize(
        "report, path, problem",
        [
            ("baseline", ("sql_workload", "queries", "q1", "SDP"),
             "sql_workload/queries/q1/SDP: missing from the baseline"),
            ("baseline", ("frontdoor_load",),
             "frontdoor_load/overload/technique: missing from the baseline"),
            ("baseline", ("frontdoor_load", "overload", "technique"),
             "frontdoor_load/overload/technique: missing from the baseline"),
            ("baseline", ("grid_workers",),
             "grid_workers/plans_costed: missing from the baseline"),
            ("current", ("frontdoor_load",),
             "frontdoor_load: missing from the current run"),
            ("current", ("frontdoor_load", "overload", "technique"),
             "frontdoor_load/overload/technique: missing from the current run"),
        ],
        ids=[
            "baseline-template-arm",
            "baseline-frontdoor-load",
            "baseline-overload-technique",
            "baseline-grid",
            "current-frontdoor-load",
            "current-overload-technique",
        ],
    )
    def test_missing_arm_or_field_is_flagged(self, report, path, problem):
        """Never skipped, never a ``KeyError``: one problem line."""
        reports = {"baseline": self._report(), "current": self._report()}
        node = reports[report]["benchmarks"]
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        assert problem in compare_reports(reports["baseline"], reports["current"])

    def test_overload_technique_drift_is_flagged(self):
        current = self._report()
        current["benchmarks"]["frontdoor_load"]["overload"]["technique"] = "SDP"
        problems = compare_reports(self._report(), current)
        assert "frontdoor_load/overload: technique drifted 'DP' -> 'SDP'" in problems

    def test_sql_workload_entry_path_divergence_is_flagged(self):
        current = self._report()
        current["benchmarks"]["sql_workload"]["sql_equals_query_path"] = False
        problems = compare_reports(self._report(), current)
        assert any("SQL text diverged" in p for p in problems)

    def test_sql_workload_heuristic_beating_dp_is_flagged(self):
        current = self._report()
        current["benchmarks"]["sql_workload"] = self._sql_workload_arm(
            **{"SDP.ratio_to_dp": 0.9}
        )
        problems = compare_reports(self._report(), current)
        assert any("cheaper than exhaustive DP" in p for p in problems)

    def test_sql_text_total_is_flagged_beyond_factor(self):
        baseline = self._report()
        current = self._report()
        current["benchmarks"]["sql_workload"]["sql_text_seconds"] = 0.03
        problems = compare_reports(baseline, current)
        assert any("sql_workload: SQL-text total" in p for p in problems)
        current["benchmarks"]["sql_workload"]["sql_text_seconds"] = 0.024
        assert compare_reports(baseline, current) == []
        # A baseline that lacks the total is a problem, not a pass.
        del baseline["benchmarks"]["sql_workload"]["sql_text_seconds"]
        assert compare_reports(baseline, current) == [
            "sql_workload/sql_text_seconds: missing from the baseline"
        ]

    def test_sql_workload_drift_against_baseline_is_flagged(self):
        baseline = self._report()
        current = self._report()
        current["benchmarks"]["sql_workload"] = self._sql_workload_arm(
            **{"SDP.plans_costed": 9, "DP.cost": 1.1}
        )
        problems = compare_reports(baseline, current)
        assert any("q1/SDP: plans_costed drifted" in p for p in problems)
        assert any("q1/DP: cost drifted" in p for p in problems)


def test_committed_report_matches_current_counters():
    """The committed BENCH_optimize.json must track the current search,
    and hold every arm and field the guard reads."""
    report = _committed_report()
    assert compare_reports(report, report) == []
    benches = report["benchmarks"]
    assert benches["dp_star_12"]["plans_costed"] == 78871
    assert benches["sdp_star_25"]["plans_costed"] == 157472
    assert benches["grid_workers"]["identical_outcomes"] is True
    sqlw = benches["sql_workload"]
    assert sqlw["templates"] == 13
    assert sqlw["sql_equals_query_path"] is True
    assert all(
        arm["ratio_to_dp"] >= 1.0
        for arms in sqlw["queries"].values()
        for arm in arms.values()
    )


def test_traced_peak_depends_on_the_search_alone():
    """Work run before a traced search must not move its peak.

    Objects reused from CPython's free lists are not traced, so without a
    collection first the peak of one DP star-8 search read about half as
    much after allocation churn as after a full collection.
    """
    schema = paper_schema(seed=0)
    stats = analyze(schema)
    query = make_query(WorkloadSpec("star", 8), schema, 0)
    optimizer = make_optimizer("DP", budget=BUDGET)
    optimizer.optimize(query, stats)

    def peak() -> float:
        return _traced_peak_mb(lambda: optimizer.optimize(query, stats))

    peaks = [peak()]
    make_optimizer("SDP", budget=BUDGET).optimize(
        make_query(WorkloadSpec("star", 10), schema, 0), stats
    )
    churn = [(float(i), float(i) + 0.5) for i in range(100_000)]
    del churn
    peaks.append(peak())
    gc.collect()
    peaks.append(peak())
    assert max(peaks) <= 1.02 * min(peaks), peaks
