"""Hot-path benchmark harness tests, including the perf regression guard.

The ``perf``-marked tests run the real harness — minutes, not
milliseconds — so they are **opt-in**: the default ``pytest`` run
deselects them (``addopts`` carries ``-m "not perf"``); run them with
``pytest -m perf``. The unmarked test only reads the committed report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.bench.hotpaths import compare_reports, run_harness

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

    def _report(self, **overrides):
        base = {
            "benchmarks": {
                "dp_star_12": {
                    "median_seconds": 0.1,
                    "plans_costed": 100,
                    "cost": 1.5,
                },
                "sdp_star_25": {
                    "median_seconds": 0.5,
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

    def test_sql_workload_absent_in_baseline_is_fine(self):
        current = self._report()
        current["benchmarks"]["sql_workload"] = self._sql_workload_arm()
        assert compare_reports(self._report(), current) == []

    def test_sql_workload_entry_path_divergence_is_flagged(self):
        current = self._report()
        current["benchmarks"]["sql_workload"] = self._sql_workload_arm()
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

    def test_sql_workload_drift_against_baseline_is_flagged(self):
        baseline = self._report()
        baseline["benchmarks"]["sql_workload"] = self._sql_workload_arm()
        current = self._report()
        current["benchmarks"]["sql_workload"] = self._sql_workload_arm(
            **{"SDP.plans_costed": 9, "DP.cost": 1.1}
        )
        problems = compare_reports(baseline, current)
        assert any("q1/SDP: plans_costed drifted" in p for p in problems)
        assert any("q1/DP: cost drifted" in p for p in problems)


def test_committed_report_matches_current_counters():
    """The committed BENCH_optimize.json must track the current search."""
    benches = _committed_report()["benchmarks"]
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
