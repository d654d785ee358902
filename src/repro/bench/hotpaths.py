"""Hot-path benchmark harness — tracks the repo's optimizer perf trajectory.

Times the scenarios this codebase optimizes hardest:

* ``dp_star_12`` — exhaustive DP on a 12-relation star (DPccp
  enumeration and the plan-space hot loops dominate here);
* ``sdp_star_25`` — SDP on a 25-relation star (the scale DP cannot reach;
  exercises skyline pruning plus the same hot paths); both search arms
  also record the traced peak allocation of one untimed search
  (``peak_traced_mb``, :mod:`tracemalloc`);
* ``grid_workers`` — a star-chain-14 ``run_comparison`` grid serially and
  with the requested worker count, asserting the aggregated outcomes are
  identical and recording the speedup plus the serial-vs-pool decision
  *and why* (:func:`repro.service.parallel.execution_plan`);
* ``plan_cache`` — cold vs. warm :class:`repro.service.OptimizationService`
  lookups on a repeated query;
* ``sql_workload`` — the TPC-H-lite SQL suite (:mod:`repro.workloads`)
  through the SQL-first front door: DP / SDP / IDP(4) plan quality
  (cost ratio to exhaustive DP) and overhead (``plans_costed``, median
  seconds) per template, the time of a whole SDP request from SQL text
  (``sql_text_seconds``: parse, plan-space setup, search and facade,
  summed over the templates), plus a bit-identity check that optimizing
  the SQL text equals optimizing its parsed :class:`~repro.query.Query`;
* ``frontdoor_load`` — the serving front door under an unloaded control
  arm and a 4x-overload chaos arm (latency faults + statistics churn),
  via :mod:`repro.bench.loadgen`: latency percentiles, shed rate and the
  brownout rung mix. The guard checks *behavioral* invariants (zero
  unhandled errors, zero hung requests, graceful degradation under
  overload, none at all unloaded), never wall-clock numbers.

Each scenario reports the **median** wall-clock over ``repeats`` runs
(medians shrug off one-off scheduler noise) plus the deterministic search
counters (``plans_costed``), which must not drift when only performance
work lands. Results go to ``BENCH_optimize.json`` so PRs can diff perf
against the committed trajectory::

    python benchmarks/bench_hot_paths.py              # regenerate
    sdp-bench --check BENCH_optimize.json             # regression guard

:func:`compare_reports` is the guard itself: exact counter/cost identity,
a bounded time regression (2.5x — generous because absolute numbers are
machine-dependent; counters are not), a bounded traced-peak regression
(1.5x, loose enough for the Python 3.11/3.12 CI matrix), and every arm
and field it reads present in both reports. The ``perf``-marked test in
``tests/test_bench_harness.py`` runs it opt-in via ``pytest -m perf``.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
import tracemalloc

from repro.api import optimize as front_door
from repro.bench.loadgen import LoadScenario, run_load
from repro.bench.runner import run_comparison
from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog.schema import SchemaBuilder, paper_schema
from repro.catalog.statistics import analyze
from repro.core.base import SearchBudget
from repro.core.registry import make_optimizer
from repro.service import OptimizationService
from repro.service.parallel import execution_plan
from repro.workloads import TPCH_LITE_SQL, tpch_lite_queries, tpch_lite_schema

__all__ = ["run_harness", "compare_reports", "BUDGET"]

BUDGET = SearchBudget(max_seconds=120.0)

#: Scenario medians may regress by at most this factor before the guard
#: trips. Wall-clock is machine-dependent; counters are exact.
TIME_REGRESSION_FACTOR = 2.5

#: A search arm's traced peak may grow by at most this factor.
MEMORY_REGRESSION_FACTOR = 1.5


def _timed(fn, repeats: int):
    """Median wall-clock over ``repeats`` calls plus the last result."""
    samples, result = [], None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), samples, result


def _traced_peak_mb(fn) -> float:
    """Peak traced allocation (MB) of one call, made outside any timing.

    A full collection first empties CPython's free lists, whose contents
    depend on what ran earlier; objects reused from them are not traced.
    """
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / 2**20, 3)


def bench_optimizer(technique: str, spec: WorkloadSpec, schema, stats, repeats: int):
    query = make_query(spec, schema, 0)
    optimizer = make_optimizer(technique, budget=BUDGET)
    median, samples, result = _timed(
        lambda: optimizer.optimize(query, stats), repeats
    )
    return {
        "technique": technique,
        "workload": spec.label,
        "median_seconds": round(median, 6),
        "samples_seconds": [round(s, 6) for s in samples],
        "peak_traced_mb": _traced_peak_mb(lambda: optimizer.optimize(query, stats)),
        "plans_costed": result.plans_costed,
        "cost": result.cost,
    }


def bench_grid(schema, stats, repeats: int, workers: int):
    # Big enough for a pool to pay off: a star-chain-10 grid ran in about
    # 45 ms serially, and its pool/serial ratio was host noise (0.67-1.45x).
    spec = WorkloadSpec("star-chain", 14)
    techniques = ["DP", "SDP", "GOO"]

    def run(n):
        return run_comparison(
            spec, schema, techniques, instances=4, stats=stats,
            budget=BUDGET, workers=n,
        )

    serial_median, serial_samples, serial = _timed(lambda: run(1), repeats)
    parallel_median, parallel_samples, parallel = _timed(
        lambda: run(workers), repeats
    )
    identical = all(
        serial.outcomes[name].ratios == parallel.outcomes[name].ratios
        and serial.outcomes[name].plans_costed
        == parallel.outcomes[name].plans_costed
        for name in serial.outcomes
    )
    mode, effective_workers, fallback_reason = execution_plan(
        workers, 4 * len(techniques)
    )
    return {
        "workload": spec.label,
        "techniques": techniques,
        "instances": 4,
        "workers": workers,
        "mode": mode,
        "effective_workers": effective_workers,
        "fallback_reason": fallback_reason,
        "serial_median_seconds": round(serial_median, 6),
        "serial_samples_seconds": [round(s, 6) for s in serial_samples],
        "parallel_median_seconds": round(parallel_median, 6),
        "parallel_samples_seconds": [round(s, 6) for s in parallel_samples],
        "speedup": round(serial_median / parallel_median, 3),
        "identical_outcomes": identical,
        "plans_costed": {
            name: serial.outcomes[name].plans_costed for name in serial.outcomes
        },
    }


def bench_plan_cache(schema, stats, repeats: int):
    query = make_query(WorkloadSpec("star", 10), schema, 0)
    cold_samples, warm_samples = [], []
    for _ in range(repeats):
        service = OptimizationService(technique="SDP", budget=BUDGET)
        service.install_statistics(stats)
        cold = service.optimize(query)
        warm = service.optimize(query)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.cost == cold.cost
        cold_samples.append(cold.elapsed_seconds)
        warm_samples.append(warm.elapsed_seconds)
    cold_median = statistics.median(cold_samples)
    warm_median = statistics.median(warm_samples)
    return {
        "workload": "star-10",
        "technique": "SDP",
        "cold_median_seconds": round(cold_median, 6),
        "warm_median_seconds": round(warm_median, 6),
        "speedup": round(cold_median / warm_median, 1),
    }


def bench_sql_workload(repeats: int) -> dict:
    """DP / SDP / IDP(4) over the TPC-H-lite SQL templates.

    Quality is the cost ratio to exhaustive DP (DP enumerates every plan
    the heuristics consider, so every ratio is >= 1.0 by construction —
    a ratio below 1.0 means the plan space itself diverged); overhead is
    ``plans_costed`` and the median wall-clock. Both search counters and
    costs are deterministic, so the guard holds them bit-exact against
    the committed baseline.

    The suite is the SQL-first contract's canary: each template also runs
    once through ``repro.optimize(sql, schema=...)`` and once through the
    parsed ``Query``, and the two must agree on cost and counters.

    ``sql_text_seconds`` is the one number here that covers the whole
    request from text: the sum over the templates of the median time of
    ``repro.optimize(sql, schema=, stats=, technique="SDP")``.
    """
    schema = tpch_lite_schema()
    stats = analyze(schema)
    queries = tpch_lite_queries(schema)
    techniques = ("DP", "SDP", "IDP(4)")
    per_query: dict[str, dict] = {}
    for (label, _sql), query in zip(TPCH_LITE_SQL, queries):
        dp_cost = None
        entry = {}
        for technique in techniques:
            optimizer = make_optimizer(technique, budget=BUDGET)
            median, _, result = _timed(
                lambda: optimizer.optimize(query, stats), repeats
            )
            if dp_cost is None:
                dp_cost = result.cost
            entry[technique] = {
                "median_seconds": round(median, 6),
                "plans_costed": result.plans_costed,
                "cost": result.cost,
                "ratio_to_dp": round(result.cost / dp_cost, 6),
            }
        per_query[label] = entry
    sql_text_seconds = 0.0
    for _label, sql in TPCH_LITE_SQL:
        median, _, _ = _timed(
            lambda: front_door(sql, schema=schema, stats=stats, technique="SDP"),
            repeats,
        )
        sql_text_seconds += median
    identical = True
    for (_label, sql), query in zip(TPCH_LITE_SQL, queries):
        from_sql = front_door(sql, schema=schema, stats=stats)
        from_query = front_door(query, stats=stats)
        if (
            from_sql.cost != from_query.cost
            or from_sql.plans_costed != from_query.plans_costed
        ):
            identical = False
    summary = {
        technique: {
            "max_ratio_to_dp": max(
                entry[technique]["ratio_to_dp"] for entry in per_query.values()
            ),
            "total_plans_costed": sum(
                entry[technique]["plans_costed"] for entry in per_query.values()
            ),
        }
        for technique in techniques
    }
    return {
        "schema": schema.name,
        "templates": len(queries),
        "techniques": list(techniques),
        "sql_equals_query_path": identical,
        "sql_text_seconds": round(sql_text_seconds, 6),
        "queries": per_query,
        "summary": summary,
    }


def bench_frontdoor(schema, stats) -> dict:
    """The two canonical load arms (see :mod:`repro.bench.loadgen`)."""
    unloaded = run_load(
        LoadScenario(label="unloaded", duration_seconds=2.0, overload_factor=0.5),
        schema,
        stats,
    )
    overload = run_load(
        LoadScenario(
            label="overload",
            duration_seconds=3.0,
            overload_factor=4.0,
            queue_capacity=8,
            latency_fault_seconds=0.005,
            stats_churn_interval_seconds=0.2,
        ),
        schema,
        stats,
    )
    return {"unloaded": unloaded, "overload": overload}


def run_harness(repeats: int = 5, workers: int | None = None) -> dict:
    """Run every scenario and return the report dictionary."""
    # At least 2 so the grid scenario really asks for parallelism; on a
    # single-core box execution_plan() falls back to serial for both runs
    # (speedup ~1x by construction) while outcome identity is still
    # exercised and recorded.
    workers = workers or max(2, min(4, os.cpu_count() or 1))
    schema = paper_schema(seed=0)
    stats = analyze(schema)
    # The paper's 24-column schema cannot anchor a 25-spoke star (each
    # spoke consumes a distinct hub column), so the SDP scale point uses
    # a wider synthetic catalog, as the scale-up experiments do.
    wide_schema = SchemaBuilder(
        seed=0, relation_count=25, column_count=27, name="bench-wide-25"
    ).build()
    wide_stats = analyze(wide_schema)

    report = {
        "generated_unix": int(time.time()),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "benchmarks": {
            "dp_star_12": bench_optimizer(
                "DP", WorkloadSpec("star", 12), schema, stats, repeats
            ),
            "sdp_star_25": bench_optimizer(
                "SDP", WorkloadSpec("star", 25), wide_schema, wide_stats, repeats
            ),
            "grid_workers": bench_grid(schema, stats, repeats, workers),
            "plan_cache": bench_plan_cache(schema, stats, repeats),
            "sql_workload": bench_sql_workload(min(repeats, 3)),
            "frontdoor_load": bench_frontdoor(schema, stats),
        },
    }
    return report


def _field(report: dict, owner: str, path: tuple, problems: list[str]):
    """``report["benchmarks"]`` at ``path``, or None with a problem line
    naming the report and the path when any step of it is absent."""
    node = report.get("benchmarks")
    for key in path:
        if not isinstance(node, dict) or key not in node:
            problems.append(f"{'/'.join(path)}: missing from the {owner}")
            return None
        node = node[key]
    return node


def compare_reports(baseline: dict, current: dict) -> list[str]:
    """Regression-guard comparison; returns human-readable violations.

    Exact identity on the deterministic search outputs (``plans_costed``
    and ``cost`` per optimizer scenario, per-technique counters and
    serial/parallel outcome identity for the grid), bounded regression on
    wall-clock medians and the SQL-text total
    (:data:`TIME_REGRESSION_FACTOR`) and on the search arms' traced peaks
    (:data:`MEMORY_REGRESSION_FACTOR`). An arm or field that either report
    lacks is itself a violation. An empty list means the current run is
    within the committed trajectory.
    """
    problems: list[str] = []

    def now(*path):
        return _field(current, "current run", path, problems)

    def both(*path):
        """``(baseline, current)`` at ``path``, or None if either lacks it."""
        old = _field(baseline, "baseline", path, problems)
        new = now(*path)
        return None if old is None or new is None else (old, new)

    def exact(*path):
        pair = both(*path)
        if pair is not None and pair[1] != pair[0]:
            problems.append(
                f"{'/'.join(path[:-1])}: {path[-1]} drifted "
                f"{pair[0]!r} -> {pair[1]!r}"
            )

    def bounded(what: str, pair, factor: float, unit: str) -> None:
        if pair is not None and pair[1] > pair[0] * factor:
            problems.append(
                f"{what} {pair[1]}{unit} exceeds {factor}x baseline "
                f"{pair[0]}{unit}"
            )

    for name in ("dp_star_12", "sdp_star_25"):
        if both(name) is None:
            continue
        exact(name, "plans_costed")
        exact(name, "cost")
        bounded(
            f"{name}: median", both(name, "median_seconds"),
            TIME_REGRESSION_FACTOR, "s",
        )
        bounded(
            f"{name}: traced peak", both(name, "peak_traced_mb"),
            MEMORY_REGRESSION_FACTOR, " MB",
        )

    grid = now("grid_workers")
    if grid is not None:
        if not grid["identical_outcomes"]:
            problems.append("grid_workers: serial and parallel outcomes diverged")
        exact("grid_workers", "plans_costed")
        # The serial-vs-pool decision is policy, not noise: a pool run must
        # pay off; a serial-fallback run is ~1x by construction (both arms
        # run the same in-process path) and only sanity-checked for noise.
        if grid["mode"] == "pool" and grid["speedup"] < 1.0:
            problems.append(
                f"grid_workers: pool mode slower than serial "
                f"(speedup {grid['speedup']})"
            )
        if grid["mode"] == "serial" and grid["speedup"] < 0.67:
            problems.append(
                f"grid_workers: serial fallback shows impossible slowdown "
                f"(speedup {grid['speedup']}; both arms run the same path)"
            )

    cache = now("plan_cache")
    if cache is not None and cache["speedup"] < 10.0:
        problems.append(
            f"plan_cache: warm-hit speedup {cache['speedup']} below 10x"
        )

    # The SQL workload arm: quality and counters are deterministic, so
    # they are held bit-exact per (template, technique) against the
    # baseline, and the SQL-text total gets the timed arms' factor; the
    # SQL-vs-Query identity and the ratio floor are contracts of the
    # current run alone.
    sqlw = both("sql_workload")
    if sqlw is not None:
        if not sqlw[1]["sql_equals_query_path"]:
            problems.append(
                "sql_workload: optimizing SQL text diverged from optimizing "
                "the parsed Query (cost/plans_costed not identical)"
            )
        bounded(
            "sql_workload: SQL-text total",
            both("sql_workload", "sql_text_seconds"),
            TIME_REGRESSION_FACTOR, "s",
        )
        for label, arms in sqlw[1]["queries"].items():
            for technique, arm in arms.items():
                if arm["ratio_to_dp"] < 1.0:
                    problems.append(
                        f"sql_workload/{label}: {technique} found a plan "
                        f"cheaper than exhaustive DP (ratio "
                        f"{arm['ratio_to_dp']}); the heuristic plan spaces "
                        f"are no longer subsets of DP's"
                    )
                path = ("sql_workload", "queries", label, technique)
                if both(*path) is not None:
                    exact(*path, "plans_costed")
                    exact(*path, "cost")

    # The front-door arms assert the serving contract on the *current*
    # run only — their wall-clock curves are recorded for trending, not
    # compared (offered load is derived from measured capacity, so the
    # absolute numbers are machine-specific by design).
    door = now("frontdoor_load")
    if door is not None:
        for arm_name in ("unloaded", "overload"):
            arm = door[arm_name]
            if arm["errors"]:
                problems.append(
                    f"frontdoor_load/{arm_name}: {arm['errors']} requests "
                    "escaped with untyped errors"
                )
            if arm["hung"]:
                problems.append(
                    f"frontdoor_load/{arm_name}: {arm['hung']} requests "
                    "never completed"
                )
            if arm["completed"] == 0:
                problems.append(
                    f"frontdoor_load/{arm_name}: no requests completed"
                )
        unloaded = door["unloaded"]
        if unloaded["shed_rate"] > 0.0:
            problems.append(
                f"frontdoor_load/unloaded: shed at half capacity "
                f"(rate {unloaded['shed_rate']})"
            )
        if unloaded["degraded_fraction"] > 0.0:
            problems.append(
                "frontdoor_load/unloaded: degraded plans on the unloaded path"
            )
        # The rung mix is read against the arm's baseline technique (its
        # level-0 entry), which must be the one the baseline ran.
        overload = door["overload"]
        exact("frontdoor_load", "overload", "technique")
        cheaper = sum(
            count
            for entry, count in overload["rung_mix"].items()
            if entry != overload.get("technique")
        )
        if overload["shed"].get("queue-full", 0) == 0 and cheaper == 0:
            problems.append(
                "frontdoor_load/overload: 4x load produced neither "
                "queue shedding nor brownout rung shift"
            )
    return problems
