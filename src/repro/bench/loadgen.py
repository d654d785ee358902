"""Load and chaos harness for the serving front door.

Drives a :class:`~repro.service.FrontDoor` at a controlled multiple of
its measured capacity — optionally under injected chaos (latency faults
in the cost model, statistics-refresh churn) — and reports the curves an
operator would watch: latency percentiles, shed rate, brownout rung mix.

The harness asserts the front door's serving contract, not wall-clock
numbers (those are machine noise): **every** submitted request must end
in a plan or a typed rejection — zero unhandled errors, zero hung
futures — and under overload the rung mix must shift toward cheaper
techniques while an unloaded run stays entirely on the baseline path.

Two canonical arms feed ``BENCH_optimize.json`` (see
:func:`repro.bench.hotpaths.run_harness`):

* ``unloaded`` — half the measured capacity, no faults: the control arm
  that must show zero shedding and zero degradation;
* ``overload`` — 4x capacity with latency faults and statistics churn:
  the chaos arm that must degrade *gracefully* (shed + brownout), never
  fall over.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog.schema import Schema
from repro.catalog.statistics import CatalogStatistics, analyze
from repro.core.base import SearchBudget
from repro.errors import AdmissionRejected
from repro.robust.faults import SlowCostModel
from repro.service.frontdoor import FrontDoor, FrontDoorConfig, FrontDoorResult
from repro.service.service import OptimizationService
from repro.service.tenancy import TenantPolicy, TenantRegistry

__all__ = ["LoadScenario", "run_load"]

#: Submission pacing is capped so the coordinator loop itself cannot
#: become the bottleneck being measured.
MAX_OFFERED_QPS = 1000.0

#: The backing service's configured (baseline) technique. A DP baseline
#: makes the brownout shift legible in the rung mix: level 0 serves DP,
#: brownout enters the ladder at SDP/IDP(4)/GOO.
TECHNIQUE = "DP"
#: Star-query sizes round-robined across submissions.
QUERY_SIZES = (8, 9, 10)
#: Front-door serving threads.
WORKERS = 4
#: Distinct tenant ids round-robined across submissions.
TENANTS = 3
#: Cost-model reads between injected sleeps of the latency fault.
LATENCY_FAULT_EVERY = 64


@dataclass(frozen=True)
class LoadScenario:
    """One load/chaos arm against a fresh front door.

    Attributes:
        label: Arm name in reports.
        duration_seconds: How long to keep submitting.
        overload_factor: Offered rate as a multiple of the measured
            single-request capacity (``WORKERS / cold_service_seconds``).
        queue_capacity: Bounded admission-queue depth.
        latency_fault_seconds: Injected sleep per
            :class:`~repro.robust.faults.SlowCostModel` trigger on the
            baseline optimizer's cost model (0 disables the fault).
        stats_churn_interval_seconds: Re-install statistics this often
            while driving load (0 disables churn). Churn goes through the
            front door's circuit breaker, so storms coalesce.
    """

    label: str
    duration_seconds: float = 2.0
    overload_factor: float = 1.0
    queue_capacity: int = 16
    latency_fault_seconds: float = 0.0
    stats_churn_interval_seconds: float = 0.0


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def run_load(
    scenario: LoadScenario, schema: Schema, stats: CatalogStatistics
) -> dict:
    """Run one load arm over ``schema`` and return its report dictionary."""
    queries = [
        make_query(WorkloadSpec("star", size), schema, index)
        for index, size in enumerate(QUERY_SIZES)
    ]

    service = OptimizationService(
        technique=TECHNIQUE, budget=SearchBudget(max_seconds=30.0)
    )
    service.install_statistics(stats)
    if scenario.latency_fault_seconds > 0:
        service.optimizer.cost_model = SlowCostModel(
            service.optimizer.cost_model,
            delay_seconds=scenario.latency_fault_seconds,
            every=LATENCY_FAULT_EVERY,
        )

    # Measure a cold request to estimate capacity (with the fault already
    # installed — the fault is part of the world being load-tested).
    started = time.perf_counter()
    service.optimize(queries[0])
    cold_seconds = max(1e-4, time.perf_counter() - started)
    service.cache.invalidate()
    capacity_qps = WORKERS / cold_seconds
    offered_qps = min(MAX_OFFERED_QPS, scenario.overload_factor * capacity_qps)
    interval = 1.0 / offered_qps

    # Generous tenant buckets: this harness measures queue backpressure
    # and brownout; tenant isolation has its own tests.
    registry = TenantRegistry(
        default_policy=TenantPolicy(
            bucket_capacity=max(16.0, offered_qps * scenario.duration_seconds),
            refill_per_second=max(16.0, offered_qps),
        )
    )
    config = FrontDoorConfig(
        queue_capacity=scenario.queue_capacity,
        workers=WORKERS,
        cooldown_seconds=0.1,
    )
    door = FrontDoor(service, config, tenants=registry)

    futures = []
    shed = {"queue-full": 0, "tenant-budget": 0, "shutdown": 0}
    submitted = 0
    with door:
        clock_start = time.monotonic()
        deadline = clock_start + scenario.duration_seconds
        next_churn = (
            clock_start + scenario.stats_churn_interval_seconds
            if scenario.stats_churn_interval_seconds > 0
            else None
        )
        next_tick = clock_start
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            if next_churn is not None and now >= next_churn:
                door.install_statistics(analyze(schema))
                next_churn = now + scenario.stats_churn_interval_seconds
            submitted += 1
            query = queries[submitted % len(queries)]
            tenant = f"tenant-{submitted % TENANTS}"
            try:
                futures.append(door.submit(query, tenant=tenant))
            except AdmissionRejected as exc:
                shed[exc.reason] = shed.get(exc.reason, 0) + 1
            next_tick += interval
            pause = next_tick - time.monotonic()
            if pause > 0:
                time.sleep(pause)
        door.close(drain=True, timeout=60.0)

    latencies: list[float] = []
    rung_mix: dict[str, int] = {}
    degraded = errors = hung = 0
    max_level = 0
    for future in futures:
        if not future.done():
            hung += 1
            continue
        exc = future.exception()
        if exc is not None:
            if isinstance(exc, AdmissionRejected):
                shed[exc.reason] = shed.get(exc.reason, 0) + 1
            else:
                errors += 1
            continue
        result: FrontDoorResult = future.result()
        latencies.append(result.total_seconds)
        rung_mix[result.entry] = rung_mix.get(result.entry, 0) + 1
        max_level = max(max_level, result.brownout_level)
        if result.degraded:
            degraded += 1
    latencies.sort()

    completed = len(latencies)
    shed_total = sum(shed.values())
    return {
        "label": scenario.label,
        "technique": TECHNIQUE,
        "overload_factor": scenario.overload_factor,
        "estimated_capacity_qps": round(capacity_qps, 2),
        "offered_qps": round(offered_qps, 2),
        "submitted": submitted,
        "completed": completed,
        "shed": shed,
        "shed_rate": round(shed_total / submitted, 4) if submitted else 0.0,
        "errors": errors,
        "hung": hung,
        "latency_seconds": {
            "p50": round(_percentile(latencies, 0.50), 6),
            "p95": round(_percentile(latencies, 0.95), 6),
            "p99": round(_percentile(latencies, 0.99), 6),
        },
        "rung_mix": rung_mix,
        "degraded_fraction": (
            round(degraded / completed, 4) if completed else 0.0
        ),
        "max_brownout_level": max_level,
        "stats_refreshes": {
            "applied": door.breaker.applied,
            "coalesced": door.breaker.coalesced,
        },
    }
