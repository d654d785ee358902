"""Central registry of span and metric names — the observability contract.

Every span or metric name the library emits is defined here, once. The
instrumented modules (``repro.core``, ``repro.robust``, ``repro.service``)
import these constants instead of spelling string literals inline; the
``RL005`` lint checker (:mod:`repro.lint.checkers.obsnames`) enforces
that, so dashboards, the search profiler and tests can rely on the names
below being the complete vocabulary.

Naming scheme:

* spans: ``<subsystem>.<operation>`` (``dp.level``, ``robust.rung``);
  the per-search-level spans all end in ``.level`` so the profiler can
  aggregate them by suffix (:data:`LEVEL_SPAN_SUFFIX`);
* metrics: Prometheus-style ``repro_<noun>_<unit-or-total>``.
"""

from __future__ import annotations

__all__ = [
    "SPAN_OPTIMIZE",
    "SPAN_DP_LEVEL",
    "SPAN_DP_ENUMERATE",
    "SPAN_DP_FINALIZE",
    "SPAN_SDP_LEVEL",
    "SPAN_SDP_PRUNE",
    "SPAN_SDP_FINALIZE",
    "SPAN_IDP_LEVEL",
    "SPAN_IDP_ITERATION",
    "SPAN_IDP_SELECT",
    "SPAN_ROBUST_LADDER",
    "SPAN_ROBUST_RUNG",
    "SPAN_SERVICE_OPTIMIZE",
    "SPAN_SERVICE_BATCH",
    "SPAN_SERVICE_CELL",
    "SPAN_FRONTDOOR_REQUEST",
    "LEVEL_SPAN_SUFFIX",
    "METRIC_OPTIMIZATIONS_TOTAL",
    "METRIC_OPTIMIZE_SECONDS",
    "METRIC_PLANS_COSTED_TOTAL",
    "METRIC_ROBUST_RUNGS_TOTAL",
    "METRIC_PLAN_CACHE_EVENTS_TOTAL",
    "METRIC_PLAN_CACHE_SIZE",
    "METRIC_FAULTS_INJECTED_TOTAL",
    "METRIC_FRONTDOOR_REQUESTS_TOTAL",
    "METRIC_FRONTDOOR_QUEUE_DEPTH",
    "METRIC_FRONTDOOR_LATENCY_SECONDS",
    "METRIC_FRONTDOOR_BROWNOUT_LEVEL",
    "METRIC_FRONTDOOR_RUNG_ENTRIES_TOTAL",
    "METRIC_STATS_REFRESHES_TOTAL",
    "SPAN_NAMES",
    "METRIC_NAMES",
]

# -- spans --------------------------------------------------------------------

#: The per-call root span wrapped around every ``Optimizer.optimize()``.
SPAN_OPTIMIZE = "optimize"

#: One DP level's enumeration work (subsets built, plans costed).
SPAN_DP_LEVEL = "dp.level"

#: DPccp pair enumeration and bucketing, before any level is costed.
SPAN_DP_ENUMERATE = "dp.enumerate"

#: Materialization of the winning DP plan from the parent-pointer forest.
SPAN_DP_FINALIZE = "dp.finalize"

#: One SDP level: survivor pairing, costing and the pruning pass.
SPAN_SDP_LEVEL = "sdp.level"

#: One partitioning mode's skyline pruning pass within an SDP level.
SPAN_SDP_PRUNE = "sdp.prune"

#: Materialization of the winning SDP plan.
SPAN_SDP_FINALIZE = "sdp.finalize"

#: One DP level inside an IDP block.
SPAN_IDP_LEVEL = "idp.level"

#: One IDP iteration: a DP block over the current contracted nodes.
SPAN_IDP_ITERATION = "idp.iteration"

#: IDP's greedy selection of the block winner.
SPAN_IDP_SELECT = "idp.select"

#: The whole fallback-ladder run (one per RobustOptimizer.optimize call).
SPAN_ROBUST_LADDER = "robust.ladder"

#: One ladder rung: a single technique's budgeted attempt.
SPAN_ROBUST_RUNG = "robust.rung"

#: One service-level optimize call (cache lookup + backing optimizer).
SPAN_SERVICE_OPTIMIZE = "service.optimize"

#: One ``optimize_many`` batch (grid of queries x techniques).
SPAN_SERVICE_BATCH = "service.batch"

#: One grid cell inside a batch (a single query/technique pair).
SPAN_SERVICE_CELL = "service.cell"

#: One admitted front-door request, queue wait through plan delivery.
SPAN_FRONTDOOR_REQUEST = "frontdoor.request"

#: Suffix shared by every per-search-level span; the profiler
#: (:mod:`repro.obs.profile`) aggregates spans by this suffix.
LEVEL_SPAN_SUFFIX = ".level"

# -- metrics ------------------------------------------------------------------

#: Counter: ``optimize()`` calls by technique and outcome status.
METRIC_OPTIMIZATIONS_TOTAL = "repro_optimizations_total"

#: Histogram: wall-clock seconds per ``optimize()`` call, by technique.
METRIC_OPTIMIZE_SECONDS = "repro_optimize_seconds"

#: Counter: plan alternatives costed, by technique.
METRIC_PLANS_COSTED_TOTAL = "repro_plans_costed_total"

#: Counter: fallback-ladder rung executions by technique and outcome.
METRIC_ROBUST_RUNGS_TOTAL = "repro_robust_rungs_total"

#: Counter: plan-cache traffic by event (hit/miss/eviction/invalidation).
METRIC_PLAN_CACHE_EVENTS_TOTAL = "repro_plan_cache_events_total"

#: Gauge: entries currently held by the plan cache.
METRIC_PLAN_CACHE_SIZE = "repro_plan_cache_size"

#: Counter: synthetic faults injected by the fault harness, by kind.
METRIC_FAULTS_INJECTED_TOTAL = "repro_faults_injected_total"

#: Counter: front-door request dispositions (ok/shed-queue/shed-tenant/
#: shed-shutdown/error).
METRIC_FRONTDOOR_REQUESTS_TOTAL = "repro_frontdoor_requests_total"

#: Gauge: requests currently waiting in the front-door admission queue.
METRIC_FRONTDOOR_QUEUE_DEPTH = "repro_frontdoor_queue_depth"

#: Histogram: end-to-end front-door latency (admission to plan), seconds.
METRIC_FRONTDOOR_LATENCY_SECONDS = "repro_frontdoor_latency_seconds"

#: Gauge: the brownout level currently applied by the load controller.
METRIC_FRONTDOOR_BROWNOUT_LEVEL = "repro_frontdoor_brownout_level"

#: Counter: front-door ladder entry rungs chosen, by entry technique —
#: the rung-mix curve under brownout.
METRIC_FRONTDOOR_RUNG_ENTRIES_TOTAL = "repro_frontdoor_rung_entries_total"

#: Counter: statistics-epoch refreshes through the circuit breaker, by
#: outcome (applied/coalesced).
METRIC_STATS_REFRESHES_TOTAL = "repro_stats_refreshes_total"

# -- registries ---------------------------------------------------------------

#: Every span name the library emits.
SPAN_NAMES = frozenset(
    {
        SPAN_OPTIMIZE,
        SPAN_DP_LEVEL,
        SPAN_DP_ENUMERATE,
        SPAN_DP_FINALIZE,
        SPAN_SDP_LEVEL,
        SPAN_SDP_PRUNE,
        SPAN_SDP_FINALIZE,
        SPAN_IDP_LEVEL,
        SPAN_IDP_ITERATION,
        SPAN_IDP_SELECT,
        SPAN_ROBUST_LADDER,
        SPAN_ROBUST_RUNG,
        SPAN_SERVICE_OPTIMIZE,
        SPAN_SERVICE_BATCH,
        SPAN_SERVICE_CELL,
        SPAN_FRONTDOOR_REQUEST,
    }
)

#: Every metric name the library publishes.
METRIC_NAMES = frozenset(
    {
        METRIC_OPTIMIZATIONS_TOTAL,
        METRIC_OPTIMIZE_SECONDS,
        METRIC_PLANS_COSTED_TOTAL,
        METRIC_ROBUST_RUNGS_TOTAL,
        METRIC_PLAN_CACHE_EVENTS_TOTAL,
        METRIC_PLAN_CACHE_SIZE,
        METRIC_FAULTS_INJECTED_TOTAL,
        METRIC_FRONTDOOR_REQUESTS_TOTAL,
        METRIC_FRONTDOOR_QUEUE_DEPTH,
        METRIC_FRONTDOOR_LATENCY_SECONDS,
        METRIC_FRONTDOOR_BROWNOUT_LEVEL,
        METRIC_FRONTDOOR_RUNG_ENTRIES_TOTAL,
        METRIC_STATS_REFRESHES_TOTAL,
    }
)
