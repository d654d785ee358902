"""The traced pass: per-layer numbers, timed from outside the program.

It runs after the end-to-end measurement, on the same inputs, and adds no
instrumentation to ``src/``. For the pool's first :data:`TRACED_TEXTS`
distinct texts it times the calls into each layer's public functions —
``parse_sql``, ``JoinGraph`` (which applies the implied-edge closure),
``query_fingerprint``, ``make_optimizer(T).optimize``, DPccp's
``csg_cmp_pairs`` — and collects the spans the program already emits
(``*.level``, ``sdp.prune``, ``*.finalize``) through
``repro.obs.capture()``. Counts come from the first pass over the
distinct texts only, so they repeat exactly for a seed; times are medians
over every pass made within the run's seconds.

The serving numbers (plan cache, ``FrontDoor``, load generator) exist
only where traffic goes through the service: the frontdoor_mix ladder.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import repro
from repro.core.dpccp import csg_cmp_pairs
from repro.core.registry import make_optimizer
from repro.errors import ReproError
from repro.obs.runtime import capture
from repro.service.fingerprint import query_fingerprint

import loops
import measure
import oracle

#: Distinct texts the traced pass covers, in pool order: eight rounds of
#: star_sdp's five shapes, whose first pass takes about 30 s.
TRACED_TEXTS = 40


def _timed(call, *args):
    started = time.perf_counter()
    value = call(*args)
    return time.perf_counter() - started, value


def _span_seconds(spans, match) -> float:
    return sum(span.duration_seconds for span in spans if match(span.name))


def _sample(env: measure.Env, sql: str, traced_first: bool) -> dict:
    """One text through every layer; times in seconds, plus the results.

    The traced and untraced facade calls swap order from text to text, so
    neither side of the tracing-overhead ratio always runs warmer.
    """
    parse, query = _timed(repro.parse_sql, env.schema, sql)
    graph = query.graph
    names = graph.relation_names
    joins = [
        (names[p.left], p.left_column, names[p.right], p.right_column)
        for p in graph.predicates
        if not p.implied
    ]
    build, _ = _timed(repro.JoinGraph, names, joins)
    fingerprint, _ = _timed(query_fingerprint, query)
    if not traced_first:
        e2e, result = _timed(env.optimize, sql)
    with capture() as exporter:
        traced, _ = _timed(env.optimize, sql)
    if traced_first:
        e2e, result = _timed(env.optimize, sql)
    search, searched = _timed(
        lambda: make_optimizer(env.spec.technique).optimize(query, env.stats)
    )
    spans = exporter.spans
    level = _span_seconds(spans, lambda name: name.endswith(".level"))
    prune = _span_seconds(spans, lambda name: name == "sdp.prune")
    root = _span_seconds(spans, lambda name: name == "optimize")
    sample = {
        "parse": parse,
        "graph": build,
        "fingerprint": fingerprint,
        "e2e": e2e,
        "search": search,
        "trace_ratio": traced / e2e,
        # Facade overhead from one call: its wall clock minus the search's
        # own root span, minus parsing (timed above).
        "overhead": traced - root - parse,
        "level": level,
        "prune": prune,
        "cost": level - prune,
        "finalize": _span_seconds(spans, lambda name: name.endswith(".finalize")),
        "result": result,
        "searched": searched,
        "spans": spans,
    }
    if graph.n <= oracle.DP_REFERENCE_MAX:
        neighbors = [graph.neighbor_mask(i) for i in range(graph.n)]
        sample["enumerate"], sample["pairs"] = _timed(
            lambda: sum(1 for _ in csg_cmp_pairs(neighbors))
        )
    return sample


#: The timings :func:`query_layers` takes medians or totals of.
_TIMES = (
    "parse", "graph", "fingerprint", "e2e", "search", "trace_ratio", "overhead",
    "level", "prune", "cost", "finalize", "enumerate",
)


def query_layers(env: measure.Env, seconds: float, checker: oracle.Checker):
    """Query, search, DPccp, skyline, plans and obs layers.

    Returns ``(metrics, spans, attempted)``; ``spans`` are the first
    pass's span dicts, each tagged with its request number.
    """
    distinct = list(dict.fromkeys(env.pool))[:TRACED_TEXTS]
    times = defaultdict(list)
    counts = defaultdict(float)
    span_rows = []
    attempted = 0
    started = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - started < seconds:
        for number, (label, sql) in enumerate(distinct):
            try:
                sample = _sample(env, sql, traced_first=(number + passes) % 2 == 1)
            except ReproError as exc:
                checker.fail(f"{label}: {type(exc).__name__}: {exc}")
                continue
            for key in _TIMES:
                if key in sample:
                    times[key].append(sample[key])
            searched = sample["searched"]
            counts["plans_all"] += searched.plans_costed
            if passes:
                continue
            attempted += 1
            checker.add(label, sql, sample["result"])
            counts["plans_costed"] += searched.plans_costed
            counts["jcrs_created"] += searched.jcrs_created
            counts["jcrs_pruned"] += searched.jcrs_pruned
            counts["memory_mb"] = max(counts["memory_mb"], searched.modeled_memory_mb)
            counts["pairs"] += sample.get("pairs", 0)
            span_rows.extend(
                dict(span.to_dict(), request=number, label=label)
                for span in sample["spans"]
            )
        passes += 1

    def median(key: str, scale: float) -> float:
        return statistics.median(times[key]) * scale if times[key] else 0.0

    total = {key: sum(values) for key, values in times.items()}
    return (
        {
            "query.parse_us": median("parse", 1e6),
            "query.graph_us": median("graph", 1e6),
            "query.parse_share": total["parse"] / total["e2e"],
            "api.overhead_us": median("overhead", 1e6),
            "fingerprint.us": median("fingerprint", 1e6),
            "dpccp.pairs": int(counts["pairs"]),
            "dpccp.enumerate_ms": median("enumerate", 1e3),
            "search.ms": median("search", 1e3),
            "search.level_ms": median("level", 1e3),
            "search.cost_ms": median("cost", 1e3),
            "search.plans_costed": int(counts["plans_costed"]),
            "search.plans_per_s": counts["plans_all"] / total["search"],
            "search.jcrs_created": int(counts["jcrs_created"]),
            "search.modeled_memory_mb": counts["memory_mb"],
            "skyline.prune_share": total["prune"] / total["level"],
            "skyline.jcrs_pruned": int(counts["jcrs_pruned"]),
            "skyline.prune_ratio": counts["jcrs_pruned"] / counts["jcrs_created"],
            "plans.finalize_ms": median("finalize", 1e3),
            "obs.trace_overhead_pct": (median("trace_ratio", 1.0) - 1) * 100,
        },
        span_rows,
        attempted,
    )


def serving_layers(steps: dict[int, measure.Step], door: repro.FrontDoor) -> dict:
    """Plan-cache, front-door and load-generator numbers from the ladder.

    Cache and service times come from the headline step; shed rates,
    per-rate p90 and the generator's lateness from every step. A step
    whose p90 falls on a refused request reports it as ``None``.
    """
    headline = steps[measure.HEADLINE_RATE]
    served = [result for _, result in headline.served]
    hits, misses, invalidations = headline.cache
    waits = [result.queue_wait_seconds for result in served]
    service = {
        hit: [
            result.total_seconds - result.queue_wait_seconds
            for result in served
            if result.result.cache_hit is hit
        ]
        for hit in (True, False)
    }
    requests = [r for step in steps.values() for r in step.requests]
    lags = [r.sent - r.due for r in requests]
    metrics = {
        "cache.hit_rate": hits / (hits + misses),
        "cache.invalidations": invalidations,
        "frontdoor.queue_wait_p50_ms": statistics.median(waits) * 1e3,
        "frontdoor.queue_wait_p90_ms": loops.percentile(waits, 90) * 1e3,
        "frontdoor.hit_service_ms": statistics.median(service[True]) * 1e3,
        "frontdoor.miss_service_ms": statistics.median(service[False]) * 1e3,
        "frontdoor.shed_rate": sum(r.error is not None for r in requests) / len(requests),
        "frontdoor.degraded_fraction": sum(r.degraded for r in served) / len(served),
        "frontdoor.brownout_max": max(r.brownout_level for r in served),
        "frontdoor.stats_applied": door.breaker.applied,
        "frontdoor.stats_coalesced": door.breaker.coalesced,
        "frontdoor.max_qps_within_slo": measure.max_qps_within_slo(steps),
        "loadgen.lag_p90_ms": loops.percentile(lags, 90) * 1e3,
        "loadgen.lag_max_ms": max(lags) * 1e3,
    }
    for rate, step in steps.items():
        p90 = step.p90_ms
        metrics[f"frontdoor.rate{rate}.latency_p90_ms"] = None if p90 == math.inf else p90
        metrics[f"frontdoor.rate{rate}.shed_rate"] = step.shed / len(step.requests)
    return metrics
