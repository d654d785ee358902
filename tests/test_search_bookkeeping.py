"""Search bookkeeping stays off the per-pair path.

The level-wise searches settle their counter charges (pairs, costed
plans, opened slots, new JCRs) once per :data:`CHARGE_CHUNK` and at the
end of every batch, and the kernel takes the join facts of a pair with a
one-relation side from a per-relation table instead of rebuilding its
connecting predicates. These tests count the calls on one SDP star-20 and
one DP star-12 search (no timing involved), check that the traced level
spans still add up to the totals, and that a memory budget still trips
mid-level, close to its limit.
"""

from __future__ import annotations

import collections

import pytest

from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog import SchemaBuilder, analyze
from repro.core.base import (
    _CHECK_INTERVAL,
    BYTES_PER_RETAINED_PLAN,
    CHARGE_CHUNK,
    SearchBudget,
    SearchCounters,
)
from repro.core.registry import make_optimizer
from repro.errors import OptimizationBudgetExceeded
from repro.obs.names import (
    SPAN_DP_ENUMERATE,
    SPAN_DP_FINALIZE,
    SPAN_DP_LEVEL,
    SPAN_SDP_FINALIZE,
    SPAN_SDP_LEVEL,
)
from repro.obs.runtime import capture
from repro.query.joingraph import JoinGraph

COUNTER_METHODS = (
    "note_plans_costed",
    "note_retained",
    "note_pairs",
    "note_jcr_created",
    "note_jcrs_pruned",
    "_charge",
)

# (technique, star size, level span, finalize span)
SEARCHES = (
    ("SDP", 20, SPAN_SDP_LEVEL, SPAN_SDP_FINALIZE),
    ("DP", 12, SPAN_DP_LEVEL, SPAN_DP_FINALIZE),
)


@pytest.fixture(scope="module")
def wide():
    schema = SchemaBuilder(
        seed=0, relation_count=25, column_count=27, name="bench-wide-25"
    ).build()
    return schema, analyze(schema)


def counting(calls, name, method):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if name == "note_pairs":
            calls["pairs charged"] += args[1] if len(args) > 1 else 1
        return method(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "technique,size,level_span,finalize_span",
    SEARCHES,
    ids=[f"{technique}-star-{size}" for technique, size, _, _ in SEARCHES],
)
def test_no_counter_or_connecting_call_per_pair(
    technique, size, level_span, finalize_span, wide, monkeypatch
):
    schema, stats = wide
    query = make_query(WorkloadSpec("star", size), schema, 0)
    calls: collections.Counter = collections.Counter()
    for name in COUNTER_METHODS:
        monkeypatch.setattr(
            SearchCounters, name,
            counting(calls, name, getattr(SearchCounters, name)),
        )
    monkeypatch.setattr(
        JoinGraph, "connecting",
        counting(calls, "connecting", JoinGraph.connecting),
    )
    with capture() as exporter:
        result = make_optimizer(technique).optimize(query, stats)

    counter_calls = sum(calls[name] for name in COUNTER_METHODS)
    # Per pair, the searches made about 34,000 (SDP) and 6,400 (DP)
    # counter calls, and one connecting call per pair (8,000 and 11,264).
    assert counter_calls < 1_000, dict(calls)
    assert calls["connecting"] < 100, dict(calls)

    spans = exporter.spans
    levels = [span for span in spans if span.name == level_span]
    (finalize,) = [span for span in spans if span.name == finalize_span]
    assert len(levels) == size
    assert (
        sum(span.attributes["plans_costed"] for span in levels)
        + finalize.attributes["plans_costed"]
        == result.plans_costed
    )
    pairs = sum(span.attributes.get("pairs", 0) for span in levels)
    assert pairs == calls["pairs charged"] > 0
    if technique == "DP":
        (enumerate_span,) = [
            span for span in spans if span.name == SPAN_DP_ENUMERATE
        ]
        assert enumerate_span.attributes["pairs"] == pairs


def test_memory_budget_trips_mid_level_near_its_limit(wide):
    schema, stats = wide
    query = make_query(WorkloadSpec("star", 20), schema, 0)
    unbudgeted = make_optimizer("SDP").optimize(query, stats)
    limit = int(unbudgeted.modeled_memory_mb * 1e6) // 2
    optimizer = make_optimizer(
        "SDP", budget=SearchBudget(max_memory_bytes=limit)
    )
    with capture() as exporter:
        with pytest.raises(OptimizationBudgetExceeded) as err:
            optimizer.optimize(query, stats)
    assert err.value.resource == "memory"
    assert err.value.limit == limit
    # A check fires at most one check interval after the last one, and a
    # settlement hands over at most one chunk of events at once, none
    # dearer than a retained slot.
    assert (
        limit
        < err.value.used
        <= limit + (_CHECK_INTERVAL + CHARGE_CHUNK) * BYTES_PER_RETAINED_PLAN
    )
    spans = exporter.spans
    failed = [
        span
        for span in spans
        if span.name == SPAN_SDP_LEVEL and span.status == "error"
    ]
    assert [span.attributes["level"] > 1 for span in failed] == [True]
    assert not [span for span in spans if span.name == SPAN_SDP_FINALIZE]
