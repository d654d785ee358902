"""Exhaustive dynamic-programming optimizer (the DP baseline).

The classical System-R-style bottom-up search, bushy trees included,
cartesian products excluded, interesting orders retained — the optimal
reference every heuristic in the paper is judged against. Enumeration uses
DPccp (:mod:`repro.core.dpccp`); pairs are bucketed by result size so all
sub-JCRs exist before a pair is costed.

Like PostgreSQL's planner on the paper's 1 GB machines, DP simply runs out
of memory on dense graphs: the search charges every enumerated pair and
costed plan against its :class:`~repro.core.base.SearchBudget`, and raises
:class:`~repro.errors.OptimizationBudgetExceeded` (reported as ``*``) when
the modeled arena exceeds it.
"""

from __future__ import annotations

from repro.catalog.statistics import CatalogStatistics
from repro.core.base import Optimizer, SearchCounters
from repro.core.dpccp import csg_cmp_pairs
from repro.core.kernel import make_planspace
from repro.errors import OptimizationError
from repro.obs.names import SPAN_DP_ENUMERATE, SPAN_DP_FINALIZE, SPAN_DP_LEVEL
from repro.obs.runtime import current_tracer
from repro.obs.trace import maybe_span
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.util.timer import Timer

__all__ = ["DynamicProgrammingOptimizer"]

#: Pairs buffered between budget charges during enumeration. Small enough
#: that a memory-budget trip on a dense graph happens after O(chunk)
#: extra pairs, large enough to amortize the checkpoint machinery.
_PAIR_CHARGE_CHUNK = 512


class DynamicProgrammingOptimizer(Optimizer):
    """Exhaustive bushy DP over connected subgraphs."""

    name = "DP"

    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        graph = query.graph
        space = make_planspace(query, stats, self.cost_model, counters)
        table = space.new_table()
        tracer = current_tracer()
        with maybe_span(tracer, SPAN_DP_LEVEL, level=1) as span:
            costed_before = counters.plans_costed
            for index in range(graph.n):
                space.base_jcr(table, index)
            span.set(
                subsets=graph.n,
                plans_costed=counters.plans_costed - costed_before,
            )
        if graph.n == 1:
            return space.finalize(table.require(graph.all_mask))

        with maybe_span(tracer, SPAN_DP_ENUMERATE) as span:
            neighbors = [graph.neighbor_mask(i) for i in range(graph.n)]
            buckets: dict[int, list[tuple[int, int]]] = {}
            buckets_get = buckets.get
            pair_count = 0
            uncharged = 0
            for pair in csg_cmp_pairs(neighbors):
                s1, s2 = pair
                level = (s1 | s2).bit_count()
                bucket = buckets_get(level)
                if bucket is None:
                    buckets[level] = [pair]
                else:
                    bucket.append(pair)
                pair_count += 1
                uncharged += 1
                # Chunked charging: same totals as per-pair notes with
                # amortized checkpoint overhead, but still frequent enough
                # that pair/memory budgets trip *during* enumeration —
                # dense graphs must not buffer an unbounded pair list
                # before the first budget check.
                if uncharged == _PAIR_CHARGE_CHUNK:
                    counters.note_pairs(uncharged)
                    uncharged = 0
            if uncharged:
                counters.note_pairs(uncharged)
            span.set(pairs=pair_count, levels=len(buckets))

        by_mask = table._by_mask
        join_batch = space.join_batch
        for level in sorted(buckets):
            pairs = buckets[level]
            with maybe_span(tracer, SPAN_DP_LEVEL, level=level) as span:
                costed_before = counters.plans_costed
                try:
                    jcr_pairs = [(by_mask[s1], by_mask[s2]) for s1, s2 in pairs]
                except KeyError as exc:
                    raise OptimizationError(
                        "DP enumeration order violated: missing sub-JCR"
                    ) from exc
                join_batch(table, jcr_pairs)
                if tracer is not None:
                    span.set(
                        pairs=len(pairs),
                        subsets=len(table.level(level)),
                        plans_costed=counters.plans_costed - costed_before,
                    )

        full = table.get(graph.all_mask)
        if full is None:
            raise OptimizationError("DP failed to build a complete plan")
        with maybe_span(tracer, SPAN_DP_FINALIZE) as span:
            costed_before = counters.plans_costed
            record = space.finalize(full)
            span.set(plans_costed=counters.plans_costed - costed_before)
        return record
