"""Iterative Dynamic Programming (IDP) — the paper's main baseline.

IDP (Kossmann & Stocker) runs standard DP bottom-up until a block-size
limit ``k``, *globally* selects one size-``k`` subplan to keep, collapses it
into a compound relation, discards everything else, and restarts — trading
optimality for bounded memory.

The variant implemented is the one the paper evaluates as the best
performer of [4]: **IDP1-balanced-bestRow** with the hybrid evaluation
function —

* block sizes are *balanced* so every iteration shrinks the problem evenly;
* the top 5 % of block-top JCRs by **MinRows** are *ballooned* (greedily
  completed, again by MinRows) into full plans;
* the candidate whose ballooned plan is cheapest is collapsed.

Between iterations the DP table is discarded, which the modeled-memory
accounting mirrors by resetting the planner arena
(:meth:`repro.core.base.SearchCounters.reset_arena`) down to the retained
composite plans.
"""

from __future__ import annotations

import math

from repro.catalog.statistics import CatalogStatistics
from repro.core.base import (
    BYTES_PER_RETAINED_PLAN,
    Optimizer,
    SearchBudget,
    SearchCounters,
    check_count,
)
from repro.core.enumeration import level_pairs
from repro.core.kernel import make_planspace
from repro.core.table import JCRTable
from repro.cost.model import CostModel
from repro.errors import OptimizationError
from repro.obs.names import SPAN_IDP_ITERATION, SPAN_IDP_LEVEL, SPAN_IDP_SELECT
from repro.obs.runtime import current_tracer
from repro.obs.trace import maybe_span
from repro.plans.jcr import JCR
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.util.timer import Timer

__all__ = ["IDPOptimizer"]

#: Share of the block-top JCRs, best MinRows first, ballooned into complete
#: plans before the winner is picked (the paper's 5 %).
_BALLOON_FRACTION = 0.05


class IDPOptimizer(Optimizer):
    """IDP1 with balanced blocks and balloon-based selection."""

    def __init__(
        self,
        k: int = 7,
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
    ):
        """Create an IDP optimizer with DP block size ``k`` (the paper
        evaluates 4 and 7); ``k`` must be an int >= 2."""
        check_count("k", k, 2)
        super().__init__(budget=budget, cost_model=cost_model)
        self.k = k
        self.name = f"IDP({k})"

    # -- search --------------------------------------------------------------------

    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        graph = query.graph
        space = make_planspace(query, stats, self.cost_model, counters)
        tracer = current_tracer()

        seed_table = space.new_table()
        with maybe_span(tracer, SPAN_IDP_LEVEL, level=1) as span:
            costed_before = counters.plans_costed
            nodes: list[JCR] = [
                space.base_jcr(seed_table, index) for index in range(graph.n)
            ]
            span.set(
                built=graph.n,
                plans_costed=counters.plans_costed - costed_before,
            )
        if graph.n == 1:
            return space.finalize(nodes[0])

        iteration = 0
        while True:
            iteration += 1
            node_count = len(nodes)
            block = self._block_size(node_count)

            with maybe_span(
                tracer, SPAN_IDP_ITERATION,
                iteration=iteration, nodes=node_count, block=block,
            ):
                table = space.new_table()
                for node in nodes:
                    table.insert(node)
                node_levels: dict[int, list[JCR]] = {1: list(nodes)}
                node_level_of: dict[int, int] = {
                    node.mask: 1 for node in nodes
                }

                for level in range(2, block + 1):
                    with maybe_span(
                        tracer, SPAN_IDP_LEVEL, level=level
                    ) as span:
                        costed_before = counters.plans_costed
                        pairs_before = counters.enumerated_pairs
                        created: list[JCR] = []
                        for a, b in level_pairs(
                            node_levels, level, graph, counters
                        ):
                            jcr = space.join(table, a, b)
                            if jcr is not None and jcr.mask not in node_level_of:
                                node_level_of[jcr.mask] = level
                                created.append(jcr)
                        node_levels[level] = created
                        span.set(
                            pairs=counters.enumerated_pairs - pairs_before,
                            built=len(created),
                            plans_costed=counters.plans_costed - costed_before,
                        )

                if block == node_count:
                    full = table.get(graph.all_mask)
                    if full is None:
                        raise OptimizationError(
                            "IDP failed to build a complete plan"
                        )
                    return space.finalize(full)

                with maybe_span(tracer, SPAN_IDP_SELECT) as span:
                    costed_before = counters.plans_costed
                    candidates = node_levels.get(block, [])
                    winner = self._select(candidates, nodes, space, table)
                    span.set(
                        candidates=len(candidates),
                        winner_mask=hex(winner.mask),
                        plans_costed=counters.plans_costed - costed_before,
                    )
                nodes = [winner] + [
                    node for node in nodes if not node.mask & winner.mask
                ]
                carried = sum(node.plan_count for node in nodes)
                counters.reset_arena(carried * BYTES_PER_RETAINED_PLAN)

    # -- block sizing -----------------------------------------------------------------

    def _block_size(self, node_count: int) -> int:
        """Next DP block size: balanced, at most ``k``."""
        k = self.k
        if node_count <= k:
            return node_count
        # Spread the remaining work over equally sized blocks.
        iterations = math.ceil((node_count - 1) / (k - 1))
        return max(2, min(k, math.ceil((node_count - 1) / iterations) + 1))

    # -- selection ----------------------------------------------------------------------

    def _select(
        self,
        candidates: list[JCR],
        nodes: list[JCR],
        space,
        table: JCRTable,
    ) -> JCR:
        """Pick the block-top JCR to collapse into a compound relation."""
        if not candidates:
            raise OptimizationError(
                "IDP block produced no top-level JCRs (disconnected block?)"
            )
        # MinRows, the paper's evaluation function.
        ranked = sorted(candidates, key=lambda jcr: jcr.rows)
        shortlist = ranked[: max(1, math.ceil(_BALLOON_FRACTION * len(ranked)))]
        best_candidate: JCR | None = None
        best_cost = math.inf
        for candidate in shortlist:
            cost = self._balloon_cost(candidate, nodes, space, table)
            if cost < best_cost:
                best_cost = cost
                best_candidate = candidate
        if best_candidate is None:  # every balloon got stuck; fall back
            return ranked[0]
        return best_candidate

    def _balloon_cost(
        self,
        candidate: JCR,
        nodes: list[JCR],
        space,
        table: JCRTable,
    ) -> float:
        """Greedily complete ``candidate`` by MinRows; its final plan cost.

        The ballooned plans are throwaways — they exist only to rank the
        shortlist — but their costing is real work and is charged to the
        counters like any other.
        """
        graph = space.graph
        current = candidate
        frontier = graph.neighbors(candidate.mask)
        remaining = [node for node in nodes if not node.mask & candidate.mask]
        while remaining:
            best_node = None
            best_rows = math.inf
            for node in remaining:
                if not frontier & node.mask:
                    continue
                rows = space.rows(current.mask | node.mask)
                if rows < best_rows:
                    best_rows = rows
                    best_node = node
            if best_node is None:
                return math.inf  # stuck (cannot happen on connected graphs)
            joined = space.join(table, current, best_node)
            if joined is None:
                return math.inf
            current = joined
            frontier = (frontier | graph.neighbors(best_node.mask)) & ~current.mask
            remaining = [node for node in remaining if node is not best_node]
        return current.best_cost
