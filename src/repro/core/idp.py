"""Iterative Dynamic Programming (IDP) — the paper's main baseline.

IDP (Kossmann & Stocker) runs standard DP bottom-up until a block-size
limit ``k``, *globally* selects one size-``k`` subplan to keep, collapses it
into a compound relation, discards everything else, and restarts — trading
optimality for bounded memory.

The variant implemented by default is the one the paper evaluates as the
best performer of [4]: **IDP1-balanced-bestRow** with the hybrid evaluation
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
from dataclasses import dataclass

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

__all__ = ["IDPConfig", "IDPOptimizer"]

_BLOCK_POLICIES = ("balanced", "standard")
_EVALUATIONS = ("minrows", "mincost", "minsel")


@dataclass(frozen=True)
class IDPConfig:
    """IDP tuning knobs.

    Attributes:
        k: Maximum DP block size (the paper evaluates 4 and 7).
        block_policy: ``"balanced"`` (equalized block sizes, the paper's
            variant) or ``"standard"`` (always ``k``).
        evaluation: Plan evaluation function ordering the block-top JCRs:
            ``"minrows"`` (the paper's Minimum Intermediate Result),
            ``"mincost"``, or ``"minsel"``.
        selection_fraction: Fraction of block-top JCRs ballooned to complete
            plans before picking the winner (the paper's 5 %).
        balloon: Enable ballooning; when off, the first JCR by
            ``evaluation`` is collapsed directly (IDP1-standard behaviour).
    """

    k: int = 7
    block_policy: str = "balanced"
    evaluation: str = "minrows"
    selection_fraction: float = 0.05
    balloon: bool = True

    def __post_init__(self) -> None:
        check_count("k", self.k, 2)
        if self.block_policy not in _BLOCK_POLICIES:
            raise ValueError(
                f"block_policy must be one of {_BLOCK_POLICIES}, "
                f"got {self.block_policy!r}"
            )
        if self.evaluation not in _EVALUATIONS:
            raise ValueError(
                f"evaluation must be one of {_EVALUATIONS}, "
                f"got {self.evaluation!r}"
            )
        if not 0.0 < self.selection_fraction <= 1.0:
            raise ValueError(
                f"selection_fraction must be in (0, 1], "
                f"got {self.selection_fraction}"
            )


class IDPOptimizer(Optimizer):
    """IDP1 with balanced blocks and balloon-based selection."""

    def __init__(
        self,
        config: IDPConfig | None = None,
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
        name: str | None = None,
    ):
        super().__init__(budget=budget, cost_model=cost_model)
        self.config = config if config is not None else IDPConfig()
        self.name = name if name is not None else f"IDP({self.config.k})"

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
        """Next DP block size under the configured policy."""
        k = self.config.k
        if node_count <= k:
            return node_count
        if self.config.block_policy == "standard":
            return k
        # Balanced: spread the remaining work over equally sized blocks.
        iterations = math.ceil((node_count - 1) / (k - 1))
        return max(2, min(k, math.ceil((node_count - 1) / iterations) + 1))

    # -- selection ----------------------------------------------------------------------

    def _evaluation_key(self, jcr: JCR) -> float:
        if self.config.evaluation == "minrows":
            return jcr.rows
        if self.config.evaluation == "mincost":
            return jcr.best_cost
        return jcr.log_sel

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
        ranked = sorted(candidates, key=self._evaluation_key)
        if not self.config.balloon:
            return ranked[0]
        shortlist = ranked[
            : max(1, math.ceil(self.config.selection_fraction * len(ranked)))
        ]
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
