"""IDP2 — the greedy-then-DP flavor of Iterative Dynamic Programming.

Kossmann & Stocker's second IDP family inverts IDP1's structure: instead of
running DP until memory forces a heuristic choice, IDP2 uses a *cheap
greedy* pass to decide which relations belong together, and spends its DP
budget re-optimizing those small groups exhaustively:

1. simulate greedy (minimum-intermediate-result) merging over the current
   nodes until some composite accumulates ``k`` nodes — that group of
   ``k`` nodes is the next optimization unit;
2. run exhaustive DP over just those ``k`` nodes, producing the optimal
   subplan for the group;
3. collapse the group into a single compound node and repeat until one
   node remains (a final DP block stitches the last <= k nodes together).

The paper evaluates only IDP1 (its best variant); IDP2 is included here for
completeness of the IDP baseline family — it occupies a different point on
the Figure 1.2 effort/quality trade-off (greedy-guided grouping is cheaper
but commits earlier).
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
from repro.plans.jcr import JCR
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.util.timer import Timer

__all__ = ["IDP2Config", "IDP2Optimizer"]


@dataclass(frozen=True)
class IDP2Config:
    """IDP2 knobs.

    Attributes:
        k: Size (in nodes) of each greedily selected DP group.
    """

    k: int = 7

    def __post_init__(self) -> None:
        check_count("k", self.k, 2)


class IDP2Optimizer(Optimizer):
    """Greedy grouping + exhaustive DP per group."""

    def __init__(
        self,
        config: IDP2Config | None = None,
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
        name: str | None = None,
    ):
        super().__init__(budget=budget, cost_model=cost_model)
        self.config = config if config is not None else IDP2Config()
        self.name = name if name is not None else f"IDP2({self.config.k})"

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
        seed_table = space.new_table()
        nodes: list[JCR] = [
            space.base_jcr(seed_table, index) for index in range(graph.n)
        ]
        if graph.n == 1:
            return space.finalize(nodes[0])

        while len(nodes) > 1:
            group = self._greedy_group(nodes, space)
            table = space.new_table()
            for node in group:
                table.insert(node)
            compound = self._dp_over(group, table, space)
            nodes = [compound] + [
                node for node in nodes if not node.mask & compound.mask
            ]
            carried = sum(node.plan_count for node in nodes)
            counters.reset_arena(carried * BYTES_PER_RETAINED_PLAN)

        full = nodes[0]
        if full.mask != graph.all_mask:
            raise OptimizationError("IDP2 terminated without a complete plan")
        return space.finalize(full)

    # -- phases ----------------------------------------------------------------------

    def _greedy_group(self, nodes: list[JCR], space) -> list[JCR]:
        """Min-rows greedy merging until one cluster holds ``k`` nodes.

        Only the *grouping* is greedy; the group members are re-optimized
        exhaustively afterwards. Returns the chosen nodes (not composites).
        """
        graph = space.graph
        limit = min(self.config.k, len(nodes))
        clusters: list[list[JCR]] = [[node] for node in nodes]
        while True:
            largest = max(clusters, key=len)
            if len(largest) >= limit:
                return largest
            best_pair: tuple[int, int] | None = None
            best_rows = math.inf
            masks = [
                (cluster, self._cluster_mask(cluster)) for cluster in clusters
            ]
            for i in range(len(masks)):
                mask_i = masks[i][1]
                neighbors = graph.neighbors(mask_i)
                for j in range(i + 1, len(masks)):
                    mask_j = masks[j][1]
                    if not neighbors & mask_j:
                        continue
                    if len(masks[i][0]) + len(masks[j][0]) > limit:
                        continue
                    rows = space.rows(mask_i | mask_j)
                    if rows < best_rows:
                        best_rows = rows
                        best_pair = (i, j)
            if best_pair is None:
                # no mergeable pair under the size cap; grow the biggest
                # cluster by its cheapest neighbor node instead
                return self._pad_cluster(largest, clusters, space, limit)
            i, j = best_pair
            merged = clusters[i] + clusters[j]
            clusters = [
                cluster
                for index, cluster in enumerate(clusters)
                if index not in (i, j)
            ]
            clusters.append(merged)

    def _pad_cluster(
        self,
        cluster: list[JCR],
        clusters: list[list[JCR]],
        space,
        limit: int,
    ) -> list[JCR]:
        graph = space.graph
        members = list(cluster)
        mask = self._cluster_mask(members)
        singles = [c[0] for c in clusters if len(c) == 1 and c[0] not in members]
        while len(members) < limit:
            frontier = graph.neighbors(mask)
            candidates = [node for node in singles if node.mask & frontier]
            if not candidates:
                break
            nxt = min(candidates, key=lambda node: space.rows(mask | node.mask))
            members.append(nxt)
            singles.remove(nxt)
            mask |= nxt.mask
        return members

    @staticmethod
    def _cluster_mask(cluster: list[JCR]) -> int:
        mask = 0
        for node in cluster:
            mask |= node.mask
        return mask

    def _dp_over(
        self, group: list[JCR], table: JCRTable, space
    ) -> JCR:
        """Exhaustive level-wise DP over the group's nodes."""
        node_levels: dict[int, list[JCR]] = {1: list(group)}
        node_level_of: dict[int, int] = {node.mask: 1 for node in group}
        for level in range(2, len(group) + 1):
            created: list[JCR] = []
            for a, b in level_pairs(node_levels, level, space.graph, space.counters):
                jcr = space.join(table, a, b)
                if jcr is not None and jcr.mask not in node_level_of:
                    node_level_of[jcr.mask] = level
                    created.append(jcr)
            node_levels[level] = created
        full_mask = self._cluster_mask(group)
        compound = table.get(full_mask)
        if compound is None:
            raise OptimizationError(
                "IDP2 group was not connected; no compound plan built"
            )
        return compound
