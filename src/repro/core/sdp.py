"""Skyline Dynamic Programming (SDP) — the paper's contribution.

SDP augments bottom-up DP with a *localized* skyline pruning filter
(Chapter 2):

1. **Levels.** Level 1 builds access paths (standard DP). Each level ``L``
   pairs survivor JCRs of all prior levels (bushy trees). Pruning can only
   engage while hubs exist, which structurally confines it to levels
   ``2 .. N-2``; the final levels run standard DP, as in the paper's
   Figure 2.2 walk-through.

2. **PruneGroup / FreeGroup split.** A level-``L`` JCR joins the PruneGroup
   iff it includes a complete *hub-parent*; everything else (the FreeGroup)
   survives untouched — chains and cycles are never pruned at all.

3. **Partitioning.** PruneGroup JCRs are partitioned per hub-parent:

   * ``root`` (the paper's evaluated variant): hub-parents are the base
     graph's hubs (degree >= 3), fixed across levels;
   * ``parent``: hub-parents are previous-level survivors adjacent to >= 3
     outside relations (composite hubs, recomputed each level);
   * ``global``: no partitioning — one skyline over the whole level
     (the Table 3.6 ablation).

   A JCR lying in several partitions must survive in **all** of them.

4. **Skyline pruning.** Within each partition, JCRs are pruned with a
   skyline over the feature vector ``[Rows, Cost, Selectivity]`` — by
   default the disjunctive pairwise union (RC ∪ CS ∪ RS, Option 2), with
   the full 3-D skyline available as Option 1 (Section 2.1.5).

5. **Interesting orders** (Section 2.1.4). For each relation carrying an
   interesting join column (a shared join column, or the ORDER BY column),
   an extra partition holds all PruneGroup JCRs *not* containing that
   relation; its skyline survivors are added to the level output, so JCRs
   that could later combine with order-producing relations are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.statistics import CatalogStatistics
from repro.core.base import Optimizer, SearchBudget, SearchCounters, check_count
from repro.core.enumeration import level_pairs
from repro.core.kernel import make_planspace
from repro.cost.model import CostModel
from repro.errors import OptimizationError
from repro.obs.names import SPAN_SDP_FINALIZE, SPAN_SDP_LEVEL, SPAN_SDP_PRUNE
from repro.obs.runtime import current_tracer
from repro.obs.trace import maybe_span
from repro.plans.jcr import JCR
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.skyline.kdominant import k_dominant_skyline
from repro.skyline.multiway import full_skyline, pairwise_union_skyline
from repro.util.timer import Timer

__all__ = ["SDPConfig", "SDPOptimizer"]

_PARTITIONING_MODES = ("root", "parent", "either", "global")


@dataclass(frozen=True)
class SDPConfig:
    """Tuning knobs of the SDP algorithm.

    Attributes:
        partitioning: ``"root"`` (paper default), ``"parent"``,
            ``"either"`` (an extension: keep JCRs surviving under *either*
            root- or parent-hub partitioning — measurably more robust for
            ~3x the costing, still far below DP), or ``"global"`` (the
            localized-vs-global ablation).
        skyline_option: 2 for the disjunctive pairwise skyline (default),
            1 for the single full-vector skyline, 3 for the experimental
            "strong" (2-dominant) skyline of the paper's future-work
            section (falls back to Option 2 when a partition's k-dominant
            skyline is empty, which cyclic k-dominance permits).
        hub_degree: Minimum join degree that makes a node a hub.
        order_partitions: Build the extra interesting-order partitions.
        pairwise_dimensions: Option 2 only — which feature-vector index
            pairs to build skylines on: at least one pair, each of two
            distinct indices in 0..2. Defaults to the paper's RC/CS/RS
            combinations; the feature-vector ablation passes single pairs
            (e.g. only (0, 1) for a rows/cost skyline).
    """

    partitioning: str = "root"
    skyline_option: int = 2
    hub_degree: int = 3
    order_partitions: bool = True
    pairwise_dimensions: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.partitioning not in _PARTITIONING_MODES:
            raise ValueError(
                f"partitioning must be one of {_PARTITIONING_MODES}, "
                f"got {self.partitioning!r}"
            )
        if self.skyline_option not in (1, 2, 3):
            raise ValueError(
                f"skyline_option must be 1, 2 or 3, got {self.skyline_option}"
            )
        check_count("hub_degree", self.hub_degree, 1)
        if self.pairwise_dimensions is not None:
            # With no pair, every hub partition keeps nothing; a pair that
            # is not two distinct RCS indices is not a 2-D projection.
            if not self.pairwise_dimensions:
                raise ValueError("pairwise_dimensions must name at least one pair")
            for dims in self.pairwise_dimensions:
                if (
                    len(dims) != 2
                    or not all(isinstance(d, int) and 0 <= d <= 2 for d in dims)
                    or dims[0] == dims[1]
                ):
                    raise ValueError(
                        f"pairwise dimensions must be two distinct indices "
                        f"of the RCS vector, got {dims}"
                    )


class SDPOptimizer(Optimizer):
    """Skyline Dynamic Programming."""

    def __init__(
        self,
        config: SDPConfig | None = None,
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
        name: str | None = None,
    ):
        """Create an SDP optimizer.

        Args:
            config: Algorithm knobs (partitioning, skyline option, ...).
            budget: Search budget (1 GB modeled memory by default).
            cost_model: Cost constants.
            name: Display-name override.

        Each pruning pass records an ``sdp.prune`` span (level, PruneGroup
        and FreeGroup sizes, per-partition member counts, survivors) when
        observability is on — see :func:`repro.obs.runtime.capture`.
        """
        super().__init__(budget=budget, cost_model=cost_model)
        self.config = config if config is not None else SDPConfig()
        if name is not None:
            self.name = name
        elif self.config.partitioning == "global":
            self.name = "SDP/Global"
        elif self.config.skyline_option == 1:
            self.name = "SDP(opt1)"
        elif self.config.skyline_option == 3:
            self.name = "SDP(strong)"
        elif self.config.partitioning == "parent":
            self.name = "SDP(parent)"
        elif self.config.partitioning == "either":
            self.name = "SDP(either)"
        else:
            self.name = "SDP"

    # -- search ------------------------------------------------------------------

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
        with maybe_span(tracer, SPAN_SDP_LEVEL, level=1) as span:
            costed_before = counters.plans_costed
            for index in range(graph.n):
                space.base_jcr(table, index)
            span.set(
                built=graph.n,
                survivors=graph.n,
                plans_costed=counters.plans_costed - costed_before,
            )
        n = graph.n
        if n == 1:
            return space.finalize(table.require(graph.all_mask))

        root_hub_masks = [1 << h for h in graph.hubs(self.config.hub_degree)]
        order_relation_masks = self._order_relation_masks(query)

        levels: dict[int, list[JCR]] = {1: list(table.level(1))}
        for level in range(2, n + 1):
            with maybe_span(tracer, SPAN_SDP_LEVEL, level=level) as span:
                costed_before = counters.plans_costed
                pairs_before = counters.enumerated_pairs
                # A generator, not a list: level_pairs charges note_pairs
                # as it yields, so pair charges interleave with costing.
                space.join_batch(
                    table, level_pairs(levels, level, graph, counters)
                )
                built = list(table.level(level))
                built_count = len(built)
                if level <= n - 2 and built:
                    survivors = self._prune(
                        built,
                        level,
                        levels,
                        graph,
                        root_hub_masks,
                        order_relation_masks,
                        tracer,
                    )
                    if len(survivors) != len(built):
                        pruned = table.replace_level(level, survivors)
                        counters.note_jcrs_pruned(pruned)
                    built = survivors
                levels[level] = built
                span.set(
                    pairs=counters.enumerated_pairs - pairs_before,
                    built=built_count,
                    survivors=len(built),
                    pruned=built_count - len(built),
                    plans_costed=counters.plans_costed - costed_before,
                )

        full = table.get(graph.all_mask)
        if full is None:
            raise OptimizationError("SDP failed to build a complete plan")
        with maybe_span(tracer, SPAN_SDP_FINALIZE) as span:
            costed_before = counters.plans_costed
            record = space.finalize(full)
            span.set(plans_costed=counters.plans_costed - costed_before)
        return record

    # -- pruning -----------------------------------------------------------------

    def _hub_parent_masks(
        self,
        level: int,
        levels: dict[int, list[JCR]],
        graph,
        root_hub_masks: list[int],
        mode: str,
    ) -> list[int]:
        """Hub-parents relevant to pruning at ``level`` under ``mode``."""
        if mode == "root":
            return root_hub_masks
        previous = levels.get(level - 1, [])
        return [
            jcr.mask
            for jcr in previous
            if graph.outside_degree(jcr.mask) >= self.config.hub_degree
        ]

    def _prune(
        self,
        built: list[JCR],
        level: int,
        levels: dict[int, list[JCR]],
        graph,
        root_hub_masks: list[int],
        order_relation_masks: list[int],
        tracer=None,
    ) -> list[JCR]:
        """Apply the SDP pruning filter to one level's JCRs."""
        if self.config.partitioning == "either":
            keep = {
                jcr.mask
                for mode in ("root", "parent")
                for jcr in self._prune_mode(
                    built, level, levels, graph, root_hub_masks,
                    order_relation_masks, mode, tracer,
                )
            }
            return [jcr for jcr in built if jcr.mask in keep]
        return self._prune_mode(
            built,
            level,
            levels,
            graph,
            root_hub_masks,
            order_relation_masks,
            self.config.partitioning,
            tracer,
        )

    def _prune_mode(
        self,
        built: list[JCR],
        level: int,
        levels: dict[int, list[JCR]],
        graph,
        root_hub_masks: list[int],
        order_relation_masks: list[int],
        mode: str,
        tracer=None,
    ) -> list[JCR]:
        """One partitioning mode's pruning pass."""
        with maybe_span(tracer, SPAN_SDP_PRUNE, level=level, mode=mode) as span:
            if mode == "global":
                prune_group = built
                partitions: dict[int, list[JCR]] = {-1: built}
                free_group: list[JCR] = []
            else:
                parents = self._hub_parent_masks(
                    level, levels, graph, root_hub_masks, mode
                )
                if not parents:
                    # no hub available at this level: no pruning
                    span.set(
                        prune_group=0,
                        free_group=len(built),
                        survivors=len(built),
                    )
                    return built
                partitions = {}
                prune_set: set[int] = set()
                for parent in parents:
                    members = [
                        jcr for jcr in built if jcr.mask & parent == parent
                    ]
                    if members:
                        partitions[parent] = members
                        prune_set.update(jcr.mask for jcr in members)
                if not partitions:
                    span.set(
                        prune_group=0,
                        free_group=len(built),
                        survivors=len(built),
                    )
                    return built
                prune_group = [jcr for jcr in built if jcr.mask in prune_set]
                free_group = [jcr for jcr in built if jcr.mask not in prune_set]

            # A PruneGroup JCR must survive the skyline in every partition it
            # belongs to (Section 2.1.3).
            failed: set[int] = set()
            kept_per_partition: dict[int, int] = {}
            for parent, members in partitions.items():
                if len(members) <= 1:
                    kept_per_partition[parent] = len(members)
                    continue
                surviving = self._skyline(
                    [jcr.feature_vector() for jcr in members]
                )
                kept_per_partition[parent] = len(surviving)
                for position, jcr in enumerate(members):
                    if position not in surviving:
                        failed.add(jcr.mask)

            # Interesting-order partitions rescue JCRs that can later combine
            # with order-producing relations (Section 2.1.4).
            rescued: set[int] = set()
            if self.config.order_partitions and mode != "global":
                for relation_mask in order_relation_masks:
                    members = [
                        jcr for jcr in prune_group
                        if not jcr.mask & relation_mask
                    ]
                    if not members:
                        continue
                    surviving = self._skyline(
                        [jcr.feature_vector() for jcr in members]
                    )
                    rescued.update(
                        members[position].mask for position in surviving
                    )

            survivors = list(free_group)
            survivors.extend(
                jcr
                for jcr in prune_group
                if jcr.mask not in failed or jcr.mask in rescued
            )
            span.set(
                prune_group=len(prune_group),
                free_group=len(free_group),
                survivors=len(survivors),
                rescued=len(rescued),
            )
            if tracer is not None:
                span.set(
                    partitions={
                        (hex(key) if key >= 0 else "global"): {
                            "members": len(members),
                            "kept": kept_per_partition.get(key, len(members)),
                        }
                        for key, members in partitions.items()
                    }
                )
            return survivors

    def _skyline(self, vectors: list[tuple[float, float, float]]) -> set[int]:
        if self.config.skyline_option == 2:
            if self.config.pairwise_dimensions is not None:
                return pairwise_union_skyline(
                    vectors, dimensions=self.config.pairwise_dimensions
                )
            return pairwise_union_skyline(vectors)
        if self.config.skyline_option == 3:
            survivors = k_dominant_skyline(vectors, k=2)
            if survivors:
                return survivors
            return pairwise_union_skyline(vectors)
        return full_skyline(vectors)

    # -- interesting orders --------------------------------------------------------

    @staticmethod
    def _order_relation_masks(query: Query) -> list[int]:
        """Single-bit masks of relations carrying an interesting join column."""
        graph = query.graph
        relations: set[int] = set()
        for eclass in graph.shared_column_eclasses():
            mask = graph.eclass_relation_mask(eclass)
            while mask:
                bit = mask & -mask
                relations.add(bit)
                mask ^= bit
        if query.order_by is not None and query.order_by_eclass is not None:
            rel_name, _column = query.order_by
            relations.add(1 << graph.index_of(rel_name))
        return sorted(relations)
