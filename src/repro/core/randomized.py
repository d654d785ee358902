"""Randomized join-order search: Iterative Improvement and 2PO.

The paper's introduction contrasts DP-with-pruning against approaches that
"completely jettison the DP approach and resort to alternative techniques
such as randomized algorithms" [3, 9]. These baselines round out the
evaluation: classic Iterative Improvement (II) over the space of *valid
left-deep orders* (every prefix connected — no cartesian products), and
Two-Phase Optimization (2PO: II to find a good start, then a short
simulated-annealing walk).

States are permutations of the relation indices whose every prefix induces
a connected subgraph. A state is costed by folding the permutation through
the shared :class:`~repro.core.planspace.PlanSpace` — every costed join is
charged to the counters, so the overhead comparison against DP/IDP/SDP is
apples-to-apples. Costing memoizes sub-JCRs in a table, as randomized
optimizers with memo tables do in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.statistics import CatalogStatistics
from repro.core.base import Optimizer, SearchBudget, SearchCounters, check_count
from repro.core.kernel import make_planspace
from repro.cost.model import CostModel
from repro.errors import OptimizationError
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.util.rng import derive_rng
from repro.util.timer import Timer

__all__ = ["RandomizedConfig", "IterativeImprovementOptimizer", "TwoPhaseOptimizer"]


@dataclass(frozen=True)
class RandomizedConfig:
    """Knobs for the randomized optimizers.

    Attributes:
        restarts: Number of II restarts from fresh random states.
        moves_per_start: Local moves attempted from each start.
        seed: Root seed of the random walk (search is deterministic given
            the seed and query).
        annealing_moves: 2PO only — moves in the annealing phase.
        initial_temperature: 2PO only — relative to the II minimum's cost.
        cooling: 2PO only — per-move geometric cooling factor.
    """

    restarts: int = 6
    moves_per_start: int = 120
    seed: int = 0
    annealing_moves: int = 300
    initial_temperature: float = 0.1
    cooling: float = 0.98

    def __post_init__(self) -> None:
        check_count("restarts", self.restarts, 1)
        check_count("moves_per_start", self.moves_per_start, 1)
        check_count("annealing_moves", self.annealing_moves, 0)
        if not 0 < self.cooling < 1:
            raise ValueError(f"cooling must be in (0, 1), got {self.cooling}")


class _JoinOrderWalk:
    """Shared machinery: valid left-deep orders, moves, and costing."""

    def __init__(self, space, table, rng):
        self.space = space
        self.table = table
        self.graph = space.graph
        self.rng = rng
        self.bases = [space.base_jcr(table, i) for i in range(self.graph.n)]

    def random_order(self) -> list[int]:
        """A uniform-ish random permutation with connected prefixes."""
        graph = self.graph
        order = [self.rng.randrange(graph.n)]
        mask = 1 << order[0]
        frontier = graph.neighbor_mask(order[0])
        while len(order) < graph.n:
            choices = []
            remaining = frontier
            while remaining:
                bit = remaining & -remaining
                choices.append(bit.bit_length() - 1)
                remaining ^= bit
            nxt = self.rng.choice(choices)
            order.append(nxt)
            mask |= 1 << nxt
            frontier = (frontier | graph.neighbor_mask(nxt)) & ~mask
        return order

    def is_valid(self, order: list[int]) -> bool:
        """Every prefix of the order must be connected."""
        neighbor_mask = self.graph.neighbor_mask
        mask = 1 << order[0]
        for rel in order[1:]:
            if not neighbor_mask(rel) & mask:
                return False
            mask |= 1 << rel
        return True

    def random_move(self, order: list[int]) -> list[int] | None:
        """Remove one relation and reinsert it elsewhere (if valid)."""
        n = len(order)
        if n < 3:
            return None
        for _attempt in range(8):
            source = self.rng.randrange(n)
            target = self.rng.randrange(n)
            if source == target:
                continue
            moved = list(order)
            rel = moved.pop(source)
            moved.insert(target, rel)
            if self.is_valid(moved):
                return moved
        return None

    def cost(self, order: list[int]) -> float:
        """Cost of the best left-deep plan following ``order``."""
        current = self.bases[order[0]]
        # lint: waive[RL004] space.join charges its SearchCounters internally
        for rel in order[1:]:
            joined = self.space.join(self.table, current, self.bases[rel])
            if joined is None:
                raise OptimizationError("invalid join order slipped through")
            current = joined
        return self.space.final_cost(current)

    def final_plan(self) -> PlanRecord:
        full = self.table.get(self.graph.all_mask)
        if full is None:
            raise OptimizationError("randomized search never completed a plan")
        return self.space.finalize(full)


class IterativeImprovementOptimizer(Optimizer):
    """Iterative Improvement with restarts over valid left-deep orders."""

    name = "II"

    def __init__(
        self,
        config: RandomizedConfig | None = None,
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(budget=budget, cost_model=cost_model)
        self.config = config if config is not None else RandomizedConfig()

    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        space = make_planspace(query, stats, self.cost_model, counters)
        table = space.new_table()
        rng = derive_rng(self.config.seed, "ii", query.label)
        walk = _JoinOrderWalk(space, table, rng)
        if query.graph.n == 1:
            return space.finalize(table.require(query.graph.all_mask))

        for _restart in range(self.config.restarts):
            order = walk.random_order()
            best_here = walk.cost(order)
            for _move in range(self.config.moves_per_start):
                counters.check_budget()
                candidate = walk.random_move(order)
                if candidate is None:
                    continue
                cost = walk.cost(candidate)
                if cost < best_here:
                    order, best_here = candidate, cost
        return walk.final_plan()


class TwoPhaseOptimizer(Optimizer):
    """2PO: Iterative Improvement, then a short simulated-annealing walk."""

    name = "2PO"

    def __init__(
        self,
        config: RandomizedConfig | None = None,
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(budget=budget, cost_model=cost_model)
        self.config = config if config is not None else RandomizedConfig()

    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        space = make_planspace(query, stats, self.cost_model, counters)
        table = space.new_table()
        rng = derive_rng(self.config.seed, "2po", query.label)
        walk = _JoinOrderWalk(space, table, rng)
        if query.graph.n == 1:
            return space.finalize(table.require(query.graph.all_mask))

        # Phase 1: II with fewer restarts.
        best_order = walk.random_order()
        best_cost = walk.cost(best_order)
        for _restart in range(max(1, self.config.restarts // 2)):
            order = walk.random_order()
            cost = walk.cost(order)
            for _move in range(self.config.moves_per_start):
                counters.check_budget()
                candidate = walk.random_move(order)
                if candidate is None:
                    continue
                candidate_cost = walk.cost(candidate)
                if candidate_cost < cost:
                    order, cost = candidate, candidate_cost
            if cost < best_cost:
                best_order, best_cost = order, cost

        # Phase 2: annealing around the II minimum.
        temperature = best_cost * self.config.initial_temperature
        order, cost = list(best_order), best_cost
        for _move in range(self.config.annealing_moves):
            counters.check_budget()
            candidate = walk.random_move(order)
            if candidate is None:
                continue
            candidate_cost = walk.cost(candidate)
            delta = candidate_cost - cost
            accept = delta <= 0 or (
                temperature > 0
                and rng.random() < math.exp(-delta / temperature)
            )
            if accept:
                order, cost = candidate, candidate_cost
            temperature *= self.config.cooling
        return walk.final_plan()
