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

Restarts, moves and the annealing schedule are module constants, and each
walk's seed is 0, so a run is deterministic given the query.
"""

from __future__ import annotations

import math

from repro.catalog.statistics import CatalogStatistics
from repro.core.base import Optimizer, SearchCounters
from repro.core.kernel import make_planspace
from repro.errors import OptimizationError
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.util.rng import derive_rng
from repro.util.timer import Timer

__all__ = ["IterativeImprovementOptimizer", "TwoPhaseOptimizer"]

#: Iterative Improvement restarts from fresh random states (2PO's first
#: phase runs half as many).
_RESTARTS = 6
#: Local moves attempted from each start.
_MOVES_PER_START = 120
#: Root seed of the random walks.
_SEED = 0
#: 2PO only: moves in the annealing phase.
_ANNEALING_MOVES = 300
#: 2PO only: starting temperature, relative to the II minimum's cost.
_INITIAL_TEMPERATURE = 0.1
#: 2PO only: per-move geometric cooling factor.
_COOLING = 0.98


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

    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        space = make_planspace(query, stats, self.cost_model, counters)
        table = space.new_table()
        rng = derive_rng(_SEED, "ii", query.label)
        walk = _JoinOrderWalk(space, table, rng)
        if query.graph.n == 1:
            return space.finalize(table.require(query.graph.all_mask))

        for _restart in range(_RESTARTS):
            order = walk.random_order()
            best_here = walk.cost(order)
            for _move in range(_MOVES_PER_START):
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

    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        space = make_planspace(query, stats, self.cost_model, counters)
        table = space.new_table()
        rng = derive_rng(_SEED, "2po", query.label)
        walk = _JoinOrderWalk(space, table, rng)
        if query.graph.n == 1:
            return space.finalize(table.require(query.graph.all_mask))

        # Phase 1: II with fewer restarts.
        best_order = walk.random_order()
        best_cost = walk.cost(best_order)
        for _restart in range(max(1, _RESTARTS // 2)):
            order = walk.random_order()
            cost = walk.cost(order)
            for _move in range(_MOVES_PER_START):
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
        temperature = best_cost * _INITIAL_TEMPERATURE
        order, cost = list(best_order), best_cost
        for _move in range(_ANNEALING_MOVES):
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
            temperature *= _COOLING
        return walk.final_plan()
