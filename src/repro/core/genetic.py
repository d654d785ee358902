"""Genetic join-order optimization (GEQO-style).

PostgreSQL itself abandons exhaustive DP beyond ``geqo_threshold`` relations
and falls back to GEQO, a genetic algorithm over left-deep join orders —
one of the "genetic techniques" [6] the paper's introduction cites. This
implementation provides that baseline over the same plan space as the other
optimizers:

* chromosomes are permutations of the relation indices; fitness is the cost
  of the best left-deep plan following the order (invalid prefixes are
  repaired, not rejected);
* selection is tournament-based; recombination is edge-recombination-lite
  (greedy adjacency-preserving merge); mutation swaps two positions;
* every costed join is charged to the shared counters, keeping overhead
  comparisons fair.

Population, generations, tournament size, mutation rate and the root seed
are module constants, so a run is deterministic given the query.
"""

from __future__ import annotations

from repro.catalog.statistics import CatalogStatistics
from repro.core.base import Optimizer, SearchCounters
from repro.core.kernel import make_planspace
from repro.core.randomized import _JoinOrderWalk
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.util.rng import derive_rng
from repro.util.timer import Timer

__all__ = ["GeneticOptimizer"]

#: Chromosomes per generation.
_POPULATION = 24
#: Generations evolved.
_GENERATIONS = 20
#: Tournament size for parent selection.
_TOURNAMENT = 3
#: Probability of a swap mutation per offspring.
_MUTATION_RATE = 0.2
#: Root seed of the search.
_SEED = 0


class GeneticOptimizer(Optimizer):
    """A GEQO-like genetic algorithm over left-deep join orders."""

    name = "GEQO"

    # -- search ---------------------------------------------------------------

    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        space = make_planspace(query, stats, self.cost_model, counters)
        table = space.new_table()
        rng = derive_rng(_SEED, "geqo", query.label)
        walk = _JoinOrderWalk(space, table, rng)
        graph = query.graph
        if graph.n == 1:
            return space.finalize(table.require(graph.all_mask))

        population = [walk.random_order() for _ in range(_POPULATION)]
        fitness = [walk.cost(order) for order in population]

        for _generation in range(_GENERATIONS):
            counters.check_budget()
            offspring: list[list[int]] = []
            while len(offspring) < _POPULATION:
                mother = self._tournament(population, fitness, rng)
                father = self._tournament(population, fitness, rng)
                child = self._recombine(mother, father, walk, rng)
                if rng.random() < _MUTATION_RATE:
                    mutated = walk.random_move(child)
                    if mutated is not None:
                        child = mutated
                offspring.append(child)
            merged = list(zip(fitness, population)) + [
                (walk.cost(child), child) for child in offspring
            ]
            merged.sort(key=lambda pair: pair[0])
            survivors = merged[:_POPULATION]
            fitness = [cost for cost, _order in survivors]
            population = [order for _cost, order in survivors]

        return walk.final_plan()

    # -- GA operators -----------------------------------------------------------

    def _tournament(self, population, fitness, rng) -> list[int]:
        best_index = min(
            (rng.randrange(len(population)) for _ in range(_TOURNAMENT)),
            key=lambda i: fitness[i],
        )
        return population[best_index]

    @staticmethod
    def _recombine(mother, father, walk: _JoinOrderWalk, rng) -> list[int]:
        """Adjacency-greedy merge: follow a parent while validity allows.

        Starting from the mother's head, repeatedly append the first not-yet-
        used relation (scanning mother then father from the current point)
        that keeps the prefix connected; fall back to any connected relation.
        This preserves long valid runs from both parents — the property edge
        recombination targets — while guaranteeing a valid child.
        """
        graph = walk.graph
        child = [mother[0]]
        used = {mother[0]}
        mask = 1 << mother[0]
        frontier = graph.neighbor_mask(mother[0])
        while len(child) < len(mother):
            pick = None
            for parent in (mother, father):
                for rel in parent:
                    if rel not in used and frontier & (1 << rel):
                        pick = rel
                        break
                if pick is not None:
                    break
            if pick is None:  # should not happen on connected graphs
                remaining = [r for r in mother if r not in used]
                pick = rng.choice(remaining)
            child.append(pick)
            used.add(pick)
            mask |= 1 << pick
            frontier = (frontier | graph.neighbor_mask(pick)) & ~mask
        return child
