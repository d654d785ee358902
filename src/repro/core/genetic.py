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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.statistics import CatalogStatistics
from repro.core.base import Optimizer, SearchBudget, SearchCounters, check_count
from repro.core.kernel import make_planspace
from repro.core.randomized import _JoinOrderWalk
from repro.cost.model import CostModel
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.util.rng import derive_rng
from repro.util.timer import Timer

__all__ = ["GeneticConfig", "GeneticOptimizer"]


@dataclass(frozen=True)
class GeneticConfig:
    """GEQO-style knobs.

    Attributes:
        population: Chromosomes per generation.
        generations: Number of generations evolved.
        tournament: Tournament size for parent selection.
        mutation_rate: Probability of a swap mutation per offspring.
        seed: Root seed (deterministic given seed and query).
    """

    population: int = 24
    generations: int = 20
    tournament: int = 3
    mutation_rate: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("population", self.population, 2)
        check_count("generations", self.generations, 1)
        check_count("tournament", self.tournament, 1)
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(
                f"mutation_rate must be in [0, 1], got {self.mutation_rate}"
            )


class GeneticOptimizer(Optimizer):
    """A GEQO-like genetic algorithm over left-deep join orders."""

    name = "GEQO"

    def __init__(
        self,
        config: GeneticConfig | None = None,
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(budget=budget, cost_model=cost_model)
        self.config = config if config is not None else GeneticConfig()

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
        rng = derive_rng(self.config.seed, "geqo", query.label)
        walk = _JoinOrderWalk(space, table, rng)
        graph = query.graph
        if graph.n == 1:
            return space.finalize(table.require(graph.all_mask))

        population = [walk.random_order() for _ in range(self.config.population)]
        fitness = [walk.cost(order) for order in population]

        for _generation in range(self.config.generations):
            counters.check_budget()
            offspring: list[list[int]] = []
            while len(offspring) < self.config.population:
                mother = self._tournament(population, fitness, rng)
                father = self._tournament(population, fitness, rng)
                child = self._recombine(mother, father, walk, rng)
                if rng.random() < self.config.mutation_rate:
                    mutated = walk.random_move(child)
                    if mutated is not None:
                        child = mutated
                offspring.append(child)
            merged = list(zip(fitness, population)) + [
                (walk.cost(child), child) for child in offspring
            ]
            merged.sort(key=lambda pair: pair[0])
            survivors = merged[: self.config.population]
            fitness = [cost for cost, _order in survivors]
            population = [order for _cost, order in survivors]

        return walk.final_plan()

    # -- GA operators -----------------------------------------------------------

    def _tournament(self, population, fitness, rng) -> list[int]:
        best_index = min(
            (rng.randrange(len(population)) for _ in range(self.config.tournament)),
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
