"""Run a technique grid over a workload cell and aggregate the results.

Mirrors the paper's protocol:

* every instance is optimized by every (feasible) technique;
* plan quality is measured against **DP** where DP is feasible; where it is
  not, **SDP is treated as the ideal** (Tables 1.3, 3.1) — the runner picks
  the reference per cell by trying :data:`REFERENCE_CANDIDATES` in order on
  the first instance;
* a technique that exceeds its budget is *infeasible* — reported as ``*`` —
  and is skipped for the remaining instances after its first failure
  (budget trips are deterministic in the modeled-memory world, so one
  failure settles the cell).

In **robust mode** (``robust=True``) every technique is the entry of its
fallback ladder (:class:`~repro.robust.RobustOptimizer`), so a budget trip
degrades to a cheaper technique instead of producing a ``*`` cell:
outcomes then record *fallback events* (instances answered by a lower
rung) and the winning techniques, mirroring what a production optimizer
service would report.

With ``workers > 1`` the (instance, technique) grid is precomputed by
:func:`repro.service.optimize_many` over a process pool and the
aggregation loop reads from it; because budget trips are deterministic,
the aggregated outcomes are identical to a serial run — parallelism only
changes wall-clock time (and the per-run ``elapsed_seconds`` samples,
which measure each search wherever it ran).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.bench.quality import QualityStats
from repro.bench.workloads import WorkloadSpec, generate_queries
from repro.catalog.schema import Schema
from repro.catalog.statistics import CatalogStatistics, analyze
from repro.core.base import SearchBudget
from repro.core.registry import make_optimizer
from repro.errors import BenchmarkError, OptimizationBudgetExceeded
from repro.query.query import Query
from repro.robust.ladder import RobustOptimizer, RobustResult
from repro.service.parallel import optimize_many

__all__ = ["TechniqueOutcome", "ComparisonResult", "run_comparison"]

#: Quality reference preference order: DP where feasible, else SDP.
REFERENCE_CANDIDATES = ("DP", "SDP")


@dataclass
class TechniqueOutcome:
    """Per-technique aggregation over a workload cell."""

    technique: str
    ratios: list[float] = field(default_factory=list)
    plans_costed: list[int] = field(default_factory=list)
    memory_mb: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    infeasible_count: int = 0
    skipped: bool = False
    #: Robust mode: instances answered by a lower ladder rung.
    fallback_events: int = 0
    #: Robust mode: winning technique per degraded instance.
    fallback_winners: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """True if the technique completed at least one instance."""
        return bool(self.ratios)

    @property
    def quality(self) -> QualityStats | None:
        if not self.ratios:
            return None
        return QualityStats.from_ratios(self.ratios)

    def _mean(self, values: list[float]) -> float:
        if not values:
            raise BenchmarkError(f"{self.technique} has no feasible runs")
        return statistics.fmean(values)

    @property
    def mean_plans_costed(self) -> float:
        return self._mean([float(v) for v in self.plans_costed])

    @property
    def mean_memory_mb(self) -> float:
        return self._mean(self.memory_mb)

    @property
    def mean_seconds(self) -> float:
        return self._mean(self.seconds)


@dataclass
class ComparisonResult:
    """All techniques' outcomes for one workload cell."""

    label: str
    reference: str
    instances: int
    outcomes: dict[str, TechniqueOutcome]

    def outcome(self, technique: str) -> TechniqueOutcome:
        try:
            return self.outcomes[technique]
        except KeyError:
            raise BenchmarkError(
                f"technique {technique!r} was not part of this comparison"
            ) from None


def _pick_reference(
    query: Query, stats: CatalogStatistics, budget: SearchBudget
) -> str:
    """First reference candidate that is feasible on the cell's first query."""
    for name in REFERENCE_CANDIDATES:
        try:
            make_optimizer(name, budget=budget).optimize(query, stats)
        except OptimizationBudgetExceeded:
            continue
        return name
    raise BenchmarkError(
        f"no reference candidate in {REFERENCE_CANDIDATES} is feasible "
        f"for {query.label}"
    )


def run_comparison(
    spec: WorkloadSpec,
    schema: Schema,
    techniques: list[str],
    instances: int,
    stats: CatalogStatistics | None = None,
    budget: SearchBudget | None = None,
    robust: bool = False,
    workers: int = 1,
) -> ComparisonResult:
    """Optimize ``instances`` queries of ``spec`` with every technique.

    Args:
        spec: The workload cell.
        schema: Catalog to draw relations from.
        techniques: Technique names (see
            :func:`repro.core.available_techniques`).
        instances: Number of query instances.
        stats: Shared statistics snapshot (computed once when omitted).
        budget: Per-optimization budget (paper default: 1 GB modeled RAM).
        robust: Run each technique as the entry of its fallback ladder;
            budget trips degrade instead of marking the cell infeasible,
            and fallback events are recorded per outcome (see the module
            docstring).
        workers: Process count for the optimization grid. ``1`` (default)
            optimizes serially in-process; ``> 1`` fans the grid out via
            :func:`repro.service.optimize_many` with identical aggregated
            outcomes (budget trips are deterministic).

    Returns:
        A :class:`ComparisonResult`; techniques absent from
        :data:`REFERENCE_CANDIDATES` and infeasible everywhere have
        ``feasible == False`` (the ``*`` rows).
    """
    if stats is None:
        stats = analyze(schema)
    if budget is None:
        budget = SearchBudget()
    queries = list(generate_queries(spec, schema, instances))
    if robust:
        # The ladder makes every candidate total, so the preferred
        # reference always answers — no feasibility probe needed.
        reference = REFERENCE_CANDIDATES[0]
    else:
        reference = _pick_reference(queries[0], stats, budget)

    outcomes = {name: TechniqueOutcome(technique=name) for name in techniques}
    if reference not in outcomes:
        outcomes[reference] = TechniqueOutcome(technique=reference)

    run_order = list(outcomes)
    if workers > 1:
        # Precompute the whole grid in parallel; the aggregation loop below
        # then replays the serial protocol against the stored cells (a
        # stored budget trip is re-raised at lookup), so skip bookkeeping
        # and outcomes come out identical to workers=1.
        grid = optimize_many(
            queries,
            run_order,
            stats=stats,
            budget=budget,
            workers=workers,
            robust=robust,
        )
        column = {name: index for index, name in enumerate(run_order)}

        def attempt(query_index: int, name: str):
            item = grid[query_index][column[name]]
            if item.error is not None:
                raise item.error
            return item.result

    else:
        build = RobustOptimizer if robust else make_optimizer
        optimizers = {name: build(name, budget=budget) for name in run_order}

        def attempt(query_index: int, name: str):
            return optimizers[name].optimize(queries[query_index], stats)

    for query_index in range(len(queries)):
        results = {}
        for name in run_order:
            outcome = outcomes[name]
            if outcome.skipped:
                continue
            try:
                results[name] = attempt(query_index, name)
            except OptimizationBudgetExceeded:
                outcome.infeasible_count += 1
                outcome.skipped = True
        reference_result = results.get(reference)
        if reference_result is None:
            continue  # the reference itself tripped on this instance
        for name, result in results.items():
            outcome = outcomes[name]
            outcome.ratios.append(result.cost / reference_result.cost)
            outcome.plans_costed.append(result.plans_costed)
            outcome.memory_mb.append(result.modeled_memory_mb)
            outcome.seconds.append(result.elapsed_seconds)
            if isinstance(result, RobustResult) and result.degraded:
                outcome.fallback_events += 1
                outcome.fallback_winners.append(result.winner)

    return ComparisonResult(
        label=spec.label,
        reference=reference,
        instances=instances,
        outcomes=outcomes,
    )
