"""robust-report — the fallback ladder under a deliberately tight budget.

An extension beyond the paper: instead of reporting ``*`` for infeasible
(technique, workload) cells, a production optimizer service degrades along
the quality/cost ladder and always answers. This experiment squeezes the
memory budget until the upper rungs trip on the paper's hard topologies
and prints, per instance, the full attempt ladder the
:class:`~repro.robust.RobustOptimizer` walked — which rung tripped, on
what resource, after how much work — followed by a robust-mode cell
summary (fallback counts per technique).
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.experiments.common import ExperimentSettings, paper_catalog
from repro.bench.reporting import fallback_table
from repro.bench.runner import run_comparison
from repro.bench.workloads import WorkloadSpec, generate_queries
from repro.core.base import SearchBudget
from repro.robust import RobustOptimizer
from repro.util.tables import TextTable

TITLE = "Robust mode: fallback ladders under a tight budget (extension)"

#: Tight enough that DP trips quickly on these cells while SDP/GOO still
#: answer: ~32 MB of modeled planner arena versus the paper's 1 GB.
TIGHT_MEMORY_BYTES = 32_000_000

CELLS = (
    WorkloadSpec(topology="star", relation_count=18),
    WorkloadSpec(topology="star-chain", relation_count=15),
)

TECHNIQUES = ["DP", "IDP(7)", "SDP"]


def run(settings: ExperimentSettings) -> str:
    """Run the report; returns the rendered text."""
    schema, stats = paper_catalog()
    budget = SearchBudget(
        max_memory_bytes=TIGHT_MEMORY_BYTES,
        max_seconds=settings.max_seconds,
    )

    ladder_rows = TextTable(
        [
            "Instance",
            "Stage",
            "Outcome",
            "Resource",
            "Plans",
            "Time (s)",
        ],
        title=f"{TITLE} — attempt ladders "
        f"(memory budget {budget.max_memory_bytes / 1e6:.0f} MB)",
    )
    comparisons = []
    for block, spec in enumerate(CELLS):
        cell_spec = replace(spec, seed=settings.seed)
        if block:
            ladder_rows.add_separator()
        for query in generate_queries(cell_spec, schema, settings.instances):
            result = RobustOptimizer(budget=budget).optimize(query, stats)
            for attempt in result.attempts:
                ladder_rows.add_row(
                    [
                        query.label,
                        attempt.technique,
                        attempt.outcome,
                        attempt.resource or "-",
                        f"{attempt.plans_costed:,}",
                        f"{attempt.elapsed_seconds:.3f}",
                    ]
                )
        comparisons.append(
            run_comparison(
                cell_spec,
                schema,
                TECHNIQUES,
                instances=settings.instances,
                stats=stats,
                budget=budget,
                robust=True,
            )
        )

    summary = fallback_table(
        comparisons, TECHNIQUES, "Robust-mode cell summary (no '*' entries)"
    )
    return f"{ladder_rows.render()}\n\n{summary.render()}"

