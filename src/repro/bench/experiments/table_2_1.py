"""Table 2.1 — DP overheads on chain vs star queries.

The motivating observation for localized pruning (Section 2.1.1): DP
handles a 28-relation chain in well under a second and a few MB, while a
16-relation star takes minutes and hundreds of MB — hubs, not query size,
drive DP's cost.

Chain sizes sweep 4..28; star sizes sweep 4..16 (the paper's star column
stops where DP stops being feasible). One instance per size suffices — DP
overheads depend on the topology, not the relation choice.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, paper_catalog, scaleup_catalog
from repro.bench.workloads import WorkloadSpec, make_query
from repro.core.dp import DynamicProgrammingOptimizer
from repro.errors import OptimizationBudgetExceeded
from repro.util.tables import TextTable

TITLE = "Table 2.1: DP Overheads (Chain and Star)"

CHAIN_SIZES = (4, 8, 12, 16, 20, 24, 28)
STAR_SIZES = (4, 8, 12, 16)


def _measure(settings: ExperimentSettings, topology: str, size: int):
    schema, stats = (
        scaleup_catalog()
        if size > 25
        else paper_catalog()
    )
    spec = WorkloadSpec(topology=topology, relation_count=size, seed=settings.seed)
    query = make_query(spec, schema, 0)
    optimizer = DynamicProgrammingOptimizer(budget=settings.budget())
    try:
        result = optimizer.optimize(query, stats)
    except OptimizationBudgetExceeded:
        return None
    return result.elapsed_seconds, result.modeled_memory_mb


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    table = TextTable(
        [
            "Relations",
            "Chain Time (s)",
            "Chain Memory (MB)",
            "Star Time (s)",
            "Star Memory (MB)",
        ],
        title=TITLE,
    )
    sizes = sorted(set(CHAIN_SIZES) | set(STAR_SIZES))
    for size in sizes:
        chain = _measure(settings, "chain", size) if size in CHAIN_SIZES else None
        star = _measure(settings, "star", size) if size in STAR_SIZES else None
        cells = [size]
        for sample in (chain, star):
            if sample is None:
                cells.extend(["-", "-"])
            else:
                cells.extend([f"{sample[0]:.4f}", f"{sample[1]:.2f}"])
        table.add_row(cells)
    return table.render()

