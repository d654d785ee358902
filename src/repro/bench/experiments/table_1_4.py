"""Table 1.4 — Scaled join graph (Star-Chain-23): overheads.

Paper result: DP infeasible; IDP 460 MB / 54.7 s / 4.5E6 plans; SDP
55 MB / 1.08 s / 0.4E6 plans — about an order of magnitude apart.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.experiments.table_1_3 import TECHNIQUES
from repro.bench.reporting import overhead_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Table 1.4: Scaled Join Graph (Star-Chain-23) Overheads"


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    spec = WorkloadSpec(
        topology="star-chain", relation_count=23, seed=settings.seed
    )
    result = cached_comparison(
        settings, spec, TECHNIQUES, settings.heavy_instances
    )
    table = overhead_table([result], TECHNIQUES, TITLE)
    return table.render()

