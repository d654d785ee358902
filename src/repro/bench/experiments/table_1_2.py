"""Table 1.2 — Optimization overheads on Star-Chain-15.

Paper result: DP 32.39 MB / 1.00 s / 8.3E5 plans; IDP 7.39 MB / 0.20 s /
1.3E5 plans; SDP 4.33 MB / 0.10 s / 0.5E5 plans — the heuristics cost
roughly 10 % of DP's search space, and SDP's overheads are at least a third
below IDP's.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.experiments.table_1_1 import TECHNIQUES
from repro.bench.reporting import overhead_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Table 1.2: Optimization Overheads on Star-Chain-15"


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    spec = WorkloadSpec(
        topology="star-chain", relation_count=15, seed=settings.seed
    )
    result = cached_comparison(settings, spec, TECHNIQUES, settings.instances)
    table = overhead_table([result], TECHNIQUES, TITLE)
    return (
        f"{table.render()}\n"
        "(memory is modeled planner-arena usage; time is measured "
        "wall-clock; see DESIGN.md)"
    )

