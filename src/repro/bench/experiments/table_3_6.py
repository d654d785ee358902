"""Table 3.6 — Local (hub-based) vs global skyline pruning.

The ablation justifying SDP's *localized* pruning: on (unordered)
Star-Chain-20, replacing the hub-partitioned pruning by one global skyline
per level degrades rho from ~1.05 to ~1.4 and the worst case from ~1.3 to
~6 in the paper.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.reporting import quality_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Table 3.6: Local vs Global Pruning (Star-Chain-20)"

TECHNIQUES = ["SDP/Global", "SDP"]


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    spec = WorkloadSpec(
        topology="star-chain", relation_count=20, seed=settings.seed
    )
    result = cached_comparison(
        settings, spec, TECHNIQUES, settings.heavy_instances
    )
    table = quality_table([result], TECHNIQUES, TITLE)
    return (
        f"{table.render()}\n"
        f"(reference optimum: {result.reference}; rows labeled SDP/Local "
        "in the paper correspond to SDP here)"
    )

