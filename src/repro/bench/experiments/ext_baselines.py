"""Extension — SDP vs the non-DP alternatives the paper's intro cites.

The introduction positions SDP against approaches that "completely jettison
the DP approach": randomized algorithms [3, 9] and genetic techniques [6].
The paper does not evaluate them; this extension does, on the headline
Star-Chain-15 workload, using the library's II (iterative improvement),
2PO (two-phase optimization) and GEQO (genetic) baselines plus greedy GOO.

Expected shape: the randomized/genetic baselines land between GOO and IDP —
decent average quality with occasional misses, and costing budgets that are
spent on repeated re-costing rather than on systematic enumeration, while
SDP stays near-ideal at comparable or lower effort.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.reporting import overhead_table, quality_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Extension: SDP vs Randomized/Genetic/Greedy Baselines (Star-Chain-15)"

TECHNIQUES = ["DP", "SDP", "II", "2PO", "GEQO", "GOO"]


def run(settings: ExperimentSettings) -> str:
    """Run the extension comparison; returns the rendered report."""
    spec = WorkloadSpec(
        topology="star-chain", relation_count=15, seed=settings.seed
    )
    result = cached_comparison(settings, spec, TECHNIQUES, settings.instances)
    quality = quality_table([result], TECHNIQUES, TITLE)
    overheads = overhead_table(
        [result], TECHNIQUES, "Overheads (same runs)"
    )
    return (
        f"{quality.render()}\n\n{overheads.render()}\n"
        f"(reference optimum: {result.reference}; "
        f"{result.instances} instances)"
    )

