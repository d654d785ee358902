"""Extension — Root-Hub vs Parent-Hub partitioning.

Section 3.1 states the evaluation uses the Root-Hub variant "since we found
that it provides plan quality close to that of Parent-Hub with much lesser
overheads" — but the paper does not show the comparison. This ablation
produces it: both partitioning modes on Star-Chain-15, quality against the
DP optimum plus overheads.

Expected shape: parent-hub partitions are finer (recomputed per level over
composite hubs), retaining more JCRs — similar quality at higher cost,
matching the paper's justification for shipping Root-Hub. The extension
variant ``SDP(either)`` (union of both modes' survivors) buys extra
robustness — it removes Root-Hub's rare worst cases — for roughly 3x the
costing, still well below DP.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.reporting import overhead_table, quality_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Extension: Root-Hub vs Parent-Hub Partitioning (Star-Chain-15)"

TECHNIQUES = ["DP", "SDP", "SDP(parent)", "SDP(either)"]


def run(settings: ExperimentSettings) -> str:
    """Run the ablation; returns the rendered report."""
    spec = WorkloadSpec(
        topology="star-chain", relation_count=15, seed=settings.seed
    )
    result = cached_comparison(settings, spec, TECHNIQUES, settings.instances)
    quality = quality_table([result], TECHNIQUES, TITLE)
    overheads = overhead_table([result], TECHNIQUES, "Overheads (same runs)")
    return (
        f"{quality.render()}\n\n{overheads.render()}\n"
        "(SDP = Root-Hub partitioning, the paper's shipped variant)"
    )

