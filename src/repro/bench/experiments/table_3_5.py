"""Table 3.5 — Ordered star-chain queries: plan quality.

Paper result: IDP(7) and IDP(4) keep a noticeable Bad fraction and a
substantial share of plans more than twice the optimum; SDP provides the
optimal plan on all but a few queries across 15/20/23 relations.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.reporting import quality_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Table 3.5: Ordered Star-Chain Plan Quality"

TECHNIQUES = ["DP", "IDP(7)", "IDP(4)", "SDP"]
SIZES = (15, 20, 23)
HEAVY_SIZES = frozenset({20, 23})


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    results = []
    for size in SIZES:
        spec = WorkloadSpec(
            topology="star-chain",
            relation_count=size,
            ordered=True,
            seed=settings.seed,
        )
        instances = (
            settings.heavy_instances if size in HEAVY_SIZES else settings.instances
        )
        results.append(cached_comparison(settings, spec, TECHNIQUES, instances))
    table = quality_table(results, TECHNIQUES, TITLE)
    notes = ", ".join(
        f"{result.label}: reference {result.reference}" for result in results
    )
    return f"{table.render()}\n({notes})"

