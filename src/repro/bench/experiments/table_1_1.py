"""Table 1.1 — Plan quality on Star-Chain-15 (DP vs IDP vs SDP).

Paper result: DP all-Ideal by definition; IDP(7) only 2 % Ideal with 56 %
of plans beyond 2x the optimum (W ~ 10.9, rho ~ 2.94); SDP >= 80 % Ideal,
the rest Good (W = 1.22, rho = 1.02).
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.reporting import quality_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Table 1.1: Plan Quality (DP, IDP, SDP) on Star-Chain-15"

TECHNIQUES = ["DP", "IDP(7)", "SDP"]


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    spec = WorkloadSpec(
        topology="star-chain", relation_count=15, seed=settings.seed
    )
    result = cached_comparison(settings, spec, TECHNIQUES, settings.instances)
    table = quality_table([result], TECHNIQUES, TITLE)
    return (
        f"{table.render()}\n"
        f"(reference optimum: {result.reference}; "
        f"{result.instances} instances)"
    )

