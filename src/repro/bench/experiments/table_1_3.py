"""Table 1.3 — Scaled join graph (Star-Chain-23): plan quality.

At 23 relations DP runs out of memory; the paper evaluates IDP relative to
SDP, treating SDP as the ideal. Paper result: DP infeasible (``*``); IDP has
~88 % Bad plans relative to SDP (W ~ 29.4, rho ~ 14.3); SDP 100 % Ideal by
construction.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.reporting import quality_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Table 1.3: Scaled Join Graph (Star-Chain-23) Plan Quality"

TECHNIQUES = ["DP", "IDP(7)", "SDP"]


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    spec = WorkloadSpec(
        topology="star-chain", relation_count=23, seed=settings.seed
    )
    result = cached_comparison(
        settings, spec, TECHNIQUES, settings.heavy_instances
    )
    table = quality_table([result], TECHNIQUES, TITLE)
    return (
        f"{table.render()}\n"
        f"(reference optimum: {result.reference}; "
        f"{result.instances} instances)"
    )

