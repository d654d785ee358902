"""Figure 1.2 — Plan quality (rho) vs optimization effort trade-off.

The paper plots rho against optimization overhead for DP, IDP(4), IDP(7)
and SDP on Star-Chain-15: SDP sits at the "knee" — near-ideal quality at
the lowest effort. This experiment prints the (effort, rho) points plus an
ASCII scatter over the plans-costed axis.
"""

from __future__ import annotations

import math

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.workloads import WorkloadSpec
from repro.util.tables import TextTable

TITLE = "Figure 1.2: Plan Quality (rho) vs Effort Trade-off on Star-Chain-15"

TECHNIQUES = ["DP", "IDP(4)", "IDP(7)", "SDP"]

_PLOT_WIDTH = 60


def _ascii_scatter(points: dict[str, tuple[float, float]]) -> str:
    """One line per technique, positioned by log10(plans costed)."""
    efforts = [p[0] for p in points.values()]
    low = math.log10(min(efforts))
    high = math.log10(max(efforts))
    span = max(high - low, 1e-9)
    lines = ["effort (plans costed, log scale) ->"]
    for name, (effort, rho) in sorted(points.items(), key=lambda kv: kv[1][0]):
        column = int((math.log10(effort) - low) / span * (_PLOT_WIDTH - 1))
        lines.append(" " * column + f"* {name} (rho={rho:.2f})")
    return "\n".join(lines)


def run(settings: ExperimentSettings) -> str:
    """Regenerate the figure's data; returns the rendered report."""
    spec = WorkloadSpec(
        topology="star-chain", relation_count=15, seed=settings.seed
    )
    result = cached_comparison(settings, spec, TECHNIQUES, settings.instances)

    table = TextTable(
        ["Technique", "Plans costed", "Time (s)", "Memory (MB)", "rho"],
        title=TITLE,
    )
    points: dict[str, tuple[float, float]] = {}
    for technique in TECHNIQUES:
        outcome = result.outcome(technique)
        quality = outcome.quality
        if quality is None:
            table.add_row([technique, "*", "*", "*", "*"])
            continue
        table.add_row(
            [
                technique,
                f"{outcome.mean_plans_costed:.2E}",
                f"{outcome.mean_seconds:.3f}",
                f"{outcome.mean_memory_mb:.2f}",
                f"{quality.rho:.3f}",
            ]
        )
        points[technique] = (outcome.mean_plans_costed, quality.rho)
    report = table.render()
    if points:
        report += "\n\n" + _ascii_scatter(points)
    return report

