"""Table 3.1 — Star join graphs (15/20/23 relations): plan quality.

Paper result: DP feasible only at 15 relations; IDP(7)/IDP(4) have > 95 %
of plans beyond 2x the optimum at Star-15 and worsen with scale (IDP(7)
itself infeasible at 23); SDP is >= 50 % optimal at Star-15 with everything
else Good, and 100 % of the reference at 20/23 (where SDP is the ideal).
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.reporting import quality_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Table 3.1: Star Join Graphs Plan Quality"

TECHNIQUES = ["DP", "IDP(7)", "IDP(4)", "SDP"]
SIZES = (15, 20, 23)

#: Sizes where some technique is expensive/infeasible -> fewer instances.
HEAVY_SIZES = frozenset({20, 23})


def comparisons(settings: ExperimentSettings, ordered: bool = False):
    """The three star cells (shared by Tables 3.1/3.2/3.4)."""
    results = []
    for size in SIZES:
        spec = WorkloadSpec(
            topology="star",
            relation_count=size,
            ordered=ordered,
            seed=settings.seed,
        )
        instances = (
            settings.heavy_instances if size in HEAVY_SIZES else settings.instances
        )
        results.append(cached_comparison(settings, spec, TECHNIQUES, instances))
    return results


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    results = comparisons(settings)
    table = quality_table(results, TECHNIQUES, TITLE)
    notes = ", ".join(
        f"{result.label}: reference {result.reference}" for result in results
    )
    return f"{table.render()}\n({notes})"

