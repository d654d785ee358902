"""Extension — the topology spectrum the paper summarizes in one sentence.

Section 3.1: "While we experimented with a wide variety of query join graph
topologies ... the representative results presented here are with respect
to pure-star queries and star-chain join graphs — our results for the other
topologies are similar in flavor." This extension shows the flavor for the
remaining families:

* **chain** and **cycle** — hub-free: SDP performs *no* pruning and is
  exactly exhaustive DP (quality 100 % Ideal by construction);
* **clique** — every node is a hub: SDP prunes everywhere and the DP/SDP
  overhead gap is at its widest.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, cached_comparison
from repro.bench.reporting import overhead_table, quality_table
from repro.bench.workloads import WorkloadSpec

TITLE = "Extension: Other Topologies (chain, cycle, clique)"

TECHNIQUES = ["DP", "IDP(7)", "SDP"]

CELLS = (
    ("chain", 16),
    ("cycle", 14),
    ("clique", 10),
)


def run(settings: ExperimentSettings) -> str:
    """Run the comparison; returns the rendered report."""
    results = []
    for topology, size in CELLS:
        spec = WorkloadSpec(topology, size, seed=settings.seed)
        results.append(
            cached_comparison(
                settings, spec, TECHNIQUES, settings.heavy_instances
            )
        )
    quality = quality_table(results, TECHNIQUES, TITLE)
    overheads = overhead_table(results, TECHNIQUES, "Overheads (same runs)")
    notes = ", ".join(
        f"{result.label}: reference {result.reference}" for result in results
    )
    return f"{quality.render()}\n\n{overheads.render()}\n({notes})"

