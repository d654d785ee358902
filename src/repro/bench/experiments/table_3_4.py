"""Table 3.4 — Ordered star queries (interesting orders): plan quality.

Each query's ordered variant requests output sorted on a randomly chosen
join column. Paper result: the picture matches the unordered stars —
IDP(7)/IDP(4) leave a large share of plans beyond 2x the optimum, SDP
almost always produces the optimal (its interesting-order partitions keep
the order-producing JCRs alive through pruning).
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings
from repro.bench.experiments.table_3_1 import TECHNIQUES, comparisons
from repro.bench.reporting import quality_table

TITLE = "Table 3.4: Ordered Star Plan Quality"


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    results = comparisons(settings, ordered=True)
    table = quality_table(results, TECHNIQUES, TITLE)
    notes = ", ".join(
        f"{result.label}: reference {result.reference}" for result in results
    )
    return f"{table.render()}\n({notes})"

