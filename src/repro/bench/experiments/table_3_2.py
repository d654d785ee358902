"""Table 3.2 — Star join graphs (15/20/23 relations): overheads.

Paper result: SDP's memory, time and plans costed are always substantially
below the others' — about a third of IDP(4)'s costing and 20-30x below
IDP(7)'s; even the 23-way star completes in under a second within ~40 MB.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings
from repro.bench.experiments.table_3_1 import TECHNIQUES, comparisons
from repro.bench.reporting import overhead_table

TITLE = "Table 3.2: Star Join Graphs Optimization Overheads"


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    results = comparisons(settings)
    table = overhead_table(results, TECHNIQUES, TITLE)
    return table.render()

