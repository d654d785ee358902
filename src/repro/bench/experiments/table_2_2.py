"""Table 2.2 / Figure 2.3 — the multi-way skyline pruning worked example.

The paper prunes the PruneGroup partition on root hub 1, holding JCRs
{123, 125, 135, 145, 156} with the feature vectors below, via the three
pairwise skylines; survivors are 123, 125, 145 and 156 while 135 is pruned.
This experiment feeds the paper's exact vectors through
:func:`repro.skyline.pairwise_union_skyline` and prints the same Y/-
matrix — an executable check that the pruning function matches the paper.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings
from repro.skyline.multiway import PAIRWISE_DIMENSIONS
from repro.skyline.sfs import sfs_skyline
from repro.util.tables import TextTable

TITLE = "Table 2.2: Multi-way Skyline Pruning (paper worked example)"

#: The paper's feature vectors [Rows, Cost, Selectivity] for partition hub-1.
PAPER_EXAMPLE = {
    "123": (187638.0, 49386.0, 3.9e-5),
    "125": (122879.0, 52132.0, 1.0e-5),
    "135": (242620.0, 56021.0, 1.0e-5),
    "145": (241562.0, 55388.0, 6.65e-6),
    "156": (385375.0, 52632.0, 4.5e-6),
}

#: Survivors the paper reports (135 is pruned).
PAPER_SURVIVORS = ("123", "125", "145", "156")

_DIMENSION_LABELS = {(0, 1): "RC", (1, 2): "CS", (0, 2): "RS"}


def pairwise_membership() -> dict[str, dict[str, bool]]:
    """Per-JCR membership in each pairwise skyline (RC, CS, RS)."""
    names = list(PAPER_EXAMPLE)
    vectors = [PAPER_EXAMPLE[name] for name in names]
    membership: dict[str, dict[str, bool]] = {name: {} for name in names}
    for dims in PAIRWISE_DIMENSIONS:
        label = _DIMENSION_LABELS[dims]
        projected = [tuple(v[d] for d in dims) for v in vectors]
        surviving = sfs_skyline(projected)
        for position, name in enumerate(names):
            membership[name][label] = position in surviving
    return membership


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    del settings  # the worked example is fixed; no scaling knobs
    membership = pairwise_membership()
    table = TextTable(
        ["JCR", "Feature Vector [R, C, S]", "RC", "CS", "RS", "Survives"],
        title=TITLE,
    )
    survivors = []
    for name, vector in PAPER_EXAMPLE.items():
        flags = membership[name]
        survives = any(flags.values())
        if survives:
            survivors.append(name)
        table.add_row(
            [
                name,
                f"[{vector[0]:.0f}, {vector[1]:.0f}, {vector[2]:.2E}]",
                "Y" if flags["RC"] else "-",
                "Y" if flags["CS"] else "-",
                "Y" if flags["RS"] else "-",
                "Y" if survives else "pruned",
            ]
        )
    matches = tuple(survivors) == PAPER_SURVIVORS
    return (
        f"{table.render()}\n"
        f"survivors: {', '.join(survivors)} "
        f"({'matches' if matches else 'DIFFERS FROM'} the paper)"
    )

