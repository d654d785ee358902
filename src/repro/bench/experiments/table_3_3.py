"""Table 3.3 — Maximum star scale-up before exceeding the memory budget.

On an extended schema the paper pushes each algorithm to the largest star
join it can optimize within physical memory: DP stops at 16 relations,
IDP(7) at 21, IDP(4) at 41, while SDP reaches 45 relations in under a
minute.

We binary-search the feasibility frontier per technique on a 50-relation
extended schema under the same modeled 1 GB budget (plus the wall-clock
budget). Feasibility is monotone in the star size for every technique, so
the search is sound.
"""

from __future__ import annotations

from repro.bench.experiments.common import (
    MEMORY_BUDGET_BYTES,
    ExperimentSettings,
    scaleup_catalog,
)
from repro.bench.workloads import WorkloadSpec, make_query
from repro.core.registry import make_optimizer
from repro.errors import OptimizationBudgetExceeded
from repro.util.tables import TextTable

TITLE = "Table 3.3: Maximum Star Scale-up (extended schema)"

#: (technique, lower bound, upper cap) for the frontier search. Caps keep
#: the search off sizes that would only waste budget-trip time.
SEARCH_RANGES = (
    ("DP", 10, 22),
    ("IDP(7)", 12, 30),
    ("IDP(4)", 16, 48),
    ("SDP", 20, 50),
)

SCHEMA_RELATIONS = 50


def _attempt(settings: ExperimentSettings, technique: str, size: int):
    """Optimize one star-``size`` instance; None if the budget trips."""
    schema, stats = scaleup_catalog(SCHEMA_RELATIONS)
    spec = WorkloadSpec(topology="star", relation_count=size, seed=settings.seed)
    query = make_query(spec, schema, 0)
    optimizer = make_optimizer(technique, budget=settings.budget())
    try:
        return optimizer.optimize(query, stats)
    except OptimizationBudgetExceeded:
        return None


def frontier(
    settings: ExperimentSettings, technique: str, low: int, high: int
):
    """Largest feasible star size in [low, high] and its result."""
    best_size, best_result = None, None
    result = _attempt(settings, technique, low)
    if result is None:
        return None, None
    best_size, best_result = low, result
    while low < high:
        mid = (low + high + 1) // 2
        result = _attempt(settings, technique, mid)
        if result is None:
            high = mid - 1
        else:
            best_size, best_result = mid, result
            low = mid
    return best_size, best_result


def run(
    settings: ExperimentSettings,
    ranges: tuple[tuple[str, int, int], ...] = SEARCH_RANGES,
) -> str:
    """Regenerate the table; returns the rendered report.

    Args:
        settings: Scale/seed knobs.
        ranges: Per-technique (name, low, cap) search ranges; benchmarks
            pass narrower ranges to bound runtime.
    """
    table = TextTable(
        ["Technique", "Max star relations", "Time at max (s)", "Memory (MB)"],
        title=TITLE,
    )
    for technique, low, high in ranges:
        size, result = frontier(settings, technique, low, high)
        if size is None:
            table.add_row([technique, "< " + str(low), "*", "*"])
            continue
        table.add_row(
            [
                technique,
                size,
                f"{result.elapsed_seconds:.2f}",
                f"{result.modeled_memory_mb:.1f}",
            ]
        )
    return (
        f"{table.render()}\n"
        f"(50-relation extended schema; budget: "
        f"{MEMORY_BUDGET_BYTES / 1e9:.1f} GB modeled memory, "
        f"{settings.max_seconds:.0f} s per optimization)"
    )

