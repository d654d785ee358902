"""Table 2.3 — Skyline Option 1 (full RCS) vs Option 2 (pairwise union).

The paper compares the two candidate pruning functions on the example
query: Option 2 processes roughly half the JCRs (862 vs 1646) at virtually
identical plan quality (rho 1.0151 vs 1.0148). We measure JCRs processed
and rho for both options over Star-Chain-15 instances, against the DP
optimum.
"""

from __future__ import annotations

import math

from repro.bench.experiments.common import ExperimentSettings, paper_catalog
from repro.bench.workloads import WorkloadSpec, generate_queries
from repro.core.dp import DynamicProgrammingOptimizer
from repro.core.registry import make_optimizer
from repro.util.tables import TextTable

TITLE = "Table 2.3: Performance of Skyline Options (Star-Chain-15)"


def run(settings: ExperimentSettings) -> str:
    """Regenerate the table; returns the rendered report."""
    schema, stats = paper_catalog()
    spec = WorkloadSpec(
        topology="star-chain", relation_count=15, seed=settings.seed
    )
    budget = settings.budget()
    optimizers = {
        "Prune Option 1": make_optimizer("SDP(opt1)", budget=budget),
        "Prune Option 2": make_optimizer("SDP", budget=budget),
    }
    dp = DynamicProgrammingOptimizer(budget=budget)

    jcrs: dict[str, list[int]] = {name: [] for name in optimizers}
    ratios: dict[str, list[float]] = {name: [] for name in optimizers}
    for query in generate_queries(spec, schema, settings.instances):
        reference = dp.optimize(query, stats)
        for name, optimizer in optimizers.items():
            result = optimizer.optimize(query, stats)
            jcrs[name].append(result.jcrs_created)
            ratios[name].append(result.cost / reference.cost)

    table = TextTable(
        ["Pruning", "JCRs processed (mean)", "Plan Quality (rho)"],
        title=TITLE,
    )
    for name in optimizers:
        mean_jcrs = sum(jcrs[name]) / len(jcrs[name])
        rho = math.exp(sum(math.log(r) for r in ratios[name]) / len(ratios[name]))
        table.add_row([name, f"{mean_jcrs:.0f}", f"{rho:.4f}"])
    return table.render()

