"""Extension — feature-vector ablation: which RCS components matter?

Section 2.1.5 argues Rows, Cost and Selectivity "express complementary
facets of the optimization process", and contrasts SDP's multi-way function
with IDP's finding that no combination of MinCost/MinRows/MinSel beat plain
MinRows. This ablation quantifies the claim: SDP run with only a single
pairwise skyline (RC, CS or RS) versus the full disjunctive union, on
Star-Chain-15 against the DP optimum.

Expected shape: each single-pair variant prunes harder but loses quality on
some instances; the three-way union is the robust choice — precisely the
paper's design rationale.
"""

from __future__ import annotations

import math

from repro.bench.experiments.common import ExperimentSettings, paper_catalog
from repro.bench.workloads import WorkloadSpec, generate_queries
from repro.core.dp import DynamicProgrammingOptimizer
from repro.core.sdp import SDPConfig, SDPOptimizer
from repro.util.tables import TextTable

TITLE = "Extension: Feature-Vector Ablation (Star-Chain-15)"

VARIANTS = {
    "RC + CS + RS (paper)": SDPConfig(),
    "RC only": SDPConfig(projections=((0, 1),)),
    "CS only": SDPConfig(projections=((1, 2),)),
    "RS only": SDPConfig(projections=((0, 2),)),
}


def run(settings: ExperimentSettings) -> str:
    """Run the ablation; returns the rendered report."""
    schema, stats = paper_catalog()
    spec = WorkloadSpec(
        topology="star-chain", relation_count=15, seed=settings.seed
    )
    budget = settings.budget()
    dp = DynamicProgrammingOptimizer(budget=budget)

    ratios: dict[str, list[float]] = {name: [] for name in VARIANTS}
    plans: dict[str, list[int]] = {name: [] for name in VARIANTS}
    for query in generate_queries(spec, schema, settings.instances):
        reference = dp.optimize(query, stats)
        for name, config in VARIANTS.items():
            optimizer = SDPOptimizer(config=config, budget=budget)
            result = optimizer.optimize(query, stats)
            ratios[name].append(result.cost / reference.cost)
            plans[name].append(result.plans_costed)

    table = TextTable(
        ["Skylines used", "Plans costed", "Worst", "rho"], title=TITLE
    )
    for name in VARIANTS:
        rho = math.exp(
            sum(math.log(r) for r in ratios[name]) / len(ratios[name])
        )
        table.add_row(
            [
                name,
                f"{sum(plans[name]) / len(plans[name]):.2E}",
                f"{max(ratios[name]):.3f}",
                f"{rho:.4f}",
            ]
        )
    return table.render()

