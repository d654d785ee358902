"""Extension — skewed (exponential) data distributions.

Section 3.1 notes the paper "experimented with both uniform and skewed
(exponential) distributions" but presents only the uniform results. This
extension fills the gap: the Star-Chain-15 quality comparison repeated on a
schema whose column values follow the exponential model, which raises join
selectivities through the most-common-value floor and inflates intermediate
results.

Expected shape: the ranking is preserved (SDP near-ideal, IDP with a
>= 2x tail), demonstrating SDP's robustness under skew.
"""

from __future__ import annotations

from repro.bench.experiments.common import SCHEMA_SEED, ExperimentSettings
from repro.bench.reporting import quality_table
from repro.bench.runner import run_comparison
from repro.bench.workloads import WorkloadSpec
from repro.catalog.schema import SchemaBuilder
from repro.catalog.statistics import analyze

TITLE = "Extension: Skewed (Exponential) Data, Star-Chain-15 Plan Quality"

TECHNIQUES = ["DP", "IDP(7)", "IDP(4)", "SDP"]

#: Exponential decay of the skewed value distribution (mcf = 1 - decay).
SKEW_DECAY = 0.9


def run(settings: ExperimentSettings) -> str:
    """Run the skewed-data comparison; returns the rendered report."""
    schema = SchemaBuilder(
        seed=SCHEMA_SEED,
        skewed=True,
        skew_decay=SKEW_DECAY,
        name="paper-25-skewed",
    ).build()
    stats = analyze(schema)
    spec = WorkloadSpec(
        topology="star-chain", relation_count=15, seed=settings.seed
    )
    result = run_comparison(
        spec,
        schema,
        TECHNIQUES,
        instances=settings.instances,
        stats=stats,
        budget=settings.budget(),
    )
    table = quality_table([result], TECHNIQUES, TITLE)
    return (
        f"{table.render()}\n"
        f"(exponential decay {SKEW_DECAY}; reference optimum: "
        f"{result.reference}; {result.instances} instances)"
    )

