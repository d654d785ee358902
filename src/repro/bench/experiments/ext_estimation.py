"""Extension — executing the plans: estimate-vs-actual validation.

The paper's results live entirely in the optimizer's estimated cost space
(all techniques are compared under one cost model, so that is sound). This
extension closes the remaining loop by *executing* the chosen plans with
the library's columnar engine on materialized synthetic data, reporting

* proof that every technique's plan computes the same result, and
* the cardinality estimator's q-error per join depth (the estimates the
  RCS feature vector is built from).

A dedicated validation schema keeps domains small relative to row counts so
the distinct-count containment assumption — which every System-R-style
estimator makes — is a reasonable fit; the residual q-error growth with
join depth is the classic error-propagation picture.
"""

from __future__ import annotations

import statistics

from repro.bench.experiments.common import SCHEMA_SEED, ExperimentSettings
from repro.catalog.schema import SchemaBuilder
from repro.catalog.statistics import analyze
from repro.core.registry import make_optimizer
from repro.engine import Executor, materialize
from repro.errors import BenchmarkError
from repro.query.joingraph import JoinGraph
from repro.query.query import Query
from repro.query.topology import star_chain_joins
from repro.util.rng import derive_rng
from repro.util.tables import TextTable

TITLE = "Extension: Plan Execution & Cardinality-Estimate Validation"

TECHNIQUES = ["DP", "SDP", "IDP(4)", "GOO"]

QUERY_SIZE = 9  # hub + 5 spokes + 3 chain


def _validation_catalog():
    schema = SchemaBuilder(
        seed=SCHEMA_SEED,
        relation_count=12,
        column_count=10,
        min_cardinality=100,
        max_cardinality=8_000,
        min_domain=20,
        max_domain=1_000,
        name="validation-12",
    ).build()
    database = materialize(schema, seed=SCHEMA_SEED + 1)
    return database, analyze(database.schema)


def run(settings: ExperimentSettings) -> str:
    """Run the validation; returns the rendered report."""
    database, stats = _validation_catalog()
    schema = database.schema

    q_errors_by_depth: dict[int, list[float]] = {}
    agreement_rows = []
    instances = max(2, settings.instances // 2)
    for instance in range(instances):
        rng = derive_rng(settings.seed, "ext-estimation", instance)
        names = rng.sample(list(schema.relation_names), QUERY_SIZE)
        graph = JoinGraph(
            names,
            star_chain_joins(schema, names[0], names[1:6], names[6:]),
        )
        query = Query(schema, graph, label=f"validation#{instance}")

        counts: dict[str, int] = {}
        for technique in TECHNIQUES:
            result = make_optimizer(technique, budget=settings.budget()).optimize(
                query, stats
            )
            execution = Executor(query, database).run(result.plan)
            counts[technique] = execution.row_count
            if technique == "DP":
                for actual in execution.join_actuals():
                    depth = len(actual.relations)
                    q_errors_by_depth.setdefault(depth, []).append(
                        actual.q_error
                    )
        if len(set(counts.values())) != 1:
            raise BenchmarkError(
                f"techniques disagree on {query.label}: {counts}"
            )
        agreement_rows.append((query.label, counts["DP"]))

    table = TextTable(
        ["Join depth (relations)", "Median q-error", "Max q-error", "Samples"],
        title=TITLE,
    )
    for depth in sorted(q_errors_by_depth):
        errors = q_errors_by_depth[depth]
        table.add_row(
            [
                depth,
                f"{statistics.median(errors):.2f}",
                f"{max(errors):.2f}",
                len(errors),
            ]
        )
    lines = [table.render(), ""]
    lines.append(
        f"result agreement: all of {', '.join(TECHNIQUES)} returned "
        f"identical row counts on {len(agreement_rows)} executed queries:"
    )
    for label, rows in agreement_rows:
        lines.append(f"  {label}: {rows} rows")
    return "\n".join(lines)

