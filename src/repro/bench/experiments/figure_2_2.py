"""Figures 2.1 / 2.2 — SDP iteration walk-through on the example graph.

The paper's running example is a nine-relation join graph whose hubs are
relations 1 and 7 (Figure 2.1); Figure 2.2 walks SDP through its levels,
showing the PruneGroup/FreeGroup split and the survivor JCRs per level.
This experiment rebuilds that graph (edges 1-2, 1-3, 1-4, 1-5, 5-6, 6-7,
7-8, 7-9) on the paper schema and prints the per-level trace, read from
the ``sdp.prune`` spans SDP records for every level it partitions.
"""

from __future__ import annotations

from repro.bench.experiments.common import ExperimentSettings, paper_catalog
from repro.core.sdp import SDPOptimizer
from repro.obs.names import SPAN_SDP_PRUNE
from repro.obs.runtime import capture, current_tracer
from repro.query.joingraph import JoinGraph
from repro.query.query import Query
from repro.query.topology import chain_joins, star_joins
from repro.util.tables import TextTable

TITLE = "Figure 2.2: SDP Iterations on the 9-Relation Example (Figure 2.1)"


def example_query(settings: ExperimentSettings) -> Query:
    """The Figure 2.1 graph over the first nine paper-schema relations."""
    schema, _stats = paper_catalog()
    names = list(schema.relation_names[:9])
    # Star around node 1 (spokes 2..5) and a chain 5-6-7 with node 7
    # star-joining 8 and 9 -> hubs are exactly nodes 1 and 7.
    joins = star_joins(schema, names[0], names[1:5])
    joins += chain_joins(schema, [names[4], names[5], names[6]])
    joins += star_joins(schema, names[6], names[7:9])
    graph = JoinGraph(names, joins)
    return Query(schema, graph, label="figure-2.1-example")


def run(settings: ExperimentSettings) -> str:
    """Regenerate the walk-through; returns the rendered report."""
    query = example_query(settings)
    _schema, stats = paper_catalog()

    optimizer = SDPOptimizer(budget=settings.budget())
    outer = current_tracer()
    with capture() as exporter:
        result = optimizer.optimize(query, stats)
    if outer is not None:
        # Hand the spans on, so an enclosing capture (``--profile``)
        # still sees the search.
        for span in exporter.spans:
            outer.exporter.export(span)
    events = [
        span.attributes
        for span in exporter.spans
        if span.name == SPAN_SDP_PRUNE and "partitions" in span.attributes
    ]

    graph = query.graph
    hubs = [graph.relation_names[i] for i in graph.hubs()]
    lines = [
        TITLE,
        f"join graph hubs: {', '.join(hubs)}",
    ]
    table = TextTable(
        ["Level", "JCRs built", "PruneGroup", "FreeGroup", "Partitions", "Survivors"]
    )
    for event in events:
        table.add_row(
            [
                event["level"],
                event["prune_group"] + event["free_group"],
                event["prune_group"],
                event["free_group"],
                len(event["partitions"]),
                event["survivors"],
            ]
        )
    lines.append(table.render())
    lines.append(
        f"final plan cost {result.cost:.1f} with {result.plans_costed} "
        f"plans costed, {result.jcrs_pruned} JCRs pruned"
    )
    return "\n".join(lines)

