"""Fast-vs-reference kernel equivalence (the tentpole's safety net).

The mask-native kernel with tuple plan nodes (:mod:`repro.core.planspace`) must
be a pure performance change: for any query, any technique, it has to
produce the *same search* as the preserved eager object-graph kernel
(:mod:`repro.core.reference`) — bit-identical winning cost, identical plan
tree, identical counter values. These tests sweep randomized chain,
cycle, star (also with a shared hub column), star-chain and clique
instances (<= 12 relations, several workload seeds), each unordered and
with an ORDER BY on a join column, plus SQL queries with selections and
ORDER BY, through DP, SDP, and IDP under both kernels and compare
everything observable. The kernel registry tests live here too.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog import SchemaBuilder, analyze
from repro.core.base import SearchBudget
from repro.core.kernel import KERNELS, kernel_name, make_planspace
from repro.core.registry import available_techniques, make_optimizer
from repro.errors import OptimizationError

BUDGET = SearchBudget(max_seconds=60.0)

TECHNIQUES = ("DP", "SDP", "IDP(4)")

# (topology, size, shared hub column) cells; clique kept smallest — its
# DP pair count grows fastest and this sweep runs 2 kernels x 3
# techniques per instance. Stars and star-chains send most pairs through
# the kernel's per-relation join facts (a spoke against a composite that
# holds the hub); a shared hub column puts every spoke in one eclass, with
# implied spoke-to-spoke edges; chains and cycles take the connecting
# path.
GRAPHS = (
    ("chain", 8, False),
    ("chain", 10, False),
    ("star", 8, False),
    ("star", 10, False),
    ("clique", 6, False),
    ("clique", 7, False),
    ("star-chain", 10, False),
    ("star-chain", 12, False),
    ("cycle", 8, False),
    ("star", 8, True),
    ("star", 10, True),
)

# Every cell unordered and ordered: the ordered variant puts an ORDER BY
# on a random join column, so base_jcr's index-scan access paths and
# finalize's sort-or-skip choice are part of the comparison.
CELLS = [
    pytest.param(
        topology,
        size,
        shared,
        ordered,
        id=f"{topology}{'-shared' if shared else ''}-{size}"
        + ("-ordered" if ordered else ""),
    )
    for ordered in (False, True)
    for topology, size, shared in GRAPHS
]

INSTANCES = (0, 1, 2)


@pytest.fixture(scope="module")
def eq_schema():
    return SchemaBuilder(
        seed=3,
        relation_count=12,
        column_count=12,
        max_cardinality=80_000,
        max_domain=60_000,
        name="kernel-eq-12",
    ).build()


@pytest.fixture(scope="module")
def eq_stats(eq_schema):
    return analyze(eq_schema)


def serialize(plan) -> tuple:
    """Full recursive identity of a plan record: shape, methods, numbers."""
    children = tuple(
        serialize(child) for child in (plan.left, plan.right) if child is not None
    )
    return (
        plan.method,
        plan.mask,
        plan.rel,
        plan.eclass,
        plan.order,
        plan.rows,
        plan.cost,
        children,
    )


def run(technique: str, query, stats, kernel: str):
    optimizer = make_optimizer(technique, budget=BUDGET)
    # Force the kernel through the same seam production uses.
    import repro.core.kernel as kernel_mod

    monkey = pytest.MonkeyPatch()
    monkey.setenv(kernel_mod.KERNEL_ENV, kernel)
    try:
        return optimizer.optimize(query, stats)
    finally:
        monkey.undo()


def assert_kernels_agree(technique: str, query, stats, label):
    fast = run(technique, query, stats, "fast")
    reference = run(technique, query, stats, "reference")
    assert fast.cost == reference.cost, label
    assert fast.rows == reference.rows, label
    assert serialize(fast.plan) == serialize(reference.plan), label
    assert fast.plans_costed == reference.plans_costed, label
    assert fast.jcrs_created == reference.jcrs_created, label
    assert fast.jcrs_pruned == reference.jcrs_pruned, label
    assert fast.modeled_memory_mb == reference.modeled_memory_mb, label


@pytest.mark.parametrize("topology,size,shared,ordered", CELLS)
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_kernels_agree(
    topology, size, shared, ordered, technique, eq_schema, eq_stats
):
    spec = WorkloadSpec(
        topology, size, ordered=ordered, shared_hub_column=shared
    )
    for instance in INSTANCES:
        query = make_query(spec, eq_schema, instance)
        label = f"{technique} {spec.label} instance={instance}"
        assert_kernels_agree(technique, query, eq_stats, label)


# SQL-first coverage: the same kernel contract on queries carrying
# selections and interesting orders. The labels pick the plan-space
# features apart: an equality selection, selections plus an unindexed
# non-join ORDER BY (enforcer sort only), a range selection plus a
# join-column ORDER BY (order propagation through joins), and a
# selection plus an indexed non-join ORDER BY (the ordered-index-scan
# access path).
SQL_LABELS = (
    "suppliers-by-region",
    "shipping-priority",
    "big-customer-orders",
    "nation-suppliers-ordered",
)


# II scores whole plans through final_cost, the path the randomized
# walkers use; the level-wise techniques never call it.
SQL_TECHNIQUES = (*TECHNIQUES, "II")


@pytest.fixture(scope="module")
def tpch():
    from repro.workloads import tpch_lite_queries, tpch_lite_schema

    schema = tpch_lite_schema()
    queries = {q.label: q for q in tpch_lite_queries(schema)}
    return schema, analyze(schema), queries


@pytest.mark.parametrize("label", SQL_LABELS)
@pytest.mark.parametrize("technique", SQL_TECHNIQUES)
def test_kernels_agree_on_selections_and_orders(label, technique, tpch):
    _, stats, queries = tpch
    assert_kernels_agree(technique, queries[label], stats, f"{technique} {label}")


# A relation joining two of its own columns into one eclass: customer's
# pairs against a composite holding orders take the per-relation join
# facts, and the first predicate that touches customer names the column
# an index nested loop probes (c_custkey is indexed, c_acctbal is not), so
# the two predicate orders cost different plan counts.
OWN_COLUMNS_SQL = (
    "SELECT * FROM customer, orders, lineitem, part, supplier "
    "WHERE customer.{} = orders.o_custkey "
    "AND customer.{} = orders.o_custkey "
    "AND orders.o_orderkey = lineitem.l_orderkey "
    "AND lineitem.l_partkey = part.p_partkey "
    "AND lineitem.l_suppkey = supplier.s_suppkey"
)


@pytest.mark.parametrize(
    "columns",
    (("c_acctbal", "c_custkey"), ("c_custkey", "c_acctbal")),
    ids=("unindexed-first", "indexed-first"),
)
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_kernels_agree_on_two_columns_in_one_eclass(columns, technique, tpch):
    from repro.query.parser import parse_sql

    schema, stats, _ = tpch
    query = parse_sql(schema, OWN_COLUMNS_SQL.format(*columns))
    (eclass,) = {
        pred.eclass
        for pred in query.graph.predicates
        if query.graph.name_of(pred.left) == "customer"
    }
    assert len(query.graph.eclasses[eclass]) == 3
    assert_kernels_agree(technique, query, stats, f"{technique} {columns}")


def test_kernel_env_selects_reference(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "reference")
    assert kernel_name() == "reference"
    monkeypatch.setenv("REPRO_KERNEL", "fast")
    assert kernel_name() == "fast"
    monkeypatch.delenv("REPRO_KERNEL")
    assert kernel_name() == "fast"


def test_explicit_kernel_argument_overrides_env(monkeypatch, eq_schema, eq_stats):
    from repro.core.base import SearchCounters
    from repro.core.planspace import PlanSpace
    from repro.core.reference import ReferencePlanSpace
    from repro.cost.model import CostModel
    from repro.util.timer import Timer

    query = make_query(WorkloadSpec("chain", 4), eq_schema, 0)
    counters = SearchCounters(BUDGET, Timer())
    model = CostModel()
    monkeypatch.setenv("REPRO_KERNEL", "reference")
    space = make_planspace(query, eq_stats, model, counters, kernel="fast")
    assert isinstance(space, PlanSpace)
    space = make_planspace(query, eq_stats, model, counters)
    assert isinstance(space, ReferencePlanSpace)


class TestKernelRegistry:
    """:data:`repro.core.kernel.KERNELS` is the single source of truth:
    ``kernel_name`` errors, ``sdp-bench --list-kernels`` and
    ``docs/api.md`` all agree with it."""

    def test_registry_names(self):
        assert tuple(KERNELS) == ("fast", "reference")
        for name, description in KERNELS.items():
            assert kernel_name(name) == name
            assert description  # every kernel carries a one-line description

    # "parallel" and "dpconv" named kernels that have since been removed:
    # a leftover REPRO_KERNEL value must fail with the same typed error.
    @pytest.mark.parametrize("name", ("bogus", "parallel", "dpconv"))
    def test_unknown_kernel_error_lists_registry(self, name):
        with pytest.raises(OptimizationError) as excinfo:
            kernel_name(name)
        for name in KERNELS:
            assert name in str(excinfo.value)

    def test_removed_technique_rejected(self):
        assert "DPconv" not in available_techniques()
        with pytest.raises(OptimizationError):
            make_optimizer("DPconv")

    def test_docs_render_the_same_registry(self):
        api_md = os.path.join(
            os.path.dirname(__file__), "..", "docs", "api.md"
        )
        with open(api_md, encoding="utf-8") as handle:
            text = handle.read()
        for name in KERNELS:
            assert f"`{name}`" in text, f"kernel {name!r} missing from docs/api.md"

    def test_list_kernels_cli(self, capsys):
        from repro.bench.cli import main

        assert main(["--list-kernels"]) == 0
        out = capsys.readouterr().out
        for name in KERNELS:
            assert out.startswith(name) or f"\n{name}" in out
