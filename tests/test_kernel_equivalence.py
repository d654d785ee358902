"""Fast-vs-reference kernel equivalence (the tentpole's safety net).

The mask-native struct-of-arrays kernel (:mod:`repro.core.planspace`) must
be a pure performance change: for any query, any technique, it has to
produce the *same search* as the preserved eager object-graph kernel
(:mod:`repro.core.reference`) — bit-identical winning cost, identical plan
tree, identical counter values. These tests sweep randomized chain, star,
and clique instances (<= 10 relations, several workload seeds) through
DP, SDP, and IDP under both kernels and compare everything observable,
under the default cost model and under C_out. The kernel registry tests
live here too.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog import SchemaBuilder, analyze
from repro.core.base import SearchBudget
from repro.core.kernel import KERNELS, kernel_name, make_planspace
from repro.core.registry import available_techniques, make_optimizer
from repro.cost import COUT_COST_MODEL, DEFAULT_COST_MODEL
from repro.errors import OptimizationError

BUDGET = SearchBudget(max_seconds=60.0)

TECHNIQUES = ("DP", "SDP", "IDP(4)")

# (topology, size) cells; clique kept smallest — its DP pair count grows
# fastest and this sweep runs 2 kernels x 3 techniques per instance.
GRAPHS = (
    ("chain", 8),
    ("chain", 10),
    ("star", 8),
    ("star", 10),
    ("clique", 6),
    ("clique", 7),
)

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


def run(technique: str, query, stats, kernel: str, cost_model=None):
    optimizer = make_optimizer(technique, budget=BUDGET, cost_model=cost_model)
    # Force the kernel through the same seam production uses.
    import repro.core.kernel as kernel_mod

    monkey = pytest.MonkeyPatch()
    monkey.setenv(kernel_mod.KERNEL_ENV, kernel)
    try:
        return optimizer.optimize(query, stats)
    finally:
        monkey.undo()


def assert_kernels_agree(technique: str, query, stats, label, cost_model=None):
    fast = run(technique, query, stats, "fast", cost_model)
    reference = run(technique, query, stats, "reference", cost_model)
    assert fast.cost == reference.cost, label
    assert fast.rows == reference.rows, label
    assert serialize(fast.plan) == serialize(reference.plan), label
    assert fast.plans_costed == reference.plans_costed, label
    assert fast.jcrs_created == reference.jcrs_created, label
    assert fast.jcrs_pruned == reference.jcrs_pruned, label
    assert fast.modeled_memory_mb == reference.modeled_memory_mb, label


@pytest.mark.parametrize("topology,size", GRAPHS, ids=[f"{t}-{s}" for t, s in GRAPHS])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_kernels_agree(topology, size, technique, eq_schema, eq_stats):
    spec = WorkloadSpec(topology, size)
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

# Both cost models. Under C_out, base_jcr ignores selections (no Filter
# entry), finalize sorts for ORDER BY for free, and final_cost takes its
# own branch — each kernel has to agree there too.
SQL_CASES = [
    pytest.param(technique, model, id=technique + suffix)
    for suffix, model in (("", DEFAULT_COST_MODEL), ("-cout", COUT_COST_MODEL))
    for technique in SQL_TECHNIQUES
]


@pytest.fixture(scope="module")
def tpch():
    from repro.workloads import tpch_lite_queries, tpch_lite_schema

    schema = tpch_lite_schema()
    queries = {q.label: q for q in tpch_lite_queries(schema)}
    return schema, analyze(schema), queries


@pytest.mark.parametrize("label", SQL_LABELS)
@pytest.mark.parametrize("technique,cost_model", SQL_CASES)
def test_kernels_agree_on_selections_and_orders(
    label, technique, cost_model, tpch
):
    _, stats, queries = tpch
    tag = f"{technique} {label} cout={cost_model.cout}"
    assert_kernels_agree(technique, queries[label], stats, tag, cost_model)


# The C_out regime (COUT_COST_MODEL) takes its own branch in every
# kernel — one join alternative per pair, no ordered slots — so it gets
# its own sweep over the same topologies.


@pytest.mark.parametrize("topology,size", GRAPHS, ids=[f"{t}-{s}" for t, s in GRAPHS])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_kernels_agree_under_cout(topology, size, technique, eq_schema, eq_stats):
    spec = WorkloadSpec(topology, size)
    for instance in INSTANCES:
        query = make_query(spec, eq_schema, instance)
        label = f"{technique} {spec.label} instance={instance}"
        assert_kernels_agree(technique, query, eq_stats, label, COUT_COST_MODEL)


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
