"""Fast-vs-reference kernel equivalence (the tentpole's safety net).

The mask-native struct-of-arrays kernel (:mod:`repro.core.planspace`) must
be a pure performance change: for any query, any technique, it has to
produce the *same search* as the preserved eager object-graph kernel
(:mod:`repro.core.reference`) — bit-identical winning cost, identical plan
tree, identical counter values. These tests sweep randomized chain, star,
and clique instances (<= 10 relations, several workload seeds) through
DP, SDP, and IDP under both kernels and compare everything observable.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import WorkloadSpec, make_query
from repro.catalog import SchemaBuilder, analyze
from repro.core.base import SearchBudget
from repro.core.kernel import kernel_name, make_planspace
from repro.core.registry import make_optimizer

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


@pytest.mark.parametrize("topology,size", GRAPHS, ids=[f"{t}-{s}" for t, s in GRAPHS])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_kernels_agree(topology, size, technique, eq_schema, eq_stats):
    spec = WorkloadSpec(topology, size)
    for instance in INSTANCES:
        query = make_query(spec, eq_schema, instance)
        fast = run(technique, query, eq_stats, "fast")
        reference = run(technique, query, eq_stats, "reference")

        label = f"{technique} {spec.label} instance={instance}"
        assert fast.cost == reference.cost, label
        assert fast.rows == reference.rows, label
        assert serialize(fast.plan) == serialize(reference.plan), label
        assert fast.plans_costed == reference.plans_costed, label
        assert fast.jcrs_created == reference.jcrs_created, label
        assert fast.jcrs_pruned == reference.jcrs_pruned, label
        assert fast.modeled_memory_mb == reference.modeled_memory_mb, label


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


@pytest.fixture(scope="module")
def tpch():
    from repro.workloads import tpch_lite_queries, tpch_lite_schema

    schema = tpch_lite_schema()
    queries = {q.label: q for q in tpch_lite_queries(schema)}
    return schema, analyze(schema), queries


@pytest.mark.parametrize("label", SQL_LABELS)
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_kernels_agree_on_selections_and_orders(label, technique, tpch):
    _, stats, queries = tpch
    query = queries[label]
    fast = run(technique, query, stats, "fast")
    reference = run(technique, query, stats, "reference")
    tag = f"{technique} {label}"
    assert fast.cost == reference.cost, tag
    assert fast.rows == reference.rows, tag
    assert serialize(fast.plan) == serialize(reference.plan), tag
    assert fast.plans_costed == reference.plans_costed, tag
    assert fast.jcrs_created == reference.jcrs_created, tag
    assert fast.jcrs_pruned == reference.jcrs_pruned, tag


# The dpconv kernel's layered (min,+) convolution is exact only under a
# C_out cost model; inside that regime it must reproduce exhaustive DP's
# search bit-for-bit — cost, plan tree, and counters — across every
# topology, with the fast and reference kernels (also in their C_out
# branches) as the second and third witnesses.


def run_cout(technique: str, query, stats, kernel: str):
    from repro.cost import COUT_COST_MODEL

    optimizer = make_optimizer(
        technique, budget=BUDGET, cost_model=COUT_COST_MODEL
    )
    import repro.core.kernel as kernel_mod

    monkey = pytest.MonkeyPatch()
    monkey.setenv(kernel_mod.KERNEL_ENV, kernel)
    try:
        return optimizer.optimize(query, stats)
    finally:
        monkey.undo()


@pytest.mark.parametrize("topology,size", GRAPHS, ids=[f"{t}-{s}" for t, s in GRAPHS])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_dpconv_kernel_agrees_under_cout(
    topology, size, technique, eq_schema, eq_stats
):
    spec = WorkloadSpec(topology, size)
    for instance in INSTANCES:
        query = make_query(spec, eq_schema, instance)
        dpconv = run_cout(technique, query, eq_stats, "dpconv")
        fast = run_cout(technique, query, eq_stats, "fast")
        reference = run_cout(technique, query, eq_stats, "reference")

        label = f"{technique} {spec.label} instance={instance}"
        assert dpconv.cost == fast.cost == reference.cost, label
        assert dpconv.rows == fast.rows, label
        assert serialize(dpconv.plan) == serialize(fast.plan), label
        assert serialize(dpconv.plan) == serialize(reference.plan), label
        assert dpconv.plans_costed == fast.plans_costed, label
        assert dpconv.plans_costed == reference.plans_costed, label
        assert dpconv.jcrs_created == fast.jcrs_created, label
        assert dpconv.jcrs_pruned == fast.jcrs_pruned, label
        assert dpconv.modeled_memory_mb == fast.modeled_memory_mb, label


def test_dpconv_technique_matches_dp_under_cout(eq_schema, eq_stats):
    # technique="DPconv" (which defaults its model to C_out) against DP
    # under the same model: the winning cost must be bit-identical.
    from repro.cost import COUT_COST_MODEL

    for topology, size in GRAPHS:
        query = make_query(WorkloadSpec(topology, size), eq_schema, 0)
        dp = make_optimizer(
            "DP", budget=BUDGET, cost_model=COUT_COST_MODEL
        ).optimize(query, eq_stats)
        dpconv = make_optimizer("DPconv", budget=BUDGET).optimize(
            query, eq_stats
        )
        label = f"{topology}-{size}"
        assert dpconv.cost == dp.cost, label
        assert serialize(dpconv.plan) == serialize(dp.plan), label
        assert dpconv.plans_costed == dp.plans_costed, label


def test_dpconv_kernel_rejects_non_cout_models(eq_schema, eq_stats):
    from repro.errors import DPconvUnsupportedError

    query = make_query(WorkloadSpec("chain", 5), eq_schema, 0)
    # Via the environment seam, with the (non-C_out) default model.
    with pytest.raises(DPconvUnsupportedError):
        run("DP", query, eq_stats, "dpconv")
    # Via the technique registry with an explicit non-C_out model.
    from repro.cost import DEFAULT_COST_MODEL

    optimizer = make_optimizer("DPconv", cost_model=DEFAULT_COST_MODEL)
    with pytest.raises(DPconvUnsupportedError):
        optimizer.optimize(query, eq_stats)


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
