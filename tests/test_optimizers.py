"""Correctness tests for the optimizers (DP, IDP, SDP, GOO).

The key oracle is a naive exhaustive DP (``3^n`` subset splitting over the
same plan space) that certifies the DPccp-based DP optimizer; the heuristics
are then validated against DP: never cheaper, always structurally valid, and
exactly equal where the paper guarantees it (SDP on hub-free graphs).
"""

from __future__ import annotations

import pytest

from repro.core import (
    DynamicProgrammingOptimizer,
    GreedyOptimizer,
    IDPConfig,
    IDPOptimizer,
    SDPConfig,
    SDPOptimizer,
    SearchBudget,
    available_techniques,
    make_optimizer,
)
from repro.core.base import SearchCounters
from repro.core.planspace import PlanSpace
from repro.core.table import JCRTable
from repro.cost.model import DEFAULT_COST_MODEL
from repro.errors import OptimizationBudgetExceeded, OptimizationError
from repro.obs.names import SPAN_SDP_LEVEL, SPAN_SDP_PRUNE
from repro.obs.runtime import capture
from repro.plans import validate_plan
from repro.query import JoinGraph, Query, cycle_joins, star_joins
from repro.util.bitset import subsets_of
from repro.util.timer import Timer
from tests.conftest import make_chain_query, make_star_chain_query, make_star_query

ALL_OPTIMIZERS = [
    DynamicProgrammingOptimizer(),
    IDPOptimizer(IDPConfig(k=4)),
    IDPOptimizer(IDPConfig(k=7)),
    SDPOptimizer(),
    SDPOptimizer(config=SDPConfig(partitioning="parent")),
    SDPOptimizer(config=SDPConfig(partitioning="global")),
    SDPOptimizer(config=SDPConfig(skyline_option=1)),
    GreedyOptimizer(),
]


def brute_force_optimal_cost(query, stats) -> float:
    """Naive exhaustive DP over the same plan space (levels ascending)."""
    counters = SearchCounters(SearchBudget.unlimited(), Timer().start())
    space = PlanSpace(query, stats, DEFAULT_COST_MODEL, counters)
    table = JCRTable(space.est)
    graph = query.graph
    for index in range(graph.n):
        space.base_jcr(table, index)
    for level in range(2, graph.n + 1):
        for mask in range(1, graph.all_mask + 1):
            if mask.bit_count() != level or not graph.is_connected(mask):
                continue
            for left_mask in subsets_of(mask, proper=True):
                right_mask = mask ^ left_mask
                if left_mask > right_mask:
                    continue
                left = table.get(left_mask)
                right = table.get(right_mask)
                if left is None or right is None:
                    continue
                space.join(table, left, right)
    return space.finalize(table.require(graph.all_mask)).cost


def queries_for_equivalence(small_schema):
    names = list(small_schema.relation_names)
    yield make_chain_query(small_schema, 5)
    yield make_star_query(small_schema, 5)
    yield make_star_chain_query(small_schema, spokes=3, chain=2)
    yield Query(
        small_schema,
        JoinGraph(names[:5], cycle_joins(small_schema, names[:5])),
        label="cycle-5",
    )


class TestDPOptimality:
    def test_matches_naive_exhaustive_dp(self, small_schema, small_stats):
        dp = DynamicProgrammingOptimizer()
        for query in queries_for_equivalence(small_schema):
            expected = brute_force_optimal_cost(query, small_stats)
            got = dp.optimize(query, small_stats).cost
            assert got == pytest.approx(expected), query.label

    def test_single_relation(self, small_schema, small_stats):
        graph = JoinGraph([small_schema.relation_names[0]], [])
        query = Query(small_schema, graph, label="single")
        result = DynamicProgrammingOptimizer().optimize(query, small_stats)
        assert result.plan.is_scan

    def test_two_relations(self, small_schema, small_stats):
        names = list(small_schema.relation_names[:2])
        graph = JoinGraph(names, [(names[0], "c2", names[1], "c3")])
        query = Query(small_schema, graph, label="pair")
        result = DynamicProgrammingOptimizer().optimize(query, small_stats)
        assert result.plan.mask == 0b11

    def test_ordered_query_not_cheaper_than_unordered(
        self, small_schema, small_stats
    ):
        base = make_star_query(small_schema, 5)
        joins = star_joins(
            small_schema,
            base.graph.relation_names[0],
            list(base.graph.relation_names[1:]),
        )
        spoke, column = joins[0][2], joins[0][3]
        ordered = Query(
            small_schema, base.graph, order_by=(spoke, column), label="ordered"
        )
        dp = DynamicProgrammingOptimizer()
        assert (
            dp.optimize(ordered, small_stats).cost
            >= dp.optimize(base, small_stats).cost - 1e-9
        )


class TestHeuristicsSoundness:
    @pytest.mark.parametrize(
        "optimizer", ALL_OPTIMIZERS, ids=lambda o: o.name
    )
    def test_valid_plans_and_never_below_optimal(
        self, optimizer, small_schema, small_stats
    ):
        dp = DynamicProgrammingOptimizer()
        for query in queries_for_equivalence(small_schema):
            result = optimizer.optimize(query, small_stats)
            validate_plan(result.plan, query.graph)
            optimal = dp.optimize(query, small_stats).cost
            assert result.cost >= optimal - 1e-6, (optimizer.name, query.label)

    @pytest.mark.parametrize(
        "optimizer", ALL_OPTIMIZERS, ids=lambda o: o.name
    )
    def test_result_metadata(self, optimizer, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        result = optimizer.optimize(query, small_stats)
        assert result.plans_costed > 0
        assert result.modeled_memory_mb > 0
        assert result.elapsed_seconds >= 0
        assert result.rows >= 1
        tree = result.tree(query)
        assert sorted(tree.leaf_relations()) == sorted(
            query.graph.relation_names
        )


class TestSDP:
    def test_equals_dp_on_hub_free_graphs(self, small_schema, small_stats):
        """No hubs => no pruning => SDP is exhaustive DP (Section 2.1.5)."""
        names = list(small_schema.relation_names)
        chain = make_chain_query(small_schema, 7)
        cycle = Query(
            small_schema,
            JoinGraph(names[:6], cycle_joins(small_schema, names[:6])),
            label="cycle-6",
        )
        dp = DynamicProgrammingOptimizer()
        sdp = SDPOptimizer()
        for query in (chain, cycle):
            assert sdp.optimize(query, small_stats).cost == pytest.approx(
                dp.optimize(query, small_stats).cost
            ), query.label

    def test_prunes_on_stars(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        result = SDPOptimizer().optimize(query, small_stats)
        assert result.jcrs_pruned > 0

    def test_no_pruning_on_chains(self, small_schema, small_stats):
        query = make_chain_query(small_schema, 8)
        result = SDPOptimizer().optimize(query, small_stats)
        assert result.jcrs_pruned == 0

    def test_costs_fewer_plans_than_dp_on_stars(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 8)
        dp = DynamicProgrammingOptimizer().optimize(query, small_stats)
        sdp = SDPOptimizer().optimize(query, small_stats)
        assert sdp.plans_costed < dp.plans_costed / 2

    def test_option1_retains_at_least_option2(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 8)
        opt1 = SDPOptimizer(config=SDPConfig(skyline_option=1)).optimize(
            query, small_stats
        )
        opt2 = SDPOptimizer(config=SDPConfig(skyline_option=2)).optimize(
            query, small_stats
        )
        assert opt1.jcrs_created >= opt2.jcrs_created

    def test_trace_events(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        with capture() as exporter:
            SDPOptimizer().optimize(query, small_stats)
        built = {
            span.span_id: span.attributes["built"]
            for span in exporter.spans
            if span.name == SPAN_SDP_LEVEL
        }
        events = [
            span
            for span in exporter.spans
            if span.name == SPAN_SDP_PRUNE and "partitions" in span.attributes
        ]
        assert events
        for span in events:
            event = span.attributes
            level_built = built[span.parent_id]
            assert level_built == event["prune_group"] + event["free_group"]
            assert event["survivors"] <= level_built

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SDPConfig(partitioning="diagonal")
        with pytest.raises(ValueError):
            SDPConfig(skyline_option=4)
        with pytest.raises(ValueError):
            SDPConfig(hub_degree=0)
        # NaN passes every bound check; a float count is not a count.
        for hub_degree in (float("nan"), 2.5):
            with pytest.raises(ValueError):
                SDPConfig(hub_degree=hub_degree)
        with pytest.raises(ValueError):
            SDPConfig(pairwise_dimensions=((0, 5),))
        # No pair at all, and pairs that are not two distinct RCS indices.
        for dimensions in ((), ((0, 1, 2),), ((0, 0),), ((1,),), ((0, 1), (2, 2))):
            with pytest.raises(ValueError):
                SDPConfig(pairwise_dimensions=dimensions)
        SDPConfig(pairwise_dimensions=((0, 1), (2, 0)))

    def test_names(self):
        assert SDPOptimizer().name == "SDP"
        assert (
            SDPOptimizer(config=SDPConfig(partitioning="global")).name
            == "SDP/Global"
        )
        assert SDPOptimizer(name="custom").name == "custom"


class TestIDP:
    def test_small_query_equals_dp(self, small_schema, small_stats):
        """n <= k means one full-DP block: IDP must be optimal."""
        query = make_star_query(small_schema, 6)
        dp_cost = DynamicProgrammingOptimizer().optimize(query, small_stats).cost
        idp_cost = IDPOptimizer(IDPConfig(k=7)).optimize(query, small_stats).cost
        assert idp_cost == pytest.approx(dp_cost)

    def test_block_size_balanced(self):
        idp = IDPOptimizer(IDPConfig(k=7, block_policy="balanced"))
        assert idp._block_size(7) == 7
        assert idp._block_size(5) == 5
        size = idp._block_size(23)
        assert 2 <= size <= 7

    def test_block_size_standard(self):
        idp = IDPOptimizer(IDPConfig(k=4, block_policy="standard"))
        assert idp._block_size(10) == 4
        assert idp._block_size(3) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IDPConfig(k=1)
        for k in (float("nan"), 4.5):
            with pytest.raises(ValueError):
                IDPConfig(k=k)
        with pytest.raises(ValueError):
            IDPConfig(block_policy="chaotic")
        with pytest.raises(ValueError):
            IDPConfig(evaluation="vibes")
        with pytest.raises(ValueError):
            IDPConfig(selection_fraction=0.0)

    def test_evaluation_functions_all_run(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        for evaluation in ("minrows", "mincost", "minsel"):
            config = IDPConfig(k=4, evaluation=evaluation, balloon=False)
            result = IDPOptimizer(config).optimize(query, small_stats)
            validate_plan(result.plan, query.graph)

    def test_name(self):
        assert IDPOptimizer(IDPConfig(k=4)).name == "IDP(4)"


class TestBudgets:
    def test_budget_exceeded_raises(self, schema, stats):
        query = make_star_query(schema, 12)
        tiny = SearchBudget(max_memory_bytes=50_000)
        with pytest.raises(OptimizationBudgetExceeded):
            DynamicProgrammingOptimizer(budget=tiny).optimize(query, stats)

    def test_sdp_survives_where_dp_trips(self, schema, stats):
        query = make_star_query(schema, 12)
        budget = SearchBudget(max_memory_bytes=5_000_000)
        with pytest.raises(OptimizationBudgetExceeded):
            DynamicProgrammingOptimizer(budget=budget).optimize(query, stats)
        result = SDPOptimizer(budget=budget).optimize(query, stats)
        assert result.cost > 0

    def test_auto_analyze_when_stats_omitted(self, small_schema):
        query = make_star_query(small_schema, 4)
        result = SDPOptimizer().optimize(query)
        assert result.cost > 0


class TestRegistry:
    def test_all_advertised_names_construct(self):
        for name in available_techniques():
            optimizer = make_optimizer(name)
            assert optimizer.name == name

    def test_idp_any_k(self):
        assert make_optimizer("IDP(9)").config.k == 9

    def test_unknown_rejected(self):
        with pytest.raises(OptimizationError):
            make_optimizer("QuantumDP")


class TestSDPEither:
    """The extension 'either' mode: union of root and parent survivors."""

    def test_registry(self):
        optimizer = make_optimizer("SDP(either)")
        assert optimizer.name == "SDP(either)"

    def test_no_worse_than_the_best_single_mode_here(
        self, small_schema, small_stats
    ):
        # Not a theorem (skyline pruning is not monotone in its input), but
        # a strong regression signal on a fixed query: the union retains a
        # superset per level, which on this instance reaches the same or a
        # better plan than either single mode.
        query = make_star_query(small_schema, 8)
        either = SDPOptimizer(
            config=SDPConfig(partitioning="either")
        ).optimize(query, small_stats)
        singles = [
            SDPOptimizer(config=SDPConfig(partitioning=mode))
            .optimize(query, small_stats)
            .cost
            for mode in ("root", "parent")
        ]
        assert either.cost <= min(singles) + 1e-9

    def test_sound(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        either = SDPOptimizer(
            config=SDPConfig(partitioning="either")
        ).optimize(query, small_stats)
        validate_plan(either.plan, query.graph)
        optimal = DynamicProgrammingOptimizer().optimize(query, small_stats)
        assert either.cost >= optimal.cost - 1e-6
