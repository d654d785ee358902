"""Tests for the randomized (II, 2PO) and genetic (GEQO) baselines,
plus the k-dominant (strong) skyline."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DynamicProgrammingOptimizer,
    GeneticConfig,
    GeneticOptimizer,
    IterativeImprovementOptimizer,
    RandomizedConfig,
    SDPConfig,
    SDPOptimizer,
    TwoPhaseOptimizer,
)
from repro.core.base import SearchBudget, SearchCounters
from repro.core.planspace import PlanSpace
from repro.core.randomized import _JoinOrderWalk
from repro.core.table import JCRTable
from repro.cost.model import DEFAULT_COST_MODEL
from repro.errors import OptimizationBudgetExceeded
from repro.plans import validate_plan
from repro.skyline import (
    k_dominant_skyline,
    k_dominates,
    naive_skyline,
)
from repro.util.rng import derive_rng
from repro.util.timer import Timer
from tests.conftest import make_chain_query, make_star_chain_query, make_star_query

vectors_3d = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    ),
    min_size=1,
    max_size=25,
)


class TestKDominance:
    def test_basic(self):
        assert k_dominates((1, 2, 9), (2, 3, 0), 2)
        assert not k_dominates((1, 2, 9), (2, 3, 0), 3)

    def test_equal_never_dominates(self):
        assert not k_dominates((1, 1, 1), (1, 1, 1), 1)

    def test_full_k_is_ordinary_dominance(self):
        assert k_dominates((1, 2, 3), (2, 2, 3), 3)
        assert not k_dominates((1, 2, 4), (2, 2, 3), 3)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            k_dominates((1, 2), (3, 4), 0)
        with pytest.raises(ValueError):
            k_dominates((1, 2), (3, 4), 3)

    def test_can_be_cyclic(self):
        a, b = (1, 9, 5), (9, 1, 5)
        # both 1-dominate each other — k-dominance is not a partial order
        assert k_dominates(a, b, 1) and k_dominates(b, a, 1)

    @given(vectors_3d)
    def test_subset_of_ordinary_skyline(self, vecs):
        strong = k_dominant_skyline(vecs, 2)
        assert strong <= naive_skyline(vecs)

    @given(vectors_3d)
    def test_k_equals_d_matches_ordinary(self, vecs):
        assert k_dominant_skyline(vecs, 3) == naive_skyline(vecs)

    def test_known_example(self):
        assert k_dominant_skyline([(1, 4, 4), (2, 2, 2), (4, 1, 4)], 2) == {1}


class TestStrongSkylineSDP:
    def test_option3_runs_and_prunes_harder(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        strong = SDPOptimizer(config=SDPConfig(skyline_option=3)).optimize(
            query, small_stats
        )
        default = SDPOptimizer().optimize(query, small_stats)
        validate_plan(strong.plan, query.graph)
        assert strong.jcrs_created <= default.jcrs_created
        assert SDPOptimizer(config=SDPConfig(skyline_option=3)).name == "SDP(strong)"


class TestJoinOrderWalk:
    @pytest.fixture
    def walk(self, small_schema, small_stats):
        query = make_star_chain_query(small_schema, spokes=4, chain=2)
        counters = SearchCounters(SearchBudget.unlimited(), Timer().start())
        space = PlanSpace(query, small_stats, DEFAULT_COST_MODEL, counters)
        return _JoinOrderWalk(space, JCRTable(space.est), derive_rng(0, "t"))

    def test_random_orders_valid(self, walk):
        for _ in range(20):
            order = walk.random_order()
            assert sorted(order) == list(range(walk.graph.n))
            assert walk.is_valid(order)

    def test_moves_preserve_validity(self, walk):
        order = walk.random_order()
        for _ in range(20):
            moved = walk.random_move(order)
            if moved is not None:
                assert walk.is_valid(moved)
                assert sorted(moved) == sorted(order)
                order = moved

    def test_invalid_order_detected(self, walk):
        # two spokes first: second prefix is disconnected in a star-chain
        graph = walk.graph
        spokes = [i for i in range(graph.n) if graph.degree(i) == 1]
        assert len(spokes) >= 2
        order = spokes[:2] + [
            i for i in range(graph.n) if i not in spokes[:2]
        ]
        assert not walk.is_valid(order)

    def test_cost_matches_final_plan_availability(self, walk):
        order = walk.random_order()
        cost = walk.cost(order)
        assert cost > 0
        assert walk.final_plan().cost <= cost + 1e-9


class TestRandomizedOptimizers:
    @pytest.mark.parametrize(
        "optimizer_cls", [IterativeImprovementOptimizer, TwoPhaseOptimizer]
    )
    def test_valid_and_no_worse_than_worst(
        self, optimizer_cls, small_schema, small_stats
    ):
        query = make_star_chain_query(small_schema, spokes=4, chain=2)
        config = RandomizedConfig(restarts=2, moves_per_start=30, seed=1)
        result = optimizer_cls(config=config).optimize(query, small_stats)
        validate_plan(result.plan, query.graph)
        optimal = (
            DynamicProgrammingOptimizer().optimize(query, small_stats).cost
        )
        assert result.cost >= optimal - 1e-6

    def test_deterministic_given_seed(self, small_schema, small_stats):
        query = make_star_query(small_schema, 7)
        config = RandomizedConfig(restarts=2, moves_per_start=20, seed=5)
        a = IterativeImprovementOptimizer(config=config).optimize(
            query, small_stats
        )
        b = IterativeImprovementOptimizer(config=config).optimize(
            query, small_stats
        )
        assert a.cost == pytest.approx(b.cost)

    def test_single_relation(self, small_schema, small_stats):
        from repro.query import JoinGraph, Query

        graph = JoinGraph([small_schema.relation_names[0]], [])
        query = Query(small_schema, graph, label="one")
        result = IterativeImprovementOptimizer().optimize(query, small_stats)
        assert result.plan.is_scan

    def test_budget_respected(self, schema, stats):
        query = make_star_query(schema, 12)
        tiny = SearchBudget(max_memory_bytes=100_000)
        with pytest.raises(OptimizationBudgetExceeded):
            IterativeImprovementOptimizer(budget=tiny).optimize(query, stats)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomizedConfig(restarts=0)
        with pytest.raises(ValueError):
            RandomizedConfig(moves_per_start=0)
        with pytest.raises(ValueError):
            RandomizedConfig(cooling=1.5)
        # NaN passes every bound check; a float count is not a count.
        for field in ("restarts", "moves_per_start", "annealing_moves"):
            for value in (float("nan"), 2.5):
                with pytest.raises(ValueError):
                    RandomizedConfig(**{field: value})
        with pytest.raises(ValueError):
            RandomizedConfig(annealing_moves=-1)
        RandomizedConfig(annealing_moves=0)


class TestGenetic:
    def test_valid_and_sound(self, small_schema, small_stats):
        query = make_star_chain_query(small_schema, spokes=4, chain=2)
        config = GeneticConfig(population=8, generations=4, seed=2)
        result = GeneticOptimizer(config=config).optimize(query, small_stats)
        validate_plan(result.plan, query.graph)
        optimal = (
            DynamicProgrammingOptimizer().optimize(query, small_stats).cost
        )
        assert result.cost >= optimal - 1e-6

    def test_deterministic(self, small_schema, small_stats):
        query = make_star_query(small_schema, 7)
        config = GeneticConfig(population=6, generations=3, seed=3)
        a = GeneticOptimizer(config=config).optimize(query, small_stats)
        b = GeneticOptimizer(config=config).optimize(query, small_stats)
        assert a.cost == pytest.approx(b.cost)

    def test_recombination_produces_valid_children(
        self, small_schema, small_stats
    ):
        query = make_star_chain_query(small_schema, spokes=4, chain=2)
        counters = SearchCounters(SearchBudget.unlimited(), Timer().start())
        space = PlanSpace(query, small_stats, DEFAULT_COST_MODEL, counters)
        walk = _JoinOrderWalk(space, JCRTable(space.est), derive_rng(0, "g"))
        rng = derive_rng(1, "recombine")
        for _ in range(15):
            mother, father = walk.random_order(), walk.random_order()
            child = GeneticOptimizer._recombine(mother, father, walk, rng)
            assert sorted(child) == sorted(mother)
            assert walk.is_valid(child)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneticConfig(population=1)
        with pytest.raises(ValueError):
            GeneticConfig(generations=0)
        with pytest.raises(ValueError):
            GeneticConfig(mutation_rate=1.5)
        for field in ("population", "generations", "tournament"):
            for value in (float("nan"), 8.5):
                with pytest.raises(ValueError):
                    GeneticConfig(**{field: value})


class TestIDP2:
    def test_valid_and_sound(self, small_schema, small_stats):
        from repro.core.idp2 import IDP2Config, IDP2Optimizer

        query = make_star_chain_query(small_schema, spokes=4, chain=2)
        result = IDP2Optimizer(IDP2Config(k=4)).optimize(query, small_stats)
        validate_plan(result.plan, query.graph)
        optimal = (
            DynamicProgrammingOptimizer().optimize(query, small_stats).cost
        )
        assert result.cost >= optimal - 1e-6

    def test_small_query_equals_dp(self, small_schema, small_stats):
        from repro.core.idp2 import IDP2Config, IDP2Optimizer

        query = make_star_query(small_schema, 6)
        dp_cost = (
            DynamicProgrammingOptimizer().optimize(query, small_stats).cost
        )
        idp2 = IDP2Optimizer(IDP2Config(k=7)).optimize(query, small_stats)
        assert idp2.cost == pytest.approx(dp_cost)

    def test_registry_name(self):
        from repro.core import make_optimizer

        optimizer = make_optimizer("IDP2(5)")
        assert optimizer.name == "IDP2(5)"
        assert optimizer.config.k == 5

    def test_config_validation(self):
        from repro.core.idp2 import IDP2Config

        with pytest.raises(ValueError):
            IDP2Config(k=1)
        for k in (float("nan"), 4.5):
            with pytest.raises(ValueError):
                IDP2Config(k=k)

    def test_runs_on_paper_scale(self, schema, stats):
        from repro.core.idp2 import IDP2Config, IDP2Optimizer
        from tests.conftest import make_star_chain_query

        query = make_star_chain_query(schema, spokes=8, chain=3)
        result = IDP2Optimizer(IDP2Config(k=6)).optimize(query, stats)
        validate_plan(result.plan, query.graph)
        assert result.jcrs_created > 0
