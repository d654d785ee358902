"""Tests for the robust fallback ladder (repro.robust.ladder/deadline)."""

from __future__ import annotations

import threading

import pytest

from repro.catalog import SchemaBuilder, analyze
from repro.core.base import SearchBudget
from repro.core.registry import make_optimizer
from repro.errors import (
    OptimizationBudgetExceeded,
    OptimizationCancelled,
    OptimizationError,
)
from repro.plans.validate import validate_plan
from repro.robust import (
    DEFAULT_LADDER,
    Deadline,
    RobustOptimizer,
    RobustResult,
    ladder_from,
)
from tests.conftest import make_star_query


@pytest.fixture(scope="module")
def big_schema():
    """31 relations — enough for the 30-relation star of the ladder test."""
    return SchemaBuilder(
        seed=3, relation_count=31, column_count=33, name="big-31"
    ).build()


@pytest.fixture(scope="module")
def big_stats(big_schema):
    return analyze(big_schema)


class TestLadderFrom:
    def test_ladder_member_keeps_tail(self):
        assert ladder_from("SDP") == ("SDP", "IDP(7)", "IDP(4)", "GOO")
        assert ladder_from("DP") == DEFAULT_LADDER
        assert ladder_from("GOO") == ("GOO",)

    def test_non_member_prepends(self):
        ladder = ladder_from("GEQO")
        assert ladder[0] == "GEQO"
        assert ladder[-1] == "GOO"
        assert "DP" not in ladder

    def test_empty_ladder_rejected(self):
        with pytest.raises(OptimizationError):
            RobustOptimizer(ladder=())

    def test_unknown_rung_rejected_at_construction(self):
        with pytest.raises(OptimizationError, match="Bogus"):
            RobustOptimizer(ladder=("DP", "Bogus"))


class TestFallbackLadder:
    def test_degrades_where_dp_is_infeasible(self, big_schema, big_stats):
        """The acceptance scenario: a 30-relation star under a budget that
        kills DP still yields a valid plan, with the attempt log showing
        the fallback."""
        query = make_star_query(big_schema, 30)
        budget = SearchBudget(max_memory_bytes=None, max_seconds=0.4)
        with pytest.raises(OptimizationBudgetExceeded):
            make_optimizer("DP", budget=budget).optimize(query, big_stats)

        result = RobustOptimizer(budget=budget).optimize(query, big_stats)
        assert isinstance(result, RobustResult)
        validate_plan(result.plan, query.graph)
        assert result.degraded is True
        assert result.fallback_count >= 1
        assert result.attempts[0].technique == "DP"
        assert result.attempts[0].outcome in ("budget-exceeded", "skipped")
        assert result.attempts[-1].outcome == "ok"
        assert result.winner == result.attempts[-1].technique

    def test_memory_trip_falls_to_next_rung(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        # ~1.5k plans * 200 B blows 64 kB; SDP fits comfortably.
        budget = SearchBudget(max_memory_bytes=64_000)
        result = RobustOptimizer(budget=budget).optimize(query, small_stats)
        assert result.degraded
        assert result.attempts[0].stable_key()[:3] == (
            "DP",
            "budget-exceeded",
            "memory",
        )
        validate_plan(result.plan, query.graph)

    def test_no_degradation_when_first_rung_fits(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        result = RobustOptimizer().optimize(query, small_stats)
        assert not result.degraded
        assert result.winner == "DP"
        assert result.technique == "Robust(DP)"
        assert [a.outcome for a in result.attempts] == ["ok"]

    def test_aggregates_cover_all_attempts(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        budget = SearchBudget(max_memory_bytes=64_000)
        result = RobustOptimizer(budget=budget).optimize(query, small_stats)
        # Total costing includes the failed DP attempt, so it exceeds the
        # winning stage's own count.
        winner_plans = result.attempts[-1].plans_costed
        assert result.plans_costed > winner_plans
        assert result.plans_costed == sum(
            a.plans_costed for a in result.attempts
        )

    def test_plans_budget_carved_cumulatively(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        budget = SearchBudget(max_memory_bytes=None, max_plans_costed=1000)
        result = RobustOptimizer(budget=budget).optimize(query, small_stats)
        assert result.degraded
        # Later rungs saw a reduced allowance; eventually the remaining
        # allowance hit zero and rungs were skipped until the terminal one.
        outcomes = [a.outcome for a in result.attempts]
        assert outcomes[-1] == "ok"
        assert "budget-exceeded" in outcomes
        skipped = [a for a in result.attempts if a.outcome == "skipped"]
        for attempt in skipped:
            assert attempt.resource == "costing"

    def test_deadline_exhaustion_skips_to_terminal(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 8)
        budget = SearchBudget(max_memory_bytes=None, max_seconds=0.05)
        result = RobustOptimizer(budget=budget).optimize(query, small_stats)
        validate_plan(result.plan, query.graph)
        assert result.attempts[-1].outcome == "ok"

    def test_terminal_stage_runs_unbudgeted(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        budget = SearchBudget(max_memory_bytes=None, max_plans_costed=1)
        result = RobustOptimizer(
            ladder=("DP", "GOO"), budget=budget
        ).optimize(query, small_stats)
        # GOO costs more than 1 plan, yet succeeds: the terminal rung is
        # exempt so optimize() stays total.
        assert result.winner == "GOO"
        assert result.attempts[-1].plans_costed > 1

    def test_result_tree_is_public_plan(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        budget = SearchBudget(max_memory_bytes=64_000)
        result = RobustOptimizer(budget=budget).optimize(query, small_stats)
        tree = result.tree(query)
        assert tree.rows >= 0

    def test_describe_renders_every_attempt(self, small_schema, small_stats):
        query = make_star_query(small_schema, 8)
        budget = SearchBudget(max_memory_bytes=64_000)
        result = RobustOptimizer(budget=budget).optimize(query, small_stats)
        text = result.describe()
        assert "[degraded]" in text
        for attempt in result.attempts:
            assert attempt.technique in text

    def test_registry_constructs_robust(self):
        optimizer = make_optimizer("Robust")
        assert isinstance(optimizer, RobustOptimizer)
        assert optimizer.ladder == DEFAULT_LADDER

    def test_custom_ladder(self, small_schema, small_stats):
        query = make_star_query(small_schema, 6)
        result = RobustOptimizer(ladder=("SDP", "GOO")).optimize(
            query, small_stats
        )
        assert result.winner == "SDP"
        assert result.technique == "Robust(SDP)"


class TestCancellation:
    def test_cancellation_propagates_not_degrades(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 8)
        robust = RobustOptimizer()
        robust.checkpoint = Deadline(1e-9).checkpoint
        with pytest.raises(OptimizationCancelled):
            robust.optimize(query, small_stats)

    def test_checkpoint_reaches_plain_optimizers(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 8)
        optimizer = make_optimizer("SDP")
        optimizer.checkpoint = Deadline(1e-9).checkpoint
        with pytest.raises(OptimizationCancelled):
            optimizer.optimize(query, small_stats)

    def test_unarmed_deadline_never_cancels(self, small_schema, small_stats):
        query = make_star_query(small_schema, 5)
        optimizer = make_optimizer("SDP")
        deadline = Deadline(None)
        optimizer.checkpoint = deadline.checkpoint
        result = optimizer.optimize(query, small_stats)
        assert result.cost > 0
        assert not deadline.expired

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1)
        with pytest.raises(ValueError):
            Deadline(float("nan"))


class TestConcurrentDeadlines:
    """One wall-clock deadline shared across concurrent optimizations."""

    def _run_threads(self, workers):
        threads = [threading.Thread(target=fn) for fn in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_expired_shared_deadline_cancels_every_request(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 8)
        deadline = Deadline(1e-9)
        outcomes = {}

        def request(index):
            optimizer = make_optimizer("SDP")
            optimizer.checkpoint = deadline.checkpoint
            try:
                optimizer.optimize(query, small_stats)
                outcomes[index] = "ok"
            except OptimizationCancelled:
                outcomes[index] = "cancelled"

        self._run_threads(
            [lambda i=i: request(i) for i in range(4)]
        )
        assert outcomes == {i: "cancelled" for i in range(4)}

    def test_cancellation_does_not_leak_across_requests(
        self, small_schema, small_stats
    ):
        """A neighbour's expired deadline must not cancel or degrade us."""
        query = make_star_query(small_schema, 7)
        expired = Deadline(1e-9)
        outcomes = {}

        def doomed(index):
            robust = RobustOptimizer()
            robust.checkpoint = expired.checkpoint
            try:
                robust.optimize(query, small_stats)
                outcomes[index] = "ok"
            except OptimizationCancelled:
                outcomes[index] = "cancelled"

        def unhindered(index):
            robust = RobustOptimizer()
            result = robust.optimize(query, small_stats)
            outcomes[index] = (
                "ok" if not result.degraded and result.cost > 0 else "degraded"
            )

        self._run_threads(
            [lambda: doomed(0), lambda: unhindered(1), lambda: doomed(2)]
        )
        assert outcomes == {0: "cancelled", 1: "ok", 2: "cancelled"}

    def test_generous_shared_deadline_serves_everyone(
        self, small_schema, small_stats
    ):
        query = make_star_query(small_schema, 6)
        deadline = Deadline(60.0)
        results = {}

        def request(index):
            optimizer = make_optimizer("SDP")
            optimizer.checkpoint = deadline.checkpoint
            results[index] = optimizer.optimize(query, small_stats)

        self._run_threads([lambda i=i: request(i) for i in range(4)])
        costs = {result.cost for result in results.values()}
        assert len(results) == 4
        assert len(costs) == 1  # concurrency never changes the answer
        assert not deadline.expired

    def test_attempt_logs_stay_per_request(self, small_schema, small_stats):
        """Each robust request keeps its own attempt log under concurrency."""
        query = make_star_query(small_schema, 7)
        logs = {}

        def request(index):
            robust = RobustOptimizer(ladder=("SDP", "GOO"))
            result = robust.optimize(query, small_stats)
            logs[index] = [
                (attempt.technique, attempt.outcome)
                for attempt in result.attempts
            ]

        self._run_threads([lambda i=i: request(i) for i in range(4)])
        assert len(logs) == 4
        reference = logs[0]
        assert all(log == reference for log in logs.values())
        assert reference[0] == ("SDP", "ok")
