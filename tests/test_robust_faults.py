"""Tests for deterministic fault injection (repro.robust.faults)."""

from __future__ import annotations

import pytest

from repro.core.base import SearchBudget
from repro.core.registry import make_optimizer
from repro.cost.model import DEFAULT_COST_MODEL
from repro.errors import (
    CatalogError,
    FaultInjected,
    OptimizationBudgetExceeded,
    OptimizationError,
)
from repro.plans.validate import validate_plan
from repro.robust import (
    CostModelFault,
    FaultHarness,
    FaultyCostModel,
    InjectedBudgetExceeded,
    RobustOptimizer,
    SlowCostModel,
)
from tests.conftest import make_star_query

pytestmark = pytest.mark.faults


@pytest.fixture
def query(small_schema):
    return make_star_query(small_schema, 8)


class TestBudgetTrip:
    def test_trips_first_rung_then_recovers(self, query, small_stats):
        harness = FaultHarness(seed=7)
        robust = RobustOptimizer()
        with harness.budget_trip(robust, at_event=100, resource="memory"):
            result = robust.optimize(query, small_stats)
        assert result.degraded
        first = result.attempts[0]
        assert first.outcome == "budget-exceeded"
        assert first.resource == "memory"
        assert result.attempts[-1].outcome == "ok"
        validate_plan(result.plan, query.graph)

    def test_injected_exception_is_both_fault_and_budget(self, query, small_stats):
        optimizer = make_optimizer("DP")
        with FaultHarness(seed=1).budget_trip(optimizer, at_event=1):
            with pytest.raises(OptimizationBudgetExceeded) as err:
                optimizer.optimize(query, small_stats)
        assert isinstance(err.value, FaultInjected)
        assert isinstance(err.value, InjectedBudgetExceeded)

    def test_deterministic_attempt_logs(self, query, small_stats):
        signatures = []
        for _ in range(2):
            harness = FaultHarness(seed=99)
            robust = RobustOptimizer()
            with harness.budget_trip(robust, resource="costing"):
                result = robust.optimize(query, small_stats)
            signatures.append(result.attempt_signature())
        assert signatures[0] == signatures[1]

    def test_different_seeds_can_differ(self, query, small_stats):
        # Seed-derived trip points differ, so the used-at-trip counts in
        # the attempt details differ (the ladder shape may coincide).
        def signature(seed):
            robust = RobustOptimizer()
            with FaultHarness(seed=seed).budget_trip(robust):
                return robust.optimize(query, small_stats).attempt_signature()

        assert signature(1) != signature(2)

    def test_no_state_leaks_after_exit(self, query, small_stats):
        harness = FaultHarness(seed=7)
        robust = RobustOptimizer()
        with harness.budget_trip(robust, at_event=1):
            degraded = robust.optimize(query, small_stats)
        assert degraded.degraded
        assert robust.checkpoint is None
        clean = robust.optimize(query, small_stats)
        assert not clean.degraded

    def test_prior_hook_chained_and_restored(self, query, small_stats):
        calls = []
        robust = RobustOptimizer()
        robust.checkpoint = lambda counters: calls.append(1)
        with FaultHarness(seed=7).budget_trip(robust, at_event=10**12):
            robust.optimize(query, small_stats)
        assert calls, "prior checkpoint hook was not chained"
        assert robust.checkpoint is not None
        assert robust.checkpoint.__name__ == "<lambda>"


class TestCostModelFaults:
    def test_transient_fault_degrades_then_heals(self, query, small_stats):
        harness = FaultHarness(seed=5)
        robust = RobustOptimizer()
        with harness.cost_model_faults(robust, fail_after=200) as proxy:
            result = robust.optimize(query, small_stats)
            assert proxy.reads >= 200
        assert result.degraded
        first = result.attempts[0]
        assert first.outcome == "error"
        assert "CostModelFault" in first.detail
        assert result.attempts[-1].outcome == "ok"
        assert robust.cost_model is DEFAULT_COST_MODEL

    def test_plain_optimizer_surfaces_fault(self, query, small_stats):
        optimizer = make_optimizer("SDP")
        with FaultHarness(seed=5).cost_model_faults(optimizer, fail_after=50):
            with pytest.raises(CostModelFault):
                optimizer.optimize(query, small_stats)
        assert optimizer.cost_model is DEFAULT_COST_MODEL

    def test_proxy_forwards_cleanly_outside_window(self):
        proxy = FaultyCostModel(DEFAULT_COST_MODEL, fail_after=3, fail_count=1)
        assert proxy.seq_page_cost == DEFAULT_COST_MODEL.seq_page_cost
        assert proxy.random_page_cost == DEFAULT_COST_MODEL.random_page_cost
        with pytest.raises(CostModelFault):
            _ = proxy.cpu_tuple_cost
        # Window passed: healthy again.
        assert proxy.cpu_tuple_cost == DEFAULT_COST_MODEL.cpu_tuple_cost
        assert proxy.reads == 4

    def test_proxy_validation(self):
        with pytest.raises(ValueError):
            FaultyCostModel(DEFAULT_COST_MODEL, fail_after=0)
        with pytest.raises(ValueError):
            FaultyCostModel(DEFAULT_COST_MODEL, fail_after=1, fail_count=0)


class TestPerturbedStatistics:
    def test_original_snapshot_untouched(self, small_stats):
        harness = FaultHarness(seed=3)
        before = {
            name: small_stats.table(name).row_count
            for name in small_stats.table_names
        }
        harness.perturbed_statistics(small_stats, mode="zero", fraction=1.0)
        after = {
            name: small_stats.table(name).row_count
            for name in small_stats.table_names
        }
        assert before == after

    def test_zero_mode_breaks_estimation(self, query, small_stats):
        corrupt = FaultHarness(seed=3).perturbed_statistics(
            small_stats, mode="zero", fraction=1.0
        )
        with pytest.raises(OptimizationError) as err:
            RobustOptimizer().optimize(query, corrupt)
        # Every rung failed; the error carries the full attempt log.
        attempts = err.value.attempts
        assert all(a.outcome == "error" for a in attempts)
        assert all("CatalogError" in a.detail for a in attempts)

    def test_inflate_mode_still_yields_plan(self, query, small_stats):
        inflated = FaultHarness(seed=3).perturbed_statistics(
            small_stats, mode="inflate", fraction=0.5, factor=100.0
        )
        result = RobustOptimizer().optimize(query, inflated)
        validate_plan(result.plan, query.graph)

    def test_deterministic_selection(self, small_stats):
        def inflated_rows(seed):
            snapshot = FaultHarness(seed=seed).perturbed_statistics(
                small_stats, mode="inflate", fraction=0.4
            )
            return tuple(
                snapshot.table(name).row_count
                for name in sorted(snapshot.table_names)
            )

        assert inflated_rows(11) == inflated_rows(11)
        assert inflated_rows(11) != inflated_rows(12)

    def test_bad_arguments_rejected(self, small_stats):
        harness = FaultHarness()
        with pytest.raises(ValueError):
            harness.perturbed_statistics(small_stats, mode="scramble")
        with pytest.raises(ValueError):
            harness.perturbed_statistics(small_stats, fraction=0.0)


class TestLatencyFault:
    def test_slow_search_returns_identical_result(self, query, small_stats):
        optimizer = make_optimizer("SDP")
        clean = optimizer.optimize(query, small_stats)
        with FaultHarness(seed=3).latency(
            optimizer, delay_seconds=0.0005, every=16
        ) as slow:
            faulted = optimizer.optimize(query, small_stats)
            assert slow.sleeps > 0  # the fault actually fired
        assert faulted.cost == clean.cost
        assert repr(faulted.plan) == repr(clean.plan)
        assert faulted.plans_costed == clean.plans_costed
        assert optimizer.cost_model is DEFAULT_COST_MODEL  # restored

    def test_derived_delay_is_seeded(self, query):
        def delay(seed):
            optimizer = make_optimizer("SDP")
            with FaultHarness(seed=seed).latency(optimizer) as slow:
                return slow.__dict__["_delay"]

        assert delay(7) == delay(7)
        assert 0.001 <= delay(7) <= 0.010
        assert delay(7) != delay(8)

    def test_proxy_validation(self):
        with pytest.raises(ValueError):
            SlowCostModel(DEFAULT_COST_MODEL, delay_seconds=0.0)
        with pytest.raises(ValueError):
            SlowCostModel(DEFAULT_COST_MODEL, delay_seconds=0.001, every=0)
        # NaN and inf pass every ordered comparison check; time.sleep then
        # raises ValueError / OverflowError mid-search.
        for delay in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SlowCostModel(DEFAULT_COST_MODEL, delay_seconds=delay)
