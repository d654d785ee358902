"""Tests for repro.core.base (budgets, counters) and repro.core.table."""

from __future__ import annotations

import pytest

from repro.core.base import (
    BYTES_PER_COSTED_PLAN,
    BYTES_PER_RETAINED_PLAN,
    SearchBudget,
    SearchCounters,
)
from repro.core.table import JCRTable
from repro.cost.cardinality import CardinalityEstimator
from repro.errors import OptimizationBudgetExceeded, OptimizationError
from repro.query.joingraph import JoinGraph
from repro.util.timer import Timer


def counters(budget=None, checkpoint=None):
    return SearchCounters(
        budget or SearchBudget.unlimited(), Timer().start(), checkpoint=checkpoint
    )


class TestSearchBudgetValidation:
    @pytest.mark.parametrize(
        "field", ["max_memory_bytes", "max_plans_costed", "max_seconds"]
    )
    @pytest.mark.parametrize("value", [0, -1, -0.5, float("nan")])
    def test_zero_and_negative_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchBudget(**{field: value})

    def test_none_means_unlimited(self):
        budget = SearchBudget(
            max_memory_bytes=None, max_plans_costed=None, max_seconds=None
        )
        assert budget == SearchBudget.unlimited()

    def test_positive_values_accepted(self):
        budget = SearchBudget(
            max_memory_bytes=1, max_plans_costed=1, max_seconds=0.001
        )
        assert budget.max_plans_costed == 1


class TestSearchCounters:
    def test_plans_accumulate(self):
        c = counters()
        c.note_plans_costed(5)
        c.note_plans_costed()
        assert c.plans_costed == 6
        assert c.arena_bytes == 6 * BYTES_PER_COSTED_PLAN

    def test_retained_accumulate(self):
        c = counters()
        c.note_retained(3)
        assert c.retained_slots == 3
        assert c.arena_bytes == 3 * BYTES_PER_RETAINED_PLAN

    def test_memory_budget_trips(self):
        budget = SearchBudget(max_memory_bytes=10 * BYTES_PER_COSTED_PLAN)
        c = counters(budget)
        c.note_plans_costed(11)
        with pytest.raises(OptimizationBudgetExceeded) as err:
            c.check_budget()
        assert err.value.resource == "memory"

    def test_costing_budget_trips(self):
        budget = SearchBudget(max_memory_bytes=None, max_plans_costed=5)
        c = counters(budget)
        c.note_plans_costed(6)
        with pytest.raises(OptimizationBudgetExceeded) as err:
            c.check_budget()
        assert err.value.resource == "costing"

    def test_time_budget_trips(self):
        budget = SearchBudget(max_memory_bytes=None, max_seconds=1e-9)
        c = counters(budget)
        c.note_plans_costed()
        with pytest.raises(OptimizationBudgetExceeded) as err:
            c.check_budget()
        assert err.value.resource == "time"

    def test_periodic_check_fires_automatically(self):
        budget = SearchBudget(max_memory_bytes=100)
        c = counters(budget)
        with pytest.raises(OptimizationBudgetExceeded):
            for _ in range(10_000):
                c.note_plans_costed()

    def test_arena_reset_tracks_peak(self):
        c = counters()
        c.note_plans_costed(100)
        peak = c.arena_bytes
        c.reset_arena(carry_bytes=10)
        assert c.arena_bytes == 10
        assert c.modeled_memory_bytes == peak
        assert c.plans_costed == 100  # counters are cumulative

    def test_pruned_jcrs_keep_arena(self):
        c = counters()
        c.note_plans_costed(10)
        before = c.arena_bytes
        c.note_jcrs_pruned(5)
        assert c.arena_bytes == before
        assert c.jcrs_pruned == 5

    def test_unlimited_budget_never_trips(self):
        c = counters(SearchBudget.unlimited())
        c.note_plans_costed(10**6)
        c.check_budget()

    def test_total_events_accumulate(self):
        c = counters()
        c.note_plans_costed(5)
        c.note_retained(2)
        c.note_pairs(3)
        assert c.total_events == 10

    def test_checkpoint_hook_fires_on_check(self):
        seen = []
        c = counters(checkpoint=seen.append)
        c.check_budget()
        assert seen == [c]

    def test_checkpoint_hook_fires_periodically(self):
        seen = []
        c = counters(checkpoint=lambda counters: seen.append(counters.total_events))
        for _ in range(3000):
            c.note_plans_costed()
        assert seen == [2048]

    def test_checkpoint_exception_propagates(self):
        def bomb(_counters):
            raise RuntimeError("cancelled")

        c = counters(checkpoint=bomb)
        with pytest.raises(RuntimeError):
            c.check_budget()


class TestJCRTable:
    @pytest.fixture
    def table(self, small_schema, small_stats):
        names = list(small_schema.relation_names[:4])
        joins = [(names[i], "c1", names[i + 1], "c2") for i in range(3)]
        graph = JoinGraph(names, joins)
        return JCRTable(CardinalityEstimator(graph, small_stats))

    def test_get_or_create(self, table):
        jcr, created = table.get_or_create(0b11)
        assert created and jcr.level == 2
        again, created2 = table.get_or_create(0b11)
        assert again is jcr and not created2

    def test_levels(self, table):
        table.get_or_create(0b01)
        table.get_or_create(0b10)
        table.get_or_create(0b11)
        assert len(table.level(1)) == 2
        assert len(table.level(2)) == 1
        assert table.level(9) == []

    def test_replace_level(self, table):
        a, _ = table.get_or_create(0b011)
        b, _ = table.get_or_create(0b110)
        pruned = table.replace_level(2, [a])
        assert pruned == 1
        assert table.get(0b110) is None
        assert table.get(0b011) is a

    def test_require(self, table):
        with pytest.raises(OptimizationError):
            table.require(0b1111)
        jcr, _ = table.get_or_create(0b1)
        assert table.require(0b1) is jcr

    def test_insert_rejects_duplicates(self, table):
        jcr, _ = table.get_or_create(0b1)
        fresh = JCRTable(table.estimator)
        fresh.insert(jcr)
        with pytest.raises(OptimizationError):
            fresh.insert(jcr)

    def test_len_and_contains(self, table):
        table.get_or_create(0b1)
        assert len(table) == 1
        assert 0b1 in table and 0b10 not in table
