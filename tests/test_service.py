"""Tests for the serving layer: fingerprints, plan cache, batch executor."""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench.runner import run_comparison
from repro.catalog import analyze
from repro.bench.workloads import WorkloadSpec
from repro.core.base import SearchBudget
from repro.errors import (
    OptimizationBudgetExceeded,
    OptimizationError,
    ServiceError,
)
from repro.query import JoinGraph, Query
from repro.service import (
    BatchItem,
    OptimizationService,
    PlanCache,
    fingerprint_components,
    optimize_many,
    query_fingerprint,
)
from repro.service import parallel
from repro.service.parallel import execution_plan
from tests.conftest import make_chain_query, make_star_query

# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_for_same_query(self, small_schema):
        a = make_star_query(small_schema, 5)
        b = make_star_query(small_schema, 5)
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_label_is_ignored(self, small_schema):
        a = make_star_query(small_schema, 5, label="first")
        b = make_star_query(small_schema, 5, label="second")
        assert a.label != b.label
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_relation_listing_order_is_canonicalized(self, small_schema):
        """The same star written down in a different relation order aliases."""
        hub = small_schema.largest_relation().name
        spokes = [n for n in small_schema.relation_names if n != hub][:4]
        from repro.query import star_joins

        joins = star_joins(small_schema, hub, spokes)
        a = Query(small_schema, JoinGraph([hub, *spokes], joins))
        b = Query(
            small_schema, JoinGraph([*reversed(spokes), hub], joins)
        )
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_join_endpoint_order_is_canonicalized(self, small_schema):
        names = list(small_schema.relation_names[:3])
        from repro.query import chain_joins

        joins = chain_joins(small_schema, names)
        flipped = [(r, rc, l, lc) for (l, lc, r, rc) in joins]
        a = Query(small_schema, JoinGraph(names, joins))
        b = Query(small_schema, JoinGraph(names, flipped))
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_implied_transitive_edge_aliases_explicit_one(self, small_schema):
        """A closure-implied predicate and a written-out one fingerprint equal."""
        a, b, c = small_schema.relation_names[:3]
        ca = small_schema.relation(a).columns[0].name
        cb = small_schema.relation(b).columns[0].name
        cc = small_schema.relation(c).columns[0].name
        chain = [(a, ca, b, cb), (b, cb, c, cc)]
        explicit = chain + [(a, ca, c, cc)]
        qa = Query(small_schema, JoinGraph([a, b, c], chain))
        qb = Query(small_schema, JoinGraph([a, b, c], explicit))
        assert query_fingerprint(qa) == query_fingerprint(qb)

    def test_different_topologies_differ(self, small_schema):
        star = make_star_query(small_schema, 5)
        chain = make_chain_query(small_schema, 5)
        assert query_fingerprint(star) != query_fingerprint(chain)

    def test_order_by_is_significant(self, small_schema):
        plain = make_star_query(small_schema, 4)
        rel = plain.graph.relation_names[0]
        pred = plain.graph.predicates[0]
        column = pred.left_column if plain.graph.relation_names[pred.left] == rel else pred.right_column
        ordered = Query(
            small_schema, plain.graph, order_by=(rel, column)
        )
        assert query_fingerprint(plain) != query_fingerprint(ordered)
        assert fingerprint_components(ordered)[-1] == f"{rel}.{column}"

    def test_components_are_name_based(self, small_schema):
        components = fingerprint_components(make_star_query(small_schema, 4))
        assert components[0] == small_schema.name
        assert components[1] == tuple(sorted(components[1]))


class TestFingerprintSelections:
    """Selections are significant, but constants are bucketed."""

    def _selected(self, small_schema, op, value):
        from repro.query import Selection

        base = make_star_query(small_schema, 4)
        rel = base.graph.relation_names[0]
        column = small_schema.relation(rel).columns[0].name
        return Query(
            small_schema,
            base.graph,
            selections=(Selection(rel, column, op, value),),
        )

    def test_selections_are_significant(self, small_schema):
        plain = make_star_query(small_schema, 4)
        selected = self._selected(small_schema, "<", 10.0)
        assert query_fingerprint(plain) != query_fingerprint(selected)

    def test_selection_op_is_significant(self, small_schema):
        lt = self._selected(small_schema, "<", 10.0)
        ge = self._selected(small_schema, ">=", 10.0)
        assert query_fingerprint(lt) != query_fingerprint(ge)

    def test_equality_constants_collapse(self, small_schema):
        a = self._selected(small_schema, "=", 1.0)
        b = self._selected(small_schema, "=", 999.0)
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_range_constants_bucket(self, small_schema):
        base = make_star_query(small_schema, 4)
        rel = base.graph.relation_names[0]
        column = small_schema.relation(rel).columns[0]
        domain = column.domain_size
        # Same 1/16th-of-domain bucket: aliases. Opposite end: differs.
        near = self._selected(small_schema, "<", domain / 32)
        nearer = self._selected(small_schema, "<", domain / 33)
        far = self._selected(small_schema, "<", domain / 2)
        assert query_fingerprint(near) == query_fingerprint(nearer)
        assert query_fingerprint(near) != query_fingerprint(far)

    def test_selections_precede_order_by_component(self, small_schema):
        from repro.query import Selection
        from repro.service.fingerprint import selection_bucket

        base = make_star_query(small_schema, 4)
        rel = base.graph.relation_names[0]
        pred = base.graph.predicates[0]
        order_rel = base.graph.relation_names[pred.left]
        column = small_schema.relation(rel).columns[0].name
        query = Query(
            small_schema,
            base.graph,
            selections=(Selection(rel, column, "<", 10.0),),
            order_by=(order_rel, pred.left_column),
        )
        components = fingerprint_components(query)
        # ORDER BY stays the last component; selections ride just before.
        assert components[-1] == f"{order_rel}.{pred.left_column}"
        bucket = selection_bucket(query, query.selections[0])
        assert components[-2] == ((f"{rel}.{column}", "<", bucket),)


# ---------------------------------------------------------------------------
# PlanCache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_capacity_must_be_positive(self):
        # NaN compared false against the length, so nothing was evicted;
        # "8" raised a bare TypeError.
        for capacity in (0, -1, float("nan"), 1.5, 8.0, "8", True, None):
            with pytest.raises(ServiceError, match="capacity"):
                PlanCache(capacity)
            with pytest.raises(ServiceError, match="capacity"):
                OptimizationService(technique="GOO", cache_capacity=capacity)

    def test_hit_miss_counters(self):
        cache = PlanCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_probe_counts_a_hit_but_not_a_miss(self):
        cache = PlanCache(2)
        assert cache.probe("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.probe("a") == 1
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)
        cache.put("c", 3)  # the probe made "a" MRU, so "b" is next out
        assert "b" not in cache and "a" in cache

    def test_lru_eviction_order(self):
        cache = PlanCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "a" becomes MRU, so "b" is next out
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_invalidate_drops_everything(self):
        cache = PlanCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 2


# ---------------------------------------------------------------------------
# OptimizationService
# ---------------------------------------------------------------------------


class TestOptimizationService:
    def test_warm_hit_returns_same_plan(self, small_schema, small_stats):
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        query = make_star_query(small_schema, 6)
        cold = service.optimize(query)
        warm = service.optimize(query)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.cost == cold.cost
        assert warm.rows == cold.rows
        assert warm.plans_costed == cold.plans_costed
        assert repr(warm.plan) == repr(cold.plan)
        assert warm.fingerprint == cold.fingerprint == query_fingerprint(query)
        assert service.cache_stats.hits == 1

    def test_equivalent_query_hits(self, small_schema, small_stats):
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        service.optimize(make_star_query(small_schema, 6, label="one"))
        again = service.optimize(make_star_query(small_schema, 6, label="two"))
        assert again.cache_hit

    def test_analyze_bumps_epoch_and_invalidates(self, small_schema):
        service = OptimizationService(technique="SDP")
        assert service.stats_epoch == 0
        query = make_star_query(small_schema, 5)
        first = service.optimize(query)  # auto-analyzes -> epoch 1
        assert service.stats_epoch == 1 and first.stats_epoch == 1
        service.analyze(small_schema)
        assert service.stats_epoch == 2
        assert len(service.cache) == 0
        re_optimized = service.optimize(query)
        assert not re_optimized.cache_hit
        assert re_optimized.stats_epoch == 2
        assert service.cache_stats.invalidations == 1

    def test_passing_new_snapshot_invalidates(self, small_schema, small_stats):
        from repro.catalog import analyze

        service = OptimizationService(technique="SDP")
        query = make_star_query(small_schema, 5)
        service.optimize(query, stats=small_stats)
        # Same snapshot object again: cache survives.
        assert service.optimize(query, stats=small_stats).cache_hit
        # A different snapshot object is a statistics refresh.
        fresh = analyze(small_schema)
        assert not service.optimize(query, stats=fresh).cache_hit
        assert service.stats_epoch == 2

    def test_lru_eviction_in_service(self, small_schema, small_stats):
        service = OptimizationService(technique="GOO", cache_capacity=2)
        service.install_statistics(small_stats)
        queries = [make_star_query(small_schema, n) for n in (3, 4, 5)]
        for query in queries:
            service.optimize(query)
        assert len(service.cache) == 2
        assert service.cache_stats.evictions == 1
        assert not service.optimize(queries[0]).cache_hit  # evicted
        assert service.optimize(queries[2]).cache_hit  # still resident

    def test_budget_trips_are_not_cached(self, small_schema, small_stats):
        service = OptimizationService(
            technique="DP", budget=SearchBudget(max_plans_costed=10)
        )
        service.install_statistics(small_stats)
        query = make_star_query(small_schema, 6)
        for _ in range(2):
            with pytest.raises(OptimizationBudgetExceeded):
                service.optimize(query)
        assert len(service.cache) == 0


class TestServiceSql:
    """SQL text through the service: parse target, provenance, caching."""

    def _sql(self, schema, constant=100_000):
        names = schema.relation_names
        return (
            f"SELECT * FROM {names[0]}, {names[1]} "
            f"WHERE {names[0]}.c1 = {names[1]}.c2 "
            f"AND {names[0]}.c1 < {constant}"
        )

    def test_sql_matches_query_path(self, small_schema):
        from repro.query import parse_sql

        service = OptimizationService(technique="SDP")
        service.analyze(small_schema)
        sql = self._sql(small_schema)
        from_sql = service.optimize(sql)
        service.cache.invalidate()
        from_query = service.optimize(parse_sql(small_schema, sql))
        assert from_sql.cost == from_query.cost
        assert from_sql.plans_costed == from_query.plans_costed
        assert repr(from_sql.plan) == repr(from_query.plan)

    def test_sql_provenance_attached(self, small_schema):
        service = OptimizationService(technique="SDP")
        service.analyze(small_schema)
        sql = self._sql(small_schema)
        cold = service.optimize(sql)
        assert cold.sql == sql
        assert cold.query is not None
        assert cold.query.selections
        assert cold.tree() is not None  # no query argument needed
        warm = service.optimize(sql)
        assert warm.cache_hit and warm.sql == sql and warm.query is not None

    def test_constants_in_same_bucket_hit_warm_cache(self, small_schema):
        names = small_schema.relation_names
        domain = small_schema.relation(names[0]).columns[0].domain_size
        service = OptimizationService(technique="SDP")
        service.analyze(small_schema)
        cold = service.optimize(self._sql(small_schema, domain // 32))
        warm = service.optimize(self._sql(small_schema, domain // 32 + 1))
        assert not cold.cache_hit and warm.cache_hit
        # The hit still reports its own submission, not the cached one's.
        assert warm.sql != cold.sql
        assert warm.query.selections[0].value != cold.query.selections[0].value

    def test_lookup_answers_hits_only(self, small_schema):
        from repro.query import parse_sql

        service = OptimizationService(technique="SDP")
        # No statistics yet: a lookup installs none and finds nothing.
        assert service.lookup(make_star_query(small_schema, 4)) is None
        assert service.stats_epoch == 0
        service.analyze(small_schema)
        sql = self._sql(small_schema)
        # A miss neither searches nor counts: the optimize() after it does.
        assert service.lookup(sql) is None
        assert service.cache_stats.lookups == 0 and len(service.cache) == 0
        cold = service.optimize(sql)
        # Both entries serve a hit the same way.
        for warm in (service.lookup(sql), service.optimize(sql)):
            assert warm.cache_hit
            assert warm.sql == sql and warm.query is cold.query
            assert warm.plan == cold.plan
            assert (warm.cost, warm.plans_costed) == (cold.cost, cold.plans_costed)
            assert (warm.fingerprint, warm.stats_epoch) == (
                cold.fingerprint, cold.stats_epoch,
            )
        query = parse_sql(small_schema, sql)
        by_query = service.lookup(query)
        assert by_query.query is query and by_query.sql is None
        assert (service.cache_stats.hits, service.cache_stats.misses) == (3, 1)

    def test_sql_without_schema_rejected(self, small_schema, small_stats):
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)  # stats, but no schema
        with pytest.raises(ServiceError, match="schema"):
            service.optimize(self._sql(small_schema))

    def test_explicit_schema_kwarg_parses_text(self, small_schema, small_stats):
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        result = service.optimize(self._sql(small_schema), schema=small_schema)
        assert result.cost > 0

    def test_schema_kwarg_with_query_rejected(self, small_schema, small_stats):
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        query = make_star_query(small_schema, 4)
        with pytest.raises(ServiceError, match="SQL text"):
            service.optimize(query, schema=small_schema)

    @pytest.mark.parametrize("bad", [123, None])
    def test_wrong_type_query_rejected(self, bad, small_stats):
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        with pytest.raises(ServiceError, match="Query or SQL text"):
            service.optimize(bad)
        with pytest.raises(ServiceError, match="Query or SQL text"):
            service.lookup(bad)
        with pytest.raises(ServiceError, match="text"):
            service.parse(bad)
        assert service.cache_stats.misses == 0

    def test_wrong_type_technique_rejected(self):
        with pytest.raises(OptimizationError, match="technique must be"):
            OptimizationService(technique=None)


class TestTextMemo:
    """``OptimizationService.parse``: SQL text -> (Query, fingerprint)."""

    def _star_sql(self, schema, size):
        from repro.query import render_sql

        return render_sql(make_star_query(schema, size))

    def test_parse_returns_query_and_fingerprint(self, small_schema, parse_calls):
        service = OptimizationService(technique="SDP")
        service.analyze(small_schema)
        sql = self._star_sql(small_schema, 4)
        query, fingerprint = service.parse(sql)
        assert query.schema is small_schema
        assert fingerprint == query_fingerprint(query)
        assert service.parse(sql) == (query, fingerprint)
        assert parse_calls == [sql]

    def test_statistics_installs_keep_the_memo(self, small_schema, parse_calls):
        service = OptimizationService(technique="SDP")
        service.analyze(small_schema)
        sql = self._star_sql(small_schema, 4)
        cold = service.optimize(sql)
        service.install_statistics(analyze(small_schema))
        service.analyze(small_schema)  # same schema: a statistics refresh
        again = service.optimize(sql)
        assert not again.cache_hit and again.stats_epoch == 3
        assert again.query is cold.query
        assert parse_calls == [sql]

    def test_other_schema_never_gets_another_schemas_parse(
        self, small_schema, parse_calls
    ):
        from repro.catalog import SchemaBuilder

        other = SchemaBuilder(
            seed=2, relation_count=10, column_count=8,
            max_cardinality=50_000, max_domain=50_000, name="small-10-b",
        ).build()
        assert other.relation_names == small_schema.relation_names
        service = OptimizationService(technique="SDP")
        service.analyze(small_schema)
        sql = self._star_sql(small_schema, 3)
        mine, _ = service.parse(sql)
        # An explicit other schema bypasses the memo both ways.
        explicit = service.optimize(sql, schema=other)
        assert explicit.query.schema is other
        assert service.parse(sql)[0] is mine
        # The retained schema passed explicitly is the memo's own.
        assert service.optimize(sql, schema=small_schema).query is mine
        assert parse_calls == [sql, sql]
        # analyze() of another schema drops every memoized parse.
        service.analyze(other)
        theirs, _ = service.parse(sql)
        assert theirs.schema is other and theirs is not mine
        assert parse_calls == [sql, sql, sql]

    def test_distinct_texts_evict_lru_first(self, small_schema, parse_calls):
        import repro
        from repro.query import parse_sql

        service = OptimizationService(technique="SDP", cache_capacity=2)
        service.analyze(small_schema)
        texts = [self._star_sql(small_schema, size) for size in (3, 4, 5)]
        requests = [*texts, texts[2], texts[1], texts[0], texts[2]]
        expected_parses = [*texts, texts[0], texts[2]]
        for sql in requests:
            served = service.optimize(sql)
            direct = repro.optimize(
                parse_sql(small_schema, sql),
                stats=service.statistics,
                technique="SDP",
            )
            assert served.cost == direct.cost
            assert served.plans_costed == direct.plans_costed
            assert repr(served.plan) == repr(direct.plan)
        assert parse_calls == expected_parses


def _reachable_dicts(root) -> dict[int, dict]:
    """Every dict reachable from ``root`` (not through classes or code)."""
    import gc
    import types

    opaque = (type, types.ModuleType, types.FunctionType, types.MethodType,
              types.BuiltinFunctionType, types.CodeType)
    seen: set[int] = set()
    found: dict[int, dict] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return found


class TestResultsHoldNoSearchState:
    """A result keeps its plan and query, never its search's memos."""

    @pytest.fixture
    def spaces(self, monkeypatch):
        from repro.core.planspace import PlanSpace

        created = []
        init = PlanSpace.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(PlanSpace, "__init__", recording_init)
        return created

    def _assert_no_grown_dict(self, result, before, spaces):
        search_dicts = {
            key
            for space in spaces
            for key in _reachable_dicts(space)
            if key not in before
        }
        assert search_dicts
        for key, value in _reachable_dicts(result).items():
            assert key not in search_dicts
            if key in before:
                assert len(value) == before[key]

    @pytest.mark.parametrize("technique", ["DP", "SDP", "II"])
    def test_optimizer_result(self, small_schema, small_stats, spaces, technique):
        import repro

        query = make_star_query(small_schema, 7)
        before = {k: len(v) for k, v in _reachable_dicts(query).items()}
        result = repro.optimize(query, stats=small_stats, technique=technique)
        assert result.query is query and spaces
        self._assert_no_grown_dict(result, before, spaces)

    def test_cached_service_result(self, small_schema, spaces):
        from repro.query import render_sql

        service = OptimizationService(technique="SDP")
        service.analyze(small_schema)
        sql = render_sql(make_star_query(small_schema, 7))
        query, fingerprint = service.parse(sql)
        before = {k: len(v) for k, v in _reachable_dicts(query).items()}
        served = service.optimize(sql)
        cached = service.cache.get((fingerprint, service.stats_epoch))
        assert cached is not None and cached.query is query and spaces
        self._assert_no_grown_dict(served, before, spaces)
        self._assert_no_grown_dict(cached, before, spaces)


# ---------------------------------------------------------------------------
# optimize_many / parallel grids
# ---------------------------------------------------------------------------


def _grid_key(item: BatchItem):
    if item.result is None:
        return (item.query_index, item.technique, item.label, None)
    return (
        item.query_index,
        item.technique,
        item.label,
        item.result.cost,
        item.result.rows,
        item.result.plans_costed,
        repr(item.result.plan),
    )


class TestOptimizeMany:
    def test_rejects_empty_inputs(self, small_schema, small_stats):
        query = make_star_query(small_schema, 4)
        with pytest.raises(ServiceError):
            optimize_many([], ["SDP"], stats=small_stats)
        with pytest.raises(ServiceError):
            optimize_many([query], [], stats=small_stats)

    def test_parallel_matches_serial_elementwise(self, small_schema, small_stats):
        queries = [make_star_query(small_schema, n) for n in (4, 5, 6)]
        techniques = ["SDP", "GOO"]
        serial = optimize_many(
            queries, techniques, stats=small_stats, workers=1
        )
        parallel = optimize_many(
            queries, techniques, stats=small_stats, workers=2
        )
        assert [[_grid_key(i) for i in row] for row in serial] == [
            [_grid_key(i) for i in row] for row in parallel
        ]

    def test_budget_trips_become_error_cells(self, small_schema, small_stats):
        # On star-7, GOO costs 55 plans and DP 1357: a 100-plan cap trips
        # DP only.
        queries = [make_star_query(small_schema, 7)]
        tight = SearchBudget(max_plans_costed=100)
        for workers in (1, 2):
            grid = optimize_many(
                queries,
                ["DP", "GOO"],
                stats=small_stats,
                budget=tight,
                workers=workers,
            )
            dp, goo = grid[0]
            assert not dp.feasible
            assert isinstance(dp.error, OptimizationBudgetExceeded)
            assert dp.error.resource == "costing"
            assert goo.feasible

    def test_robust_mode_degrades_instead_of_erroring(
        self, small_schema, small_stats
    ):
        grid = optimize_many(
            [make_star_query(small_schema, 7)],
            ["DP"],
            stats=small_stats,
            budget=SearchBudget(max_plans_costed=200),
            workers=2,
            robust=True,
        )
        item = grid[0][0]
        assert item.feasible  # the ladder answered with a cheaper rung
        assert item.result.degraded

    def test_budget_error_survives_pickling(self):
        error = OptimizationBudgetExceeded("costing", 10, 11)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.resource == "costing"
        assert clone.limit == 10 and clone.used == 11
        assert str(clone) == str(error)

    def test_grid_execution_plan_reasons(self, monkeypatch):
        assert execution_plan(4, 2) == ("serial", 1, "grid_too_small")
        assert execution_plan(1, 16) == ("serial", 1, "workers_requested")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert execution_plan(None, 16) == ("serial", 1, "cpu_count")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert execution_plan(None, 16) == ("pool", 8, None)
        assert execution_plan(4, 16) == ("pool", 4, None)

    def test_dead_worker_does_not_break_later_batches(
        self, small_schema, small_stats
    ):
        queries = [make_star_query(small_schema, n) for n in (4, 5, 6)]
        techniques = ["SDP", "GOO"]
        if execution_plan(2, len(queries) * len(techniques))[0] != "pool":
            pytest.skip("needs at least 2 CPUs for a pool batch")
        try:
            optimize_many(queries, techniques, stats=small_stats, workers=2)
            # Kill one worker the way an OOM kill or a segfault would.
            with pytest.raises(BrokenProcessPool):
                parallel._get_pool(2).submit(os._exit, 1).result()
            serial = optimize_many(
                queries, techniques, stats=small_stats, workers=1
            )
            pooled = optimize_many(
                queries, techniques, stats=small_stats, workers=2
            )
            assert [[_grid_key(i) for i in row] for row in pooled] == [
                [_grid_key(i) for i in row] for row in serial
            ]
        finally:
            parallel.shutdown_pool()

    def test_worker_death_mid_batch_is_typed_and_drops_pool(
        self, small_schema, small_stats, monkeypatch
    ):
        class DeadPool:
            shut_down = False

            def submit(self, fn, *args):
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, wait=True):
                self.shut_down = True

        dead = DeadPool()
        monkeypatch.setattr(parallel, "_POOL", dead)
        monkeypatch.setattr(parallel, "_get_pool", lambda workers: dead)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        queries = [make_star_query(small_schema, n) for n in (4, 5)]
        with pytest.raises(ServiceError) as info:
            optimize_many(queries, ["SDP", "GOO"], stats=small_stats, workers=2)
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert dead.shut_down and parallel._POOL is None


class TestParallelComparison:
    def _outcome_key(self, result):
        return {
            name: (
                o.ratios,
                o.plans_costed,
                o.memory_mb,
                o.infeasible_count,
                o.skipped,
                o.fallback_events,
                o.fallback_winners,
            )
            for name, o in result.outcomes.items()
        }

    def test_workers_preserve_outcomes(self, small_schema, small_stats):
        spec = WorkloadSpec("star", 5)
        serial = run_comparison(
            spec, small_schema, ["SDP", "GOO"], 3, stats=small_stats
        )
        parallel = run_comparison(
            spec, small_schema, ["SDP", "GOO"], 3, stats=small_stats, workers=2
        )
        assert serial.reference == parallel.reference
        assert self._outcome_key(serial) == self._outcome_key(parallel)

    def test_workers_preserve_skip_bookkeeping(self, small_schema, small_stats):
        # 600-plan cap: DP (1357 plans on star-7) trips, SDP (454) and
        # GOO (55) stay feasible.
        spec = WorkloadSpec("star", 7)
        tight = SearchBudget(max_plans_costed=600)
        kwargs = dict(
            stats=small_stats,
            budget=tight,
            reference_candidates=("SDP", "GOO"),
            instances=3,
        )
        serial = run_comparison(
            spec, small_schema, ["DP", "SDP", "GOO"], **kwargs
        )
        parallel = run_comparison(
            spec, small_schema, ["DP", "SDP", "GOO"], workers=2, **kwargs
        )
        assert serial.outcomes["DP"].skipped  # DP trips its tight budget
        assert self._outcome_key(serial) == self._outcome_key(parallel)

    def test_workers_preserve_robust_mode(self, small_schema, small_stats):
        spec = WorkloadSpec("star", 7)
        kwargs = dict(
            stats=small_stats,
            budget=SearchBudget(max_plans_costed=600),
            robust=True,
            instances=2,
        )
        serial = run_comparison(spec, small_schema, ["DP", "GOO"], **kwargs)
        parallel = run_comparison(
            spec, small_schema, ["DP", "GOO"], workers=2, **kwargs
        )
        assert serial.outcomes["DP"].fallback_events > 0
        assert self._outcome_key(serial) == self._outcome_key(parallel)


# ---------------------------------------------------------------------------
# Concurrency: cache counters, single-flight, atomic epoch swaps
# ---------------------------------------------------------------------------


def _run_threads(workers):
    threads = [threading.Thread(target=fn) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)


class TestPlanCacheConcurrency:
    def test_counters_are_exact_under_threads(self):
        cache = PlanCache(64)
        for key in range(32):
            cache.put(key, key)
        gets_per_thread = 200

        def reader(offset):
            for index in range(gets_per_thread):
                # Even indices hit the pre-populated keys, odd ones miss.
                if index % 2 == 0:
                    assert cache.get((offset + index) % 32) is not None
                else:
                    assert cache.get(("absent", offset, index)) is None

        _run_threads([lambda i=i: reader(i) for i in range(8)])
        total = 8 * gets_per_thread
        assert cache.stats.hits == total // 2
        assert cache.stats.misses == total // 2

    def test_capacity_is_never_exceeded_under_threads(self):
        cache = PlanCache(16)

        def writer(offset):
            for index in range(200):
                cache.put((offset, index), index)
                cache.get((offset, max(0, index - 1)))

        _run_threads([lambda i=i: writer(i) for i in range(8)])
        assert len(cache) <= 16
        assert cache.stats.evictions == 8 * 200 - len(cache)


class TestSingleFlight:
    def _slow_service(self, small_stats, delay_seconds):
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        optimizer = service.optimizer
        real = optimizer.optimize
        calls = []

        def slow(query, stats=None, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(delay_seconds)
            return real(query, stats, **kwargs)

        optimizer.optimize = slow
        return service, calls

    def test_miss_storm_coalesces_to_one_search(self, small_schema, small_stats):
        service, calls = self._slow_service(small_stats, delay_seconds=0.3)
        query = make_star_query(small_schema, 5)
        barrier = threading.Barrier(8)
        results = {}

        def request(index):
            barrier.wait(timeout=10.0)
            results[index] = service.optimize(query)

        _run_threads([lambda i=i: request(i) for i in range(8)])
        assert len(calls) == 1  # one leader searched; followers waited
        plans = {repr(result.plan) for result in results.values()}
        assert len(plans) == 1
        assert sum(1 for r in results.values() if not r.cache_hit) == 1
        assert sum(1 for r in results.values() if r.cache_hit) == 7

    def test_follower_timeout_falls_back_to_own_search(
        self, small_schema, small_stats, monkeypatch
    ):
        from repro.service import service as service_module

        monkeypatch.setattr(service_module, "INFLIGHT_WAIT_SECONDS", 0.05)
        service, calls = self._slow_service(small_stats, delay_seconds=0.5)
        query = make_star_query(small_schema, 5)
        results = {}

        def request(index):
            results[index] = service.optimize(query)

        leader = threading.Thread(target=lambda: request(0))
        leader.start()
        for _ in range(200):  # wait until the leader holds the flight
            if calls:
                break
            time.sleep(0.005)
        follower = threading.Thread(target=lambda: request(1))
        follower.start()
        leader.join(timeout=30.0)
        follower.join(timeout=30.0)

        # The follower gave up waiting and computed independently: two
        # searches, identical answers, neither served from cache.
        assert len(calls) == 2
        assert repr(results[0].plan) == repr(results[1].plan)
        assert not results[0].cache_hit and not results[1].cache_hit

    def test_override_path_is_not_single_flighted(
        self, small_schema, small_stats
    ):
        service, calls = self._slow_service(small_stats, delay_seconds=0.0)
        query = make_star_query(small_schema, 5)
        from repro.core.registry import make_optimizer

        override_results = [
            service.optimize(query, optimizer=make_optimizer("GOO"))
            for _ in range(2)
        ]
        # The override never touched the shared optimizer or the cache.
        assert calls == []
        assert all(not r.cache_hit for r in override_results)
        assert len(service.cache) == 0

    def test_follower_counts_one_lookup(self, small_schema, small_stats):
        service = OptimizationService(technique="SDP")
        service.install_statistics(small_stats)
        leading, release = threading.Event(), threading.Event()
        real = service.optimizer.optimize

        def gated(query, stats=None):
            leading.set()
            assert release.wait(timeout=10.0), "test gate never released"
            return real(query, stats)

        service.optimizer.optimize = gated
        following = threading.Event()
        real_claim = service._claim

        def claim(key):
            leader, event = real_claim(key)
            if not leader:
                following.set()
            return leader, event

        service._claim = claim
        query = make_star_query(small_schema, 5)
        results = {}
        leader = threading.Thread(target=lambda: results.update(lead=service.optimize(query)))
        leader.start()
        assert leading.wait(timeout=10.0)
        follower = threading.Thread(target=lambda: results.update(follow=service.optimize(query)))
        follower.start()
        assert following.wait(timeout=10.0)
        release.set()
        leader.join(timeout=30.0)
        follower.join(timeout=30.0)
        assert not leader.is_alive() and not follower.is_alive()

        assert results["follow"].cache_hit and not results["lead"].cache_hit
        # Two requests, two lookups: the follower counts the miss it met,
        # not the read of its leader's plan.
        stats = service.cache_stats
        assert (stats.hits, stats.misses, stats.lookups) == (0, 2, 2)


class TestConcurrentEpochSwap:
    def test_optimize_never_mixes_epochs(self, small_schema):
        service = OptimizationService(technique="SDP")
        service.analyze(small_schema)
        first_epoch = service.stats_epoch
        query = make_star_query(small_schema, 5)
        results = []
        results_lock = threading.Lock()
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                service.install_statistics(analyze(small_schema))
                time.sleep(0.01)

        def request():
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                result = service.optimize(query)
                with results_lock:
                    results.append(result)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            _run_threads([request for _ in range(4)])
        finally:
            stop.set()
            churner.join(timeout=10.0)

        assert results
        final_epoch = service.stats_epoch
        costs = set()
        for result in results:
            assert result.plan is not None
            assert first_epoch <= result.stats_epoch <= final_epoch
            costs.add(result.cost)
        # analyze() of the same schema yields the same statistics, so the
        # answer is epoch-independent even while epochs churn.
        assert len(costs) == 1
