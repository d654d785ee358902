"""Tests for repro.cost: model, selectivity, cardinality, scans, sorts, joins."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.catalog.statistics import ColumnStats, TableStats
from repro.core.sdp import SDPOptimizer
from repro.cost import (
    DEFAULT_COST_MODEL,
    CardinalityEstimator,
    CostModel,
    eclass_selectivity,
    hash_join_cost,
    index_lookup_cost,
    index_nestloop_cost,
    index_scan_full_cost,
    merge_join_cost,
    nestloop_cost,
    predicate_selectivity,
    seq_scan_cost,
    sort_cost,
)
from repro.cost.selectivity import selection_selectivity
from repro.errors import CatalogError
from repro.query import JoinGraph, Selection, star_joins

CM = DEFAULT_COST_MODEL


def col(n_distinct=100, mcf=0.01, index=False, domain=100):
    return ColumnStats(
        name="c",
        n_distinct=n_distinct,
        most_common_frac=mcf,
        width=4,
        has_index=index,
        domain_size=domain,
    )


def table(rows=10_000, pages=100):
    return TableStats(
        name="T",
        row_count=rows,
        page_count=pages,
        row_width=64,
        columns={"c": col()},
    )


class TestCostModel:
    def test_defaults_positive(self):
        assert CM.seq_page_cost > 0
        assert CM.random_page_cost >= CM.seq_page_cost

    def test_validation(self):
        with pytest.raises(CatalogError):
            CostModel(seq_page_cost=-1)
        with pytest.raises(CatalogError):
            CostModel(work_mem_bytes=0)
        with pytest.raises(CatalogError):
            CostModel(rescan_discount=2.0)
        # NaN and +-inf pass every sign and range comparison, so each
        # field is checked for finiteness and named in the error.
        for field in (
            "cpu_tuple_cost",
            "seq_page_cost",
            "cpu_operator_cost",
            "work_mem_bytes",
            "page_size",
        ):
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(CatalogError, match=field):
                    CostModel(**{field: bad})

    def test_removed_options_are_rejected(self):
        # One costing regime: the model is nine numeric constants with no
        # regime switch, the package exports one model, and SDP's pruning
        # is observed through its sdp.prune spans (no callback argument).
        assert [field.name for field in fields(CostModel)] == [
            "seq_page_cost",
            "random_page_cost",
            "cpu_tuple_cost",
            "cpu_index_tuple_cost",
            "cpu_operator_cost",
            "work_mem_bytes",
            "rescan_discount",
            "index_cache_factor",
            "page_size",
        ]
        assert [
            name for name in repro.__all__ if name.endswith("COST_MODEL")
        ] == ["DEFAULT_COST_MODEL"]
        with pytest.raises(TypeError):
            SDPOptimizer(trace=print)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CM.seq_page_cost = 2.0  # type: ignore[misc]


class TestSelectivity:
    def test_pair_is_one_over_max(self):
        assert predicate_selectivity(col(100), col(1000)) == pytest.approx(1e-3)

    def test_skew_floor(self):
        skewed = predicate_selectivity(
            col(100, mcf=0.5), col(1000, mcf=0.5)
        )
        assert skewed == pytest.approx(0.25)

    def test_needs_two_members(self):
        with pytest.raises(CatalogError):
            eclass_selectivity([col()])

    def test_multiway_divides_by_t_minus_1_largest(self):
        sel = eclass_selectivity([col(10, mcf=1e-9), col(100, mcf=1e-9), col(1000, mcf=1e-9)])
        assert sel == pytest.approx(1.0 / (100 * 1000))

    @given(
        st.lists(
            st.integers(min_value=1, max_value=10**7), min_size=2, max_size=6
        )
    )
    def test_bounds(self, distincts):
        sel = eclass_selectivity([col(d, mcf=1.0 / d) for d in distincts])
        assert 0.0 < sel <= 1.0

    def test_monotone_in_distinct_count(self):
        low = predicate_selectivity(col(10, 1e-9), col(10, 1e-9))
        high = predicate_selectivity(col(10, 1e-9), col(1000, 1e-9))
        assert high < low


class TestScanCosts:
    def test_seq_scan_formula(self):
        t = table(rows=1000, pages=10)
        assert seq_scan_cost(t, CM) == pytest.approx(
            10 * CM.seq_page_cost + 1000 * CM.cpu_tuple_cost
        )

    def test_index_scan_costlier_than_seq(self):
        t = table(rows=100_000, pages=1000)
        assert index_scan_full_cost(t, CM) > seq_scan_cost(t, CM)

    def test_index_lookup_grows_with_matches(self):
        t = table()
        cheap = index_lookup_cost(t, col(index=True), 1, CM)
        costly = index_lookup_cost(t, col(index=True), 1000, CM)
        assert costly > cheap > 0


class TestSortCost:
    def test_zero_rows_free(self):
        assert sort_cost(0, 8, CM) == 0.0

    def test_superlinear(self):
        small = sort_cost(1000, 8, CM)
        big = sort_cost(100_000, 8, CM)
        assert big > 100 * small * 0.5  # at least ~n log n growth

    def test_spill_penalty(self):
        in_mem = sort_cost(1000, 8, CM)
        spill_rows = CM.work_mem_bytes  # rows * width 8 > work_mem
        spilled = sort_cost(spill_rows, 8, CM)
        no_spill_model = CostModel(work_mem_bytes=2**40)
        unspilled = sort_cost(spill_rows, 8, no_spill_model)
        assert spilled > unspilled > in_mem


class TestJoinCosts:
    def test_all_methods_cover_input_costs(self):
        args = dict(out_rows=500.0, cm=CM)
        nl = nestloop_cost(100, 50.0, 200, 80.0, **args)
        hj = hash_join_cost(100, 50.0, 200, 80.0, 64, **args)
        mj = merge_join_cost(100, 50.0, 200, 80.0, **args)
        for cost in (nl, hj, mj):
            assert cost >= 130.0

    def test_nestloop_quadratic_term(self):
        small = nestloop_cost(10, 0, 10, 0, 1, CM)
        big = nestloop_cost(1000, 0, 1000, 0, 1, CM)
        assert big > 1000 * small * 0.1

    def test_hash_join_linear_ish(self):
        base = hash_join_cost(1000, 0, 1000, 0, 8, 1, CM)
        bigger = hash_join_cost(10_000, 0, 10_000, 0, 8, 1, CM)
        assert bigger < base * 100  # far from quadratic

    def test_hash_spill_penalty(self):
        rows = CM.work_mem_bytes  # build side overflows work_mem at width 8
        spilled = hash_join_cost(10, 0, rows, 0, 8, 1, CM)
        fits = hash_join_cost(
            10, 0, rows, 0, 8, 1, CostModel(work_mem_bytes=2**40)
        )
        assert spilled > fits

    def test_index_nestloop_uses_probe_cost(self):
        cheap = index_nestloop_cost(100, 0, probe_cost=1.0, out_rows=10, cm=CM)
        costly = index_nestloop_cost(100, 0, probe_cost=50.0, out_rows=10, cm=CM)
        assert costly > cheap


class TestCardinalityEstimator:
    def _graph_and_stats(self, small_schema, small_stats, n=4):
        names = list(small_schema.relation_names[:n])
        joins = [
            (names[i], "c1", names[i + 1], "c2") for i in range(n - 1)
        ]
        return JoinGraph(names, joins), small_stats

    def test_single_relation_rows(self, small_schema, small_stats):
        graph, stats = self._graph_and_stats(small_schema, small_stats)
        est = CardinalityEstimator(graph, stats)
        expected = stats.table(graph.relation_names[0]).row_count
        assert est.rows(1) == pytest.approx(expected)

    def test_rows_at_least_one(self, small_schema, small_stats):
        graph, stats = self._graph_and_stats(small_schema, small_stats)
        est = CardinalityEstimator(graph, stats)
        assert est.rows(graph.all_mask) >= 1.0

    def test_join_reduces_vs_cartesian(self, small_schema, small_stats):
        graph, stats = self._graph_and_stats(small_schema, small_stats)
        est = CardinalityEstimator(graph, stats)
        pair = 0b11
        cartesian = est.rows(1) * est.rows(2)
        assert est.rows(pair) <= cartesian

    def test_log_selectivity_nonpositive(self, small_schema, small_stats):
        graph, stats = self._graph_and_stats(small_schema, small_stats)
        est = CardinalityEstimator(graph, stats)
        assert est.estimate(0b111)[1] <= 1e-9

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    def test_search_estimates_each_new_jcr_once(
        self, schema, stats, kernel, monkeypatch
    ):
        """An SDP search calls estimate() once per relation set it builds,
        under either kernel, and fills no per-mask rows memo."""
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        hub = schema.largest_relation().name
        spokes = [n for n in schema.relation_names if n != hub][:9]
        graph = JoinGraph([hub, *spokes], star_joins(schema, hub, spokes))
        calls = []
        estimate = CardinalityEstimator.estimate

        def counting_estimate(est, mask):
            calls.append((est, mask))
            return estimate(est, mask)

        monkeypatch.setattr(CardinalityEstimator, "estimate", counting_estimate)
        SDPOptimizer().optimize(repro.Query(schema=schema, graph=graph), stats)
        masks = [mask for _est, mask in calls]
        assert len(masks) == len(set(masks)) == 180
        assert all(not est._rows_cache for est, _mask in calls)

    def test_memoization_consistency(self, small_schema, small_stats):
        graph, stats = self._graph_and_stats(small_schema, small_stats)
        est = CardinalityEstimator(graph, stats)
        assert est.rows(0b1011 & graph.all_mask) == est.rows(0b1011 & graph.all_mask)

    def test_width_additive(self, small_schema, small_stats):
        graph, stats = self._graph_and_stats(small_schema, small_stats)
        est = CardinalityEstimator(graph, stats)
        assert est.width(0b11) == est.width(0b01) + est.width(0b10)

    def test_empty_mask_rejected(self, small_schema, small_stats):
        graph, stats = self._graph_and_stats(small_schema, small_stats)
        est = CardinalityEstimator(graph, stats)
        with pytest.raises(CatalogError):
            est.rows(0)

    def test_shared_column_uses_tminus1_rule(self, small_schema, small_stats):
        names = list(small_schema.relation_names[:3])
        # shared column: A.c1 = B.c1, A.c1 = C.c1 (one eclass, 3 members)
        joins = [
            (names[0], "c1", names[1], "c1"),
            (names[0], "c1", names[2], "c1"),
        ]
        graph = JoinGraph(names, joins)
        est = CardinalityEstimator(graph, small_stats)
        tables = [small_stats.table(n) for n in names]
        ndvs = sorted(
            (t.column("c1").n_distinct for t in tables), reverse=True
        )
        expected_log = (
            sum(math.log(t.row_count) for t in tables)
            - math.log(ndvs[0])
            - math.log(ndvs[1])
        )
        got = math.log(est.rows(graph.all_mask))
        skew_possible = got >= expected_log - 1e-6
        assert skew_possible

    @pytest.mark.parametrize(
        "spoke_count, shared",
        [(7, 1), (6, 3)],
        ids=["star-8", "star-7-shared-hub-column"],
    )
    def test_estimate_is_one_ordered_pass(self, schema, stats, spoke_count, shared):
        """estimate() equals the sums taken over member bits in ascending
        order and eclasses in id order, on every connected set of a star
        with selections, and rows() memoizes its first element.

        The star-7's first three spokes join one hub column: one eclass
        over four relations, with implied spoke-spoke edges, that most
        connected sets cover only in part."""
        hub = schema.largest_relation().name
        spokes = [n for n in schema.relation_names if n != hub][:spoke_count]
        joins = star_joins(schema, hub, spokes)
        hub_column = joins[0][1]
        joins = [
            (hub, hub_column if i < shared else column, spoke, spoke_column)
            for i, (_hub, column, spoke, spoke_column) in enumerate(joins)
        ]
        graph = JoinGraph([hub, *spokes], joins)

        def selection(name, position, op):
            column = schema.relation(name).columns[position]
            return Selection(name, column.name, op, column.domain_size // 3)

        selections = [
            selection(hub, 0, "<"),
            selection(spokes[0], 1, "="),
            selection(spokes[0], 2, ">"),
            selection(spokes[4], 3, "!="),
        ]
        est = CardinalityEstimator(graph, stats, selections=selections)

        log_rows = []
        for name in graph.relation_names:
            table = stats.table(name)
            factor, filtered = 1.0, False
            for s in selections:
                if s.relation == name:
                    column = table.column(s.column)
                    factor *= selection_selectivity(column, s.op, s.value)
                    filtered = True
            log_rows.append(
                math.log(max(1.0, table.row_count * factor))
                if filtered
                else math.log(table.row_count)
            )
        connected = 0
        for mask in range(1, graph.all_mask + 1):
            if not graph.is_connected(mask):
                continue
            connected += 1
            log_product, width = 0.0, 0
            for index, name in enumerate(graph.relation_names):
                if mask >> index & 1:
                    log_product += log_rows[index]
                    width += stats.table(name).row_width
            log_sel = 0.0
            for _eclass, points in sorted(graph.eclasses.items()):
                if len({rel for rel, _ in points if mask >> rel & 1}) < 2:
                    continue
                log_sel += math.log(
                    eclass_selectivity(
                        [
                            stats.table(graph.relation_names[rel]).column(column)
                            for rel, column in points
                            if mask >> rel & 1
                        ]
                    )
                )
            rows = max(1.0, math.exp(log_product + log_sel))
            assert est.estimate(mask) == (rows, math.log(rows) - log_product, width)
            assert est.rows(mask) == rows
            assert est.rows(mask) == est.estimate(mask)[0]
        # The hub with any subset of the spokes, each spoke alone, and each
        # set of two or more shared-column spokes (joined by implied edges).
        assert connected == 2**spoke_count + spoke_count + 2**shared - 1 - shared
