"""Tests for repro.core.planspace (the shared costing engine)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.catalog import analyze
from repro.core.base import SearchBudget, SearchCounters
from repro.core.kernel import KERNEL_ENV
from repro.core.planspace import PlanSpace
from repro.core.registry import make_optimizer
from repro.core.table import JCRTable
from repro.cost.model import DEFAULT_COST_MODEL
from repro.errors import OptimizationError
from repro.plans.ordering import useful_orders
from repro.plans.records import INDEX_SCAN, SEQ_SCAN, SORT
from repro.plans.store import METHOD_NAMES
from repro.query import JoinGraph, Query, star_joins
from repro.util.timer import Timer
from repro.workloads import tpch_lite_queries, tpch_lite_schema


@pytest.fixture
def space_and_table(small_schema, small_stats):
    names = list(small_schema.relation_names[:4])
    graph = JoinGraph(names, star_joins(small_schema, names[0], names[1:]))
    query = Query(small_schema, graph, label="space-test")
    counters = SearchCounters(SearchBudget.unlimited(), Timer().start())
    space = PlanSpace(query, small_stats, DEFAULT_COST_MODEL, counters)
    return space, JCRTable(space.est)


class TestBaseJCR:
    def test_seq_scan_always_present(self, space_and_table):
        space, table = space_and_table
        jcr = space.base_jcr(table, 0)
        methods = {p.method for p in jcr.plans.values()}
        assert SEQ_SCAN in methods

    def test_spoke_gets_index_scan_with_order(self, space_and_table):
        space, table = space_and_table
        # spokes join on their indexed column; the order is useful while the
        # hub is still outside
        jcr = space.base_jcr(table, 1)
        ordered = [p for p in jcr.plans.values() if p.method == INDEX_SCAN]
        assert ordered and all(p.order is not None for p in ordered)

    def test_counters_charged(self, space_and_table):
        space, table = space_and_table
        before = space.counters.plans_costed
        space.base_jcr(table, 0)
        assert space.counters.plans_costed > before


class TestJoin:
    def test_overlapping_inputs_rejected(self, space_and_table):
        space, table = space_and_table
        a = space.base_jcr(table, 0)
        assert space.join(table, a, a) is None

    def test_cartesian_returns_none(self, space_and_table):
        space, table = space_and_table
        b = space.base_jcr(table, 1)
        c = space.base_jcr(table, 2)
        assert space.join(table, b, c) is None  # two spokes: no edge

    def test_join_creates_jcr_with_methods(self, space_and_table):
        space, table = space_and_table
        hub = space.base_jcr(table, 0)
        spoke = space.base_jcr(table, 1)
        jcr = space.join(table, hub, spoke)
        assert jcr is not None
        assert jcr.mask == 0b11
        assert jcr.rows == space.rows(0b11)
        assert jcr.best.cost > 0

    def test_rows_identical_across_orders(self, space_and_table):
        space, table = space_and_table
        hub = space.base_jcr(table, 0)
        s1 = space.base_jcr(table, 1)
        s2 = space.base_jcr(table, 2)
        j1 = space.join(table, space.join(table, hub, s1), s2)
        fresh = JCRTable(space.est)
        hub2 = space.base_jcr(fresh, 0)
        s12 = space.base_jcr(fresh, 1)
        s22 = space.base_jcr(fresh, 2)
        j2 = space.join(fresh, space.join(fresh, hub2, s22), s12)
        assert j1.rows == pytest.approx(j2.rows)

    def test_index_nestloop_generated_for_indexed_inner(self, space_and_table):
        space, table = space_and_table
        hub = space.base_jcr(table, 0)
        spoke = space.base_jcr(table, 1)
        jcr = space.join(table, hub, spoke)
        methods = {p.method for p in jcr.plans.values()}
        # spokes are indexed on the join column, so an index NL must have
        # been costed; whether it is retained depends on cost, so check the
        # costing count instead
        assert space.counters.plans_costed > 4
        assert jcr.best.method in methods


@st.composite
def join_wirings(draw):
    """``(relation count, joins)``: a random star, chain, cycle or
    star-chain over R1..Rn, optionally with one more relation joined on an
    existing join column, so that column's eclass spans three relations."""
    n = draw(st.integers(3, 8))
    topology = draw(st.sampled_from(["star", "chain", "cycle", "star-chain"]))
    names = [f"R{i + 1}" for i in range(n)]
    if topology == "star":
        spokes = n
    elif topology == "star-chain":
        spokes = draw(st.integers(2, n - 1))
    else:
        spokes = 1
    # The hub R1 joins each spoke on its own column; the rest is a chain.
    joins = [(names[0], f"c{i}", names[i], "c1") for i in range(1, spokes)]
    for i in range(spokes, n):
        joins.append((names[i - 1], "c2", names[i], "c1"))
    if topology == "cycle":
        joins.append((names[-1], "c2", names[0], "c1"))
    if draw(st.booleans()):
        joins.append((names[0], joins[0][1], names[2], "c3"))
    return n, joins


class TestUsefulOrders:
    """The fast kernel's interesting-order test, ``reach[key] & ~mask``,
    against the set-based :func:`repro.plans.ordering.useful_orders` that
    the reference kernel keeps."""

    @settings(max_examples=60, deadline=None)
    @given(
        wiring=join_wirings(),
        order=st.sampled_from(["none", "join", "indexed"]),
        data=st.data(),
    )
    def test_reach_test_matches_useful_orders(
        self, small_schema, small_stats, wiring, order, data
    ):
        n, joins = wiring
        graph = JoinGraph([f"R{i + 1}" for i in range(n)], joins)
        join_columns = {
            (graph.relation_names[rel], column)
            for points in graph.eclasses.values()
            for rel, column in points
        }
        order_by = None
        if order == "join":
            order_by = data.draw(st.sampled_from(sorted(join_columns)))
        elif order == "indexed":
            candidates = sorted(
                (name, column.name)
                for name in graph.relation_names
                for column in small_schema.relation(name).columns
                if (name, column.name) not in join_columns
                and small_stats.table(name).column(column.name).has_index
            )
            assume(candidates)
            order_by = data.draw(st.sampled_from(candidates))
        query = Query(small_schema, graph, order_by=order_by)
        counters = SearchCounters(SearchBudget.unlimited(), Timer().start())
        space = PlanSpace(query, small_stats, DEFAULT_COST_MODEL, counters)
        extra_order = None
        if order == "indexed":
            extra_order = (query.order_by_key, 1 << graph.index_of(order_by[0]))

        keys = list(graph.eclass_relation_masks.items())
        if extra_order is not None:
            keys.append(extra_order)
        for mask in range(1, graph.all_mask + 1):
            if not graph.is_connected(mask):
                continue
            useful = useful_orders(graph, mask, query.order_by_eclass, extra_order)
            for key, members in keys:
                if members & mask:
                    reach_test = bool(space._reach[key] & ~mask)
                    assert reach_test == (key in useful), (mask, key)


class TestFinalize:
    def test_incomplete_jcr_rejected(self, space_and_table):
        space, table = space_and_table
        jcr = space.base_jcr(table, 0)
        with pytest.raises(OptimizationError):
            space.finalize(jcr)

    def test_unordered_query_returns_best(self, space_and_table):
        space, table = space_and_table
        jcrs = [space.base_jcr(table, i) for i in range(4)]
        current = jcrs[0]
        for nxt in jcrs[1:]:
            current = space.join(table, current, nxt)
        final = space.finalize(current)
        assert final is current.best

    def test_ordered_query_appends_sort_when_needed(
        self, small_schema, small_stats
    ):
        names = list(small_schema.relation_names[:4])
        joins = star_joins(small_schema, names[0], names[1:])
        graph = JoinGraph(names, joins)
        spoke, column = joins[0][2], joins[0][3]
        query = Query(small_schema, graph, order_by=(spoke, column))
        counters = SearchCounters(SearchBudget.unlimited(), Timer().start())
        space = PlanSpace(query, small_stats, DEFAULT_COST_MODEL, counters)
        table = JCRTable(space.est)
        jcrs = [space.base_jcr(table, i) for i in range(4)]
        current = jcrs[0]
        for nxt in jcrs[1:]:
            current = space.join(table, current, nxt)
        final = space.finalize(current)
        assert final.order == query.order_by_eclass or final.method == SORT
        assert final.cost >= current.best.cost


# Plan nodes one completed search leaves live: the distinct nodes reachable
# from every slot of every JCR in its final table, in total and per
# operator. A losing candidate allocates nothing, a superseded winner and a
# pruned JCR's plans are freed, and Sort and index-probe nodes exist only
# under a retained merge join or index nested loop, so these counts pin what
# the kernel keeps, which the reference kernel (it has no nodes) cannot
# check. Between them the two templates use every operator.
LIVE_NODES = {
    ("market-share", "DP"): (269, {
        "Filter": 5, "HashJoin": 47, "IndexNestLoop": 35, "IndexScan": 42,
        "MergeJoin": 31, "NestLoop": 39, "SeqScan": 8, "Sort": 62,
    }),
    ("market-share", "SDP"): (206, {
        "Filter": 5, "HashJoin": 39, "IndexNestLoop": 28, "IndexScan": 35,
        "MergeJoin": 18, "NestLoop": 37, "SeqScan": 8, "Sort": 36,
    }),
    ("min-cost-supplier", "DP"): (59, {
        "Filter": 4, "HashJoin": 10, "IndexNestLoop": 2, "IndexScan": 10,
        "MergeJoin": 6, "NestLoop": 10, "SeqScan": 5, "Sort": 12,
    }),
    ("min-cost-supplier", "SDP"): (59, {
        "Filter": 4, "HashJoin": 10, "IndexNestLoop": 2, "IndexScan": 10,
        "MergeJoin": 6, "NestLoop": 10, "SeqScan": 5, "Sort": 12,
    }),
}


@pytest.fixture(scope="module")
def tpch():
    schema = tpch_lite_schema()
    queries = {q.label: q for q in tpch_lite_queries(schema)}
    return analyze(schema), queries


@pytest.mark.parametrize(("label", "technique"), sorted(LIVE_NODES))
def test_plan_arena_is_pinned(label, technique, tpch, monkeypatch):
    stats, queries = tpch
    tables = []
    new_table = PlanSpace.new_table

    def capture(space):
        table = new_table(space)
        tables.append(table)
        return table

    monkeypatch.delenv(KERNEL_ENV, raising=False)
    monkeypatch.setattr(PlanSpace, "new_table", capture)
    make_optimizer(technique).optimize(queries[label], stats)
    (table,) = tables
    live: dict[int, tuple] = {}
    stack = [
        slot[2] for jcr in table._by_mask.values() for slot in jcr.slots.values()
    ]
    while stack:
        node = stack.pop()
        if node is None or id(node) in live:
            continue
        live[id(node)] = node
        stack.extend((node[4], node[5]))
    size, per_method = LIVE_NODES[(label, technique)]
    assert len(live) == size
    assert Counter(METHOD_NAMES[node[0]] for node in live.values()) == per_method
