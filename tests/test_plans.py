"""Tests for repro.plans: records, JCRs, ordering, trees, explain, validate."""

from __future__ import annotations

import pytest

from repro.errors import PlanError
from repro.plans import (
    HASH_JOIN,
    INDEX_SCAN,
    JCR,
    MERGE_JOIN,
    NESTLOOP,
    SEQ_SCAN,
    SORT,
    PlanRecord,
    build_plan_tree,
    explain,
    useful_orders,
    validate_plan,
)
from repro.plans.ordering import is_useful_order
from repro.plans.store import M_INDEX_SCAN, M_SEQ_SCAN, NO_FIELD
from repro.query.joingraph import JoinGraph


def scan(rel, rows=100.0, cost=10.0, order=None):
    return PlanRecord(
        1 << rel, rows, cost, SEQ_SCAN if order is None else INDEX_SCAN,
        order=order, rel=rel,
    )


def join(left, right, rows=50.0, cost=None, method=HASH_JOIN, order=None):
    if cost is None:
        cost = left.cost + right.cost + 5.0
    return PlanRecord(
        left.mask | right.mask, rows, cost, method,
        order=order, left=left, right=right,
    )


@pytest.fixture
def graph():
    return JoinGraph(
        ["A", "B", "C"],
        [("A", "x", "B", "y"), ("B", "z", "C", "w")],
    )


class TestPlanRecord:
    def test_unknown_method_rejected(self):
        with pytest.raises(PlanError):
            PlanRecord(1, 1.0, 1.0, "FlyingJoin")

    def test_negative_cost_rejected(self):
        with pytest.raises(PlanError):
            PlanRecord(1, 1.0, -1.0, SEQ_SCAN, rel=0)

    def test_leaf_relations_order(self):
        tree = join(join(scan(0), scan(1)), scan(2))
        assert tree.leaf_relations() == [0, 1, 2]

    def test_depth_and_node_count(self):
        tree = join(join(scan(0), scan(1)), scan(2))
        assert tree.depth() == 3
        assert tree.node_count() == 5
        assert scan(0).depth() == 1

    def test_flags(self):
        assert scan(0).is_scan and not scan(0).is_join
        j = join(scan(0), scan(1))
        assert j.is_join and not j.is_scan


def put_scan(jcr, cost, order=None, key=None):
    """Build a scan node and offer it to ``jcr``'s slot ``key``."""
    method = M_SEQ_SCAN if order is None else M_INDEX_SCAN
    node = (
        method, cost, jcr.rows, NO_FIELD if order is None else order,
        None, None, 0, NO_FIELD,
    )
    return jcr.put(key, order, cost, node)


class TestJCR:
    def test_empty_mask_rejected(self):
        with pytest.raises(PlanError):
            JCR(0, 1.0, 0.0)

    def test_best_requires_plans(self):
        jcr = JCR(0b11, 100.0, -1.0)
        with pytest.raises(PlanError):
            _ = jcr.best

    def test_keeps_cheapest_per_order(self):
        jcr = JCR(1, 100.0, 0.0)
        # put() reports only whether the plan opened a new slot.
        assert put_scan(jcr, 10.0) is True
        assert put_scan(jcr, 5.0) is False
        assert put_scan(jcr, 7.0) is False
        assert jcr.best.cost == 5.0
        assert jcr.plan_count == 1
        assert jcr.slots[None][1] == 5.0

    def test_separate_order_slots(self):
        jcr = JCR(1, 100.0, 0.0)
        assert put_scan(jcr, 5.0) is True
        assert put_scan(jcr, 20.0, order=3, key=3) is True
        assert jcr.plan_count == 2
        assert list(jcr.slots) == [None, 3]
        assert jcr.plan_for_order(3).cost == 20.0
        assert jcr.plan_for_order(None).cost == 5.0
        assert jcr.best.cost == 5.0

    def test_useless_order_demoted(self):
        jcr = JCR(1, 100.0, 0.0)
        # The caller demotes a useless order to the None slot; the slot
        # keeps the plan's physical order.
        put_scan(jcr, 5.0, order=7, key=None)
        assert jcr.plan_for_order(7) is None
        assert jcr.plan_for_order(None).order == 7
        assert jcr.slots[None][0] == 7

    def test_feature_vector(self):
        jcr = JCR(1, 123.0, -4.5)
        put_scan(jcr, 9.0)
        rows, cost, sel = jcr.feature_vector()
        assert (rows, cost, sel) == (123.0, 9.0, -4.5)


class TestUsefulOrders:
    def test_boundary_orders_useful(self, graph):
        # eclass of A-B is useful for {A} (B outside) but not for {A,B,C}
        eclass = graph.predicates[0].eclass
        assert is_useful_order(graph, 0b001, eclass)
        assert not is_useful_order(graph, 0b111, eclass)

    def test_order_by_always_useful(self, graph):
        eclass = graph.predicates[0].eclass
        assert is_useful_order(graph, 0b111, eclass, order_by_eclass=eclass)

    def test_absent_relation_order_useless(self, graph):
        eclass = graph.predicates[0].eclass  # members A, B
        assert not is_useful_order(graph, 0b100, eclass)

    def test_useful_orders_set(self, graph):
        useful = useful_orders(graph, 0b011)
        eclass_bc = graph.predicates[1].eclass
        assert eclass_bc in useful


class TestBuildTreeAndExplain:
    def test_round_trip(self, graph):
        record = join(join(scan(0), scan(1)), scan(2))
        node = build_plan_tree(record, graph)
        assert sorted(node.leaf_relations()) == ["A", "B", "C"]
        assert node.rows == 50.0

    def test_sort_node(self, graph):
        base = scan(0)
        sort = PlanRecord(1, 100.0, 20.0, SORT, order=0, left=base)
        node = build_plan_tree(sort, graph)
        assert node.method == SORT
        assert len(node.children) == 1

    def test_order_column_label(self, graph):
        eclass = graph.predicates[0].eclass
        record = join(scan(0), scan(1), method=MERGE_JOIN, order=eclass)
        node = build_plan_tree(record, graph)
        assert node.order_column is not None
        assert "." in node.order_column

    def test_explain_text(self, graph):
        record = join(join(scan(0), scan(1)), scan(2))
        text = explain(build_plan_tree(record, graph))
        assert "SeqScan on A" in text
        assert text.count("\n") == 4
        assert "HashJoin" in text

    def test_walk(self, graph):
        record = join(scan(0), scan(1))
        node = build_plan_tree(record, graph)
        assert len(list(node.walk())) == 3

    def test_broken_scan_rejected(self, graph):
        bad = PlanRecord(1, 1.0, 1.0, SEQ_SCAN)  # no rel
        with pytest.raises(PlanError):
            build_plan_tree(bad, graph)


class TestValidatePlan:
    def test_valid_plan_passes(self, graph):
        record = join(join(scan(0), scan(1)), scan(2))
        validate_plan(record, graph)

    def test_wrong_mask_rejected(self, graph):
        record = join(scan(0), scan(1))
        with pytest.raises(PlanError):
            validate_plan(record, graph)  # missing C

    def test_duplicate_relation_rejected(self, graph):
        dup = PlanRecord(
            0b111, 10.0, 99.0, HASH_JOIN,
            left=join(scan(0), scan(1)),
            right=PlanRecord(0b100, 5.0, 5.0, SEQ_SCAN, rel=2),
        )
        # hand-craft an overlap: right child mask lies about containing A
        dup.right = join(scan(0), scan(2))
        dup.right.mask = 0b100
        with pytest.raises(PlanError):
            validate_plan(dup, graph)

    def test_cartesian_rejected(self):
        graph = JoinGraph(
            ["A", "B", "C"],
            [("A", "x", "B", "y"), ("B", "z", "C", "w")],
        )
        cartesian = join(scan(0), scan(2))  # A-C not joined
        cartesian = join(cartesian, scan(1))
        with pytest.raises(PlanError):
            validate_plan(cartesian, graph)
        validate_plan(cartesian, graph, allow_cartesian=True)

    def test_cost_monotonicity_enforced(self, graph):
        cheap_parent = join(scan(0, cost=50.0), scan(1, cost=50.0), cost=10.0)
        record = join(cheap_parent, scan(2))
        with pytest.raises(PlanError):
            validate_plan(record, graph)

    def test_sort_must_be_unary(self, graph):
        bad = PlanRecord(
            0b11, 10.0, 99.0, SORT, left=scan(0), right=scan(1)
        )
        with pytest.raises(PlanError):
            validate_plan(bad, graph, expected_mask=0b11)
