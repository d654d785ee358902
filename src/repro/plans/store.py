"""Struct-of-arrays plan arena with deferred materialization.

The mask-native search kernel never builds a :class:`~repro.plans.PlanRecord`
tree during the search. Every *retained* alternative is appended to a
:class:`PlanStore` — eight parallel columns (``array`` typecodes for the
numeric ones) holding the operator code, physical order, child entry ids,
scan relation, join eclass, output rows and total cost. A plan is just an
integer entry id; a plan *tree* is the chain of ``left``/``right`` entry ids,
exactly the (left-slot, right-slot, operator, order) parent pointers of
DPconv-style flattened DP tables.

Entries are immutable once appended, which gives the same
bind-at-costing-time semantics as the old object graph: a join alternative
references the child entry that was cheapest *when it was costed*, not
whatever later became cheapest. The arena only grows — mirroring the
modeled planner-arena (``palloc``) accounting in :mod:`repro.core.base`,
where superseded plans stay allocated until planning ends.

:meth:`PlanStore.materialize` reconstructs a :class:`PlanRecord` tree for an
entry on demand (the search does this for the *winning* plan only, at
finalize time). Reconstruction is memoized per entry id, so shared subtrees
come back as shared objects and repeated finalizes are cheap.
"""

from __future__ import annotations

from array import array

from repro.plans.records import (
    FILTER,
    HASH_JOIN,
    INDEX_NESTLOOP,
    INDEX_SCAN,
    MERGE_JOIN,
    NESTLOOP,
    SEQ_SCAN,
    SORT,
    PlanRecord,
)

__all__ = [
    "PlanStore",
    "M_SEQ_SCAN",
    "M_INDEX_SCAN",
    "M_SORT",
    "M_NESTLOOP",
    "M_INDEX_NESTLOOP",
    "M_HASH_JOIN",
    "M_MERGE_JOIN",
    "M_FILTER",
    "NO_FIELD",
]

#: Operator codes for the ``method`` column (indices into METHOD_NAMES).
M_SEQ_SCAN = 0
M_INDEX_SCAN = 1
M_SORT = 2
M_NESTLOOP = 3
M_INDEX_NESTLOOP = 4
M_HASH_JOIN = 5
M_MERGE_JOIN = 6
M_FILTER = 7

METHOD_NAMES = (
    SEQ_SCAN,
    INDEX_SCAN,
    SORT,
    NESTLOOP,
    INDEX_NESTLOOP,
    HASH_JOIN,
    MERGE_JOIN,
    FILTER,
)

#: Sentinel for "no value" in the integer columns (order/left/right/rel/eclass).
NO_FIELD = -1


class PlanStore:
    """Append-only struct-of-arrays arena of deferred plan entries.

    One store is shared by every :class:`~repro.core.table.JCRTable` of an
    optimizer run (IDP re-seeds fresh tables each iteration, and composite
    nodes carried across iterations keep referencing their entries).
    """

    __slots__ = (
        "method",
        "order",
        "left",
        "right",
        "rel",
        "eclass",
        "rows",
        "cost",
        "_records",
    )

    def __init__(self) -> None:
        self.method = array("b")
        self.order = array("i")
        self.left = array("i")
        self.right = array("i")
        self.rel = array("i")
        self.eclass = array("i")
        self.rows = array("d")
        self.cost = array("d")
        # entry id -> reconstructed PlanRecord (shared-subtree memo).
        self._records: dict[int, PlanRecord] = {}

    def add(
        self,
        method: int,
        cost: float,
        rows: float,
        order: int = NO_FIELD,
        left: int = NO_FIELD,
        right: int = NO_FIELD,
        rel: int = NO_FIELD,
        eclass: int = NO_FIELD,
    ) -> int:
        """Append one entry; returns its id."""
        eid = len(self.method)
        self.method.append(method)
        self.order.append(order)
        self.left.append(left)
        self.right.append(right)
        self.rel.append(rel)
        self.eclass.append(eclass)
        self.rows.append(rows)
        self.cost.append(cost)
        return eid

    def __len__(self) -> int:
        return len(self.method)

    def layer_views(self, entries) -> tuple[array, array]:
        """Column-sliced ``(cost, rows)`` vectors for a set of entry ids.

        The dpconv kernel buckets one search level's subproblems into
        cardinality layers and convolves per-layer *cost vectors*; this
        gathers those vectors straight from the struct-of-arrays columns
        (a retained slot's cost **is** its store entry's cost column
        value), keeping the layer build a pure SoA scan.
        """
        cost_col = self.cost
        rows_col = self.rows
        return (
            array("d", (cost_col[eid] for eid in entries)),
            array("d", (rows_col[eid] for eid in entries)),
        )

    def materialize(self, eid: int) -> PlanRecord:
        """Reconstruct the :class:`PlanRecord` tree rooted at ``eid``.

        Masks are not stored — a scan's mask is ``1 << rel``, a unary node
        inherits its input's mask, and a join's is the union of its
        children's. Results are memoized per entry, so shared subtrees
        materialize to shared record objects (plan-shape identity with the
        eager kernel, which also shares child records).
        """
        record = self._records.get(eid)
        if record is not None:
            return record
        left = self.left[eid]
        right = self.right[eid]
        left_record = self.materialize(left) if left >= 0 else None
        right_record = self.materialize(right) if right >= 0 else None
        rel = self.rel[eid]
        if left_record is None:
            mask = 1 << rel
        elif right_record is None:
            mask = left_record.mask
        else:
            mask = left_record.mask | right_record.mask
        order = self.order[eid]
        eclass = self.eclass[eid]
        record = PlanRecord(
            mask,
            self.rows[eid],
            self.cost[eid],
            METHOD_NAMES[self.method[eid]],
            order=order if order >= 0 else None,
            left=left_record,
            right=right_record,
            rel=rel if rel >= 0 else None,
            eclass=eclass if eclass >= 0 else None,
        )
        self._records[eid] = record
        return record

