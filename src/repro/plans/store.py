"""Plan nodes: the fast kernel's retained plans, and their materialization.

The mask-native search kernel never builds a :class:`~repro.plans.PlanRecord`
tree during the search. Every *retained* alternative is one tuple node::

    (method, cost, rows, order, left, right, rel, eclass)

holding the operator code, total cost, output rows, physical order, child
nodes (``None`` where absent), scan relation and join eclass. The integer
fields hold :data:`NO_FIELD` for "no value". A plan *tree* is the chain of
``left``/``right`` references: the (left-slot, right-slot, operator, order)
parent pointers of a flattened DP table.

Nodes are immutable, which gives bind-at-costing-time semantics: a join
alternative references the child node that was cheapest *when it was
costed*, not whatever later became cheapest. A node lives as long as a
slot or a parent node references it, so superseded winners and the slots
of JCRs that SDP prunes are freed by reference counting (the modeled
planner-arena accounting in :mod:`repro.core.base` still charges them until
planning ends, as ``palloc`` would).

:func:`materialize` reconstructs a :class:`PlanRecord` tree from a node on
demand (the search does this for the *winning* plan only, at finalize
time).
"""

from __future__ import annotations

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
    "materialize",
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

#: Operator codes for a node's ``method`` field (indices into METHOD_NAMES).
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

#: Sentinel for "no value" in a node's integer fields (order/rel/eclass).
NO_FIELD = -1


def materialize(node: tuple) -> PlanRecord:
    """Reconstruct the :class:`PlanRecord` tree rooted at ``node``.

    Masks are not stored — a scan's mask is ``1 << rel``, a unary node
    inherits its input's mask, and a join's is the union of its children's.
    Records are memoized by node identity within the call, so shared
    subtrees materialize to shared record objects (plan-shape identity with
    the eager kernel, which also shares child records).
    """
    records: dict[int, PlanRecord] = {}

    def build(node: tuple) -> PlanRecord:
        record = records.get(id(node))
        if record is not None:
            return record
        method, cost, rows, order, left, right, rel, eclass = node
        left_record = None if left is None else build(left)
        right_record = None if right is None else build(right)
        if left_record is None:
            mask = 1 << rel
        elif right_record is None:
            mask = left_record.mask
        else:
            mask = left_record.mask | right_record.mask
        record = PlanRecord(
            mask,
            rows,
            cost,
            METHOD_NAMES[method],
            order=order if order >= 0 else None,
            left=left_record,
            right=right_record,
            rel=rel if rel >= 0 else None,
            eclass=eclass if eclass >= 0 else None,
        )
        records[id(node)] = record
        return record

    return build(node)
