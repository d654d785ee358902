"""Join-Composite-Relations (JCRs).

A JCR is "any group of relations that are joined together during the
optimization process" (Section 2.1, following [7]). Each JCR carries a set
of plans: the lowest-cost plan plus the incomparable plans that produce
interesting orders, and — for SDP — the feature vector
``[Rows, Cost, Selectivity]`` the skyline pruner operates on.

Selectivity is stored in natural-log space (a strictly monotone transform,
hence skyline-equivalent) so that the cartesian products of 40+-relation
composites stay inside float range; see
:meth:`repro.cost.CardinalityEstimator.estimate`.

Mask-native layout: retained plans live in one dict, ``slots``, mapping an
order key (None is the unordered slot) to a ``(physical order, cost,
node)`` tuple, kept in slot-creation order. The node is the plan's tuple
node (:mod:`repro.plans.store`), which holds its child nodes, so a JCR owns
its plans outright; the cost is the raw float the hot path compares
against. The search kernel reads and replaces the tuples directly;
everything record-shaped (:attr:`best`, :attr:`plans`,
:meth:`plan_for_order`) is materialized on demand by
:func:`~repro.plans.store.materialize`.

The physical order in a slot can differ from its key: a plan whose order
is not *useful* for this relation set is demoted into the None slot but
keeps its physical order, which downstream nested-loop and finalize
decisions consult (a demoted-but-ordered plan still skips its sort).
"""

from __future__ import annotations

from math import inf

from repro.errors import PlanError
from repro.plans.records import PlanRecord
from repro.plans.store import materialize

__all__ = ["JCR"]


class JCR:
    """The retained plans and feature vector for one relation set.

    Attributes:
        mask: Bitmask of member base relations.
        level: Number of member relations.
        rows: Estimated output cardinality (shared by all plans).
        log_sel: Output selectivity (natural log), the S feature.
        width: Estimated output row width in bytes (0 when unknown; the
            hash-spill check reads it).
        slots: Order key (None = cheapest unordered) -> ``(physical order,
            cost, node)`` of the slot's occupant, in creation order.
        best_cost: Cost of the cheapest retained plan (``inf`` when empty).
        best_entry: Node of the cheapest retained plan (None when empty).
    """

    __slots__ = (
        "mask",
        "level",
        "rows",
        "log_sel",
        "width",
        "slots",
        "best_cost",
        "best_entry",
        "_best",
    )

    def __init__(
        self,
        mask: int,
        rows: float,
        log_sel: float,
        width: int = 0,
    ):
        if mask == 0:
            raise PlanError("JCR mask must be non-empty")
        self.mask = mask
        self.level = mask.bit_count()
        self.rows = rows
        self.log_sel = log_sel
        self.width = width
        self.slots: dict[int | None, tuple[int | None, float, tuple]] = {}
        self.best_cost: float = inf
        self.best_entry: tuple | None = None
        # (best_entry, its record) from the last `best` read.
        self._best: tuple[tuple, PlanRecord] | None = None

    def improves(self, key: int | None, cost: float) -> bool:
        """Would a plan with order slot ``key`` and ``cost`` be retained?

        The hot search path checks this *before* creating a plan node,
        skipping any allocation for the large majority of costed
        alternatives that lose to an incumbent.

        Args:
            key: The order slot, already demoted to None if not useful.
            cost: The candidate's total cost.
        """
        slot = self.slots.get(key)
        return slot is None or cost < slot[1]

    def put(
        self, key: int | None, order: int | None, cost: float, entry: tuple
    ) -> bool:
        """Install node ``entry`` in slot ``key`` if it beats the incumbent.

        Args:
            key: Order slot (already demoted to None if not useful).
            order: The plan's *physical* order (may differ from ``key``).
            cost: Total cost.
            entry: The plan's tuple node.

        Returns:
            Whether the plan opened a new slot.
        """
        slot = self.slots.get(key)
        if slot is None or cost < slot[1]:
            self.slots[key] = (order, cost, entry)
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_entry = entry
        return slot is None

    @property
    def best(self) -> PlanRecord:
        """The cheapest retained plan (materialized on demand).

        The record is kept while :attr:`best_entry` is unchanged, so repeated
        reads return the same object.

        Raises:
            PlanError: if no plan has been added yet.
        """
        entry = self.best_entry
        if entry is None:
            raise PlanError(f"JCR {self.mask:#x} has no plans")
        memo = self._best
        if memo is None or memo[0] is not entry:
            memo = self._best = (entry, materialize(entry))
        return memo[1]

    @property
    def plans(self) -> dict[int | None, PlanRecord]:
        """Retained plans keyed by order slot, in slot-creation order.

        Materializes every retained node — a read-model view for tests,
        tooling and explain output, not for the hot path (which reads
        :attr:`slots` directly).
        """
        return {key: materialize(slot[2]) for key, slot in self.slots.items()}

    def plan_for_order(self, eclass: int | None) -> PlanRecord | None:
        """Cheapest retained plan sorted on ``eclass`` (None = unordered)."""
        slot = self.slots.get(eclass)
        if slot is None:
            return None
        return materialize(slot[2])

    @property
    def plan_count(self) -> int:
        """Number of retained plan slots (the modeled-memory unit)."""
        return len(self.slots)

    def feature_vector(self) -> tuple[float, float, float]:
        """The SDP feature vector ``(R, C, S)``, all minimized.

        R = estimated rows, C = cost of the cheapest plan, S = output
        selectivity in log space.
        """
        if self.best_entry is None:
            raise PlanError(f"JCR {self.mask:#x} has no plans")
        return (self.rows, self.best_cost, self.log_sel)

    def __repr__(self) -> str:
        return (
            f"JCR(mask={self.mask:#x}, level={self.level}, rows={self.rows:.0f}, "
            f"plans={len(self.slots)})"
        )
