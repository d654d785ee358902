"""Reference (object-graph) search kernel.

This module preserves the pre-mask-native costing kernel — eager
:class:`~repro.plans.PlanRecord` graphs held in per-order dicts — exactly
as it behaved before the struct-of-arrays rewrite. It exists for one
reason: to be the *oracle* the fast kernel is checked against. The
equivalence property tests (``tests/test_kernel_equivalence.py``) run DP,
SDP and IDP through both kernels on randomized join graphs and assert
identical winning cost, plan shape, and counter values.

Select it process-wide with ``REPRO_KERNEL=reference`` (see
:mod:`repro.core.kernel`). It is intentionally slow — every costed
alternative that wins a slot allocates a record, and every slot lookup goes
through method calls — which is precisely the overhead the mask-native
kernel removes.

The three classes mirror the public surface of the fast kernel:
``ReferencePlanSpace.new_table()`` hands out tables, ``base_jcr``/``join``/
``finalize``/``final_cost`` drive the search, and the JCRs expose
``best``/``best_cost``/``plans``/``plan_count``/``feature_vector``/
``improves``/``add``.
"""

from __future__ import annotations

from repro.catalog.statistics import CatalogStatistics, ColumnStats, TableStats
from repro.core.base import SearchCounters
from repro.cost.cardinality import CardinalityEstimator
from repro.cost.joins import (
    hash_join_cost,
    index_nestloop_cost,
    merge_join_cost,
    nestloop_cost,
)
from repro.cost.model import CostModel
from repro.cost.scans import (
    filter_cost,
    index_lookup_cost,
    index_scan_full_cost,
    seq_scan_cost,
)
from repro.cost.sorts import sort_cost
from repro.errors import OptimizationError, PlanError
from repro.plans.ordering import useful_orders
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
from repro.query.query import Query

__all__ = ["ReferenceJCR", "ReferenceJCRTable", "ReferencePlanSpace"]


class ReferenceJCR:
    """Eager-record JCR: retained plans keyed by order in a dict."""

    __slots__ = ("mask", "level", "rows", "log_sel", "plans", "_best")

    def __init__(self, mask: int, rows: float, log_sel: float):
        if mask == 0:
            raise PlanError("JCR mask must be non-empty")
        self.mask = mask
        self.level = mask.bit_count()
        self.rows = rows
        self.log_sel = log_sel
        self.plans: dict[int | None, PlanRecord] = {}
        self._best: PlanRecord | None = None

    def improves(self, key: int | None, cost: float) -> bool:
        incumbent = self.plans.get(key)
        return incumbent is None or cost < incumbent.cost

    def add(self, plan: PlanRecord, useful: set[int] | None = None) -> bool:
        if plan.mask != self.mask:
            raise PlanError(
                f"plan mask {plan.mask:#x} does not match JCR {self.mask:#x}"
            )
        key = plan.order
        if key is not None and useful is not None and key not in useful:
            key = None
        incumbent = self.plans.get(key)
        improved = False
        if incumbent is None or plan.cost < incumbent.cost:
            self.plans[key] = plan
            improved = True
        if self._best is None or plan.cost < self._best.cost:
            self._best = plan
            improved = True
        return improved

    @property
    def best(self) -> PlanRecord:
        if self._best is None:
            raise PlanError(f"JCR {self.mask:#x} has no plans")
        return self._best

    @property
    def best_cost(self) -> float:
        return self.best.cost

    def plan_for_order(self, eclass: int | None) -> PlanRecord | None:
        return self.plans.get(eclass)

    @property
    def plan_count(self) -> int:
        return len(self.plans)

    def feature_vector(self) -> tuple[float, float, float]:
        return (self.rows, self.best.cost, self.log_sel)

    def __repr__(self) -> str:
        return (
            f"ReferenceJCR(mask={self.mask:#x}, level={self.level}, "
            f"rows={self.rows:.0f}, plans={len(self.plans)})"
        )


class ReferenceJCRTable:
    """Bitmask-keyed table of reference JCRs with per-level lists."""

    __slots__ = ("_by_mask", "_by_level", "_est")

    def __init__(self, est: CardinalityEstimator):
        self._est = est
        self._by_mask: dict[int, ReferenceJCR] = {}
        self._by_level: dict[int, list[ReferenceJCR]] = {}

    def get(self, mask: int) -> ReferenceJCR | None:
        return self._by_mask.get(mask)

    def require(self, mask: int) -> ReferenceJCR:
        jcr = self._by_mask.get(mask)
        if jcr is None:
            raise OptimizationError(f"no JCR was built for mask {mask:#x}")
        return jcr

    def get_or_create(self, mask: int) -> tuple[ReferenceJCR, bool]:
        jcr = self._by_mask.get(mask)
        if jcr is not None:
            return jcr, False
        jcr = ReferenceJCR(
            mask, self._est.rows(mask), self._est.log_selectivity(mask)
        )
        self._by_mask[mask] = jcr
        self._by_level.setdefault(jcr.level, []).append(jcr)
        return jcr, True

    def insert(self, jcr: ReferenceJCR) -> None:
        if jcr.mask in self._by_mask:
            raise OptimizationError(f"mask {jcr.mask:#x} already in table")
        self._by_mask[jcr.mask] = jcr
        self._by_level.setdefault(jcr.level, []).append(jcr)

    def level(self, size: int) -> list[ReferenceJCR]:
        return self._by_level.get(size, [])

    def replace_level(self, size: int, survivors: list[ReferenceJCR]) -> int:
        current = self._by_level.get(size, [])
        keep = {jcr.mask for jcr in survivors}
        pruned = 0
        for jcr in current:
            if jcr.mask not in keep:
                del self._by_mask[jcr.mask]
                pruned += 1
        self._by_level[size] = list(survivors)
        return pruned

    def __len__(self) -> int:
        return len(self._by_mask)

    def __contains__(self, mask: int) -> bool:
        return mask in self._by_mask

    @property
    def estimator(self) -> CardinalityEstimator:
        return self._est


class ReferencePlanSpace:
    """Costing engine over eager record graphs (the oracle kernel)."""

    def __init__(
        self,
        query: Query,
        stats: CatalogStatistics,
        cost_model: CostModel,
        counters: SearchCounters,
    ):
        self.query = query
        self.graph = query.graph
        self.cm = cost_model
        self.counters = counters
        self.est = CardinalityEstimator(
            self.graph, stats, selections=query.selections
        )
        self.order_by_eclass = query.order_by_eclass
        self.order_by_key = query.order_by_key
        #: C_out regime (mirrors PlanSpace): zero-cost base scans, one
        #: join alternative per pair costing inputs + output cardinality.
        self._cout = cost_model.cout

        graph = self.graph
        self._tables: list[TableStats] = [
            stats.table(name) for name in graph.relation_names
        ]
        self._indexed_join_columns: list[list[tuple[int, ColumnStats]]] = []
        for index, table in enumerate(self._tables):
            entries = []
            for column in graph.join_columns_of(index):
                col_stats = table.column(column)
                if not col_stats.has_index:
                    continue
                eclass = graph.eclass_of_column(index, column)
                if eclass is not None:
                    entries.append((eclass, col_stats))
            self._indexed_join_columns.append(entries)
        self._useful_cache: dict[int, set[int]] = {}
        self._sort_cost_cache: dict[int, float] = {}

        # Selection placement mirrors the fast kernel exactly (see
        # PlanSpace.__init__): per-relation qual counts, unfiltered base
        # cardinalities and access-path filter costs.
        self._selection_quals: list[int] = [0] * graph.n
        for selection in query.selections:
            self._selection_quals[graph.index_of(selection.relation)] += 1
        self._raw_rows: list[float] = [
            float(t.row_count) for t in self._tables
        ]
        self._filter_costs: list[float] = [
            filter_cost(self._raw_rows[index], quals, cost_model)
            if quals
            else 0.0
            for index, quals in enumerate(self._selection_quals)
        ]
        self._filter_per_row: list[float] = [
            quals * cost_model.cpu_operator_cost
            for quals in self._selection_quals
        ]

        self._extra_order: tuple[int, int] | None = None
        self._order_index_scan: tuple[int, int] | None = None
        if query.order_by is not None and query.order_by_eclass is None:
            order_rel, order_col = query.order_by
            if stats.table(order_rel).column(order_col).has_index:
                rel_index = graph.index_of(order_rel)
                self._extra_order = (query.order_by_key, 1 << rel_index)
                self._order_index_scan = (rel_index, query.order_by_key)

    # -- helpers ---------------------------------------------------------------

    def new_table(self) -> ReferenceJCRTable:
        """A fresh memo table (IDP creates one per iteration)."""
        return ReferenceJCRTable(self.est)

    def useful(self, mask: int) -> set[int]:
        cached = self._useful_cache.get(mask)
        if cached is None:
            cached = useful_orders(
                self.graph, mask, self.order_by_eclass, self._extra_order
            )
            self._useful_cache[mask] = cached
        return cached

    def _sort_cost(self, jcr: ReferenceJCR) -> float:
        cached = self._sort_cost_cache.get(jcr.mask)
        if cached is None:
            cached = sort_cost(jcr.rows, self.est.width(jcr.mask), self.cm)
            self._sort_cost_cache[jcr.mask] = cached
        return cached

    def _offer(
        self, jcr: ReferenceJCR, plan: PlanRecord, useful: set[int]
    ) -> None:
        slots_before = len(jcr.plans)
        jcr.add(plan, useful)
        if len(jcr.plans) > slots_before:
            self.counters.note_retained()

    # -- level 1: access paths -------------------------------------------------

    def base_jcr(self, table: ReferenceJCRTable, relation_index: int) -> ReferenceJCR:
        mask = 1 << relation_index
        jcr, created = table.get_or_create(mask)
        if created:
            self.counters.note_jcr_created()
        if self._cout:
            # C_out: base relations are free, no ordered access paths.
            self.counters.note_plans_costed()
            self._offer(
                jcr,
                PlanRecord(mask, jcr.rows, 0.0, SEQ_SCAN, rel=relation_index),
                None,
            )
            return jcr
        useful = self.useful(mask)
        stats_table = self._tables[relation_index]
        cm = self.cm
        quals = self._selection_quals[relation_index]
        filter_add = self._filter_costs[relation_index]
        raw_rows = self._raw_rows[relation_index]

        scan_cost = seq_scan_cost(stats_table, cm)
        cost = scan_cost + filter_add if quals else scan_cost
        if quals:
            seq = PlanRecord(
                mask,
                jcr.rows,
                cost,
                FILTER,
                left=PlanRecord(
                    mask, raw_rows, scan_cost, SEQ_SCAN, rel=relation_index
                ),
                rel=relation_index,
            )
        else:
            seq = PlanRecord(mask, jcr.rows, cost, SEQ_SCAN, rel=relation_index)
        self.counters.note_plans_costed()
        self._offer(jcr, seq, useful)

        for eclass, _col_stats in self._indexed_join_columns[relation_index]:
            if eclass not in useful:
                continue
            scan_cost = index_scan_full_cost(stats_table, cm)
            cost = scan_cost + filter_add if quals else scan_cost
            if quals:
                idx = PlanRecord(
                    mask,
                    jcr.rows,
                    cost,
                    FILTER,
                    order=eclass,
                    left=PlanRecord(
                        mask,
                        raw_rows,
                        scan_cost,
                        INDEX_SCAN,
                        order=eclass,
                        rel=relation_index,
                        eclass=eclass,
                    ),
                    rel=relation_index,
                )
            else:
                idx = PlanRecord(
                    mask,
                    jcr.rows,
                    cost,
                    INDEX_SCAN,
                    order=eclass,
                    rel=relation_index,
                    eclass=eclass,
                )
            self.counters.note_plans_costed()
            self._offer(jcr, idx, useful)

        # Non-join ORDER BY column with an index: one more ordered access
        # path under the synthetic order key (mirrors PlanSpace.base_jcr).
        order_scan = self._order_index_scan
        if order_scan is not None and order_scan[0] == relation_index:
            key = order_scan[1]
            if key in useful:
                scan_cost = index_scan_full_cost(stats_table, cm)
                cost = scan_cost + filter_add if quals else scan_cost
                if quals:
                    ordered = PlanRecord(
                        mask,
                        jcr.rows,
                        cost,
                        FILTER,
                        order=key,
                        left=PlanRecord(
                            mask,
                            raw_rows,
                            scan_cost,
                            INDEX_SCAN,
                            order=key,
                            rel=relation_index,
                        ),
                        rel=relation_index,
                    )
                else:
                    ordered = PlanRecord(
                        mask,
                        jcr.rows,
                        cost,
                        INDEX_SCAN,
                        order=key,
                        rel=relation_index,
                    )
                self.counters.note_plans_costed()
                self._offer(jcr, ordered, useful)
        return jcr

    # -- joins -------------------------------------------------------------------

    def join_batch(self, table: ReferenceJCRTable, pairs) -> None:
        """Batch API parity with the fast kernel: join each pair in turn."""
        for left, right in pairs:
            self.join(table, left, right)

    def join(
        self, table: ReferenceJCRTable, left: ReferenceJCR, right: ReferenceJCR
    ) -> ReferenceJCR | None:
        if left.mask & right.mask:
            return None
        preds = self.graph.connecting(left.mask, right.mask)
        if not preds:
            return None
        union = left.mask | right.mask
        jcr, created = table.get_or_create(union)
        if created:
            self.counters.note_jcr_created()
        if self._cout:
            # C_out: a single alternative, inputs plus output cardinality
            # (the same association order as the fast kernel's branch).
            out_rows = jcr.rows
            cost = (left.best_cost + right.best_cost) + out_rows
            self.counters.note_plans_costed()
            slots_before = len(jcr.plans)
            if jcr.improves(None, cost):
                jcr.add(
                    PlanRecord(
                        union,
                        out_rows,
                        cost,
                        HASH_JOIN,
                        left=left.best,
                        right=right.best,
                    ),
                    None,
                )
            if len(jcr.plans) > slots_before:
                self.counters.note_retained()
            return jcr
        useful = self.useful(union)
        out_rows = jcr.rows
        cm = self.cm
        costed = 0
        slots_before = len(jcr.plans)
        jcr_improves = jcr.improves
        jcr_add = jcr.add
        width = self.est.width

        for outer, inner in ((left, right), (right, left)):
            outer_best = outer.best
            inner_best = inner.best
            inner_best_cost = inner_best.cost
            outer_rows = outer.rows
            inner_rows = inner.rows

            # Hash join: cheapest inputs, order destroyed.
            cost = hash_join_cost(
                outer_rows,
                outer_best.cost,
                inner_rows,
                inner_best_cost,
                width(inner.mask),
                out_rows,
                cm,
            )
            costed += 1
            if jcr_improves(None, cost):
                jcr_add(
                    PlanRecord(
                        union,
                        out_rows,
                        cost,
                        HASH_JOIN,
                        left=outer_best,
                        right=inner_best,
                    ),
                    useful,
                )

            # Nested loop per retained outer plan (outer order preserved).
            for outer_plan in outer.plans.values():
                cost = nestloop_cost(
                    outer_rows,
                    outer_plan.cost,
                    inner_rows,
                    inner_best_cost,
                    out_rows,
                    cm,
                )
                costed += 1
                order = outer_plan.order
                key = order if order in useful else None
                if jcr_improves(key, cost):
                    jcr_add(
                        PlanRecord(
                            union,
                            out_rows,
                            cost,
                            NESTLOOP,
                            order=order,
                            left=outer_plan,
                            right=inner_best,
                        ),
                        useful,
                    )

            if inner.level == 1:
                costed += self._index_nestloops(
                    jcr, outer, inner, preds, out_rows, useful
                )

        # Merge joins, one per connecting equivalence class (symmetric).
        # dict.fromkeys dedupes in first-occurrence order — the fast
        # kernel derives its eclass tuple the same way, so both kernels
        # enumerate merge joins in the same order regardless of hashing.
        for eclass in dict.fromkeys(p.eclass for p in preds):
            left_plan, left_cost = self._sorted_input(left, eclass)
            right_plan, right_cost = self._sorted_input(right, eclass)
            cost = merge_join_cost(
                left.rows, left_cost, right.rows, right_cost, out_rows, cm
            )
            costed += 1
            key = eclass if eclass in useful else None
            if jcr_improves(key, cost):
                jcr_add(
                    PlanRecord(
                        union,
                        out_rows,
                        cost,
                        MERGE_JOIN,
                        order=eclass,
                        left=self._materialize_sorted(left, eclass, left_plan),
                        right=self._materialize_sorted(right, eclass, right_plan),
                        eclass=eclass,
                    ),
                    useful,
                )

        self.counters.note_plans_costed(costed)
        new_slots = len(jcr.plans) - slots_before
        if new_slots > 0:
            self.counters.note_retained(new_slots)
        return jcr

    def _index_nestloops(
        self,
        jcr: ReferenceJCR,
        outer: ReferenceJCR,
        inner: ReferenceJCR,
        preds,
        out_rows: float,
        useful: set[int],
    ) -> int:
        inner_index = (inner.mask & -inner.mask).bit_length() - 1
        inner_table = self._tables[inner_index]
        cm = self.cm
        costed = 0
        jcr_improves = jcr.improves
        jcr_add = jcr.add
        outer_rows = outer.rows
        seen_eclasses: set[int] = set()
        for pred in preds:
            if pred.left == inner_index:
                column = pred.left_column
            elif pred.right == inner_index:
                column = pred.right_column
            else:
                continue
            if pred.eclass in seen_eclasses:
                continue
            seen_eclasses.add(pred.eclass)
            col_stats = inner_table.column(column)
            if not col_stats.has_index:
                continue
            per_probe_rows = out_rows / max(1.0, outer_rows)
            probe = index_lookup_cost(inner_table, col_stats, per_probe_rows, cm)
            # Selections on the inner relation re-check their quals on
            # every matched row of every probe (same association order as
            # the fast kernel: filter term added onto the lookup cost).
            fq = self._filter_per_row[inner_index]
            if fq:
                matches = per_probe_rows if per_probe_rows > 1.0 else 1.0
                probe = probe + matches * fq
            probe_record = PlanRecord(
                inner.mask,
                per_probe_rows,
                probe,
                INDEX_SCAN,
                rel=inner_index,
                eclass=pred.eclass,
            )
            for outer_plan in outer.plans.values():
                cost = index_nestloop_cost(
                    outer_rows, outer_plan.cost, probe, out_rows, cm
                )
                costed += 1
                order = outer_plan.order
                key = order if order in useful else None
                if jcr_improves(key, cost):
                    jcr_add(
                        PlanRecord(
                            jcr.mask,
                            out_rows,
                            cost,
                            INDEX_NESTLOOP,
                            order=order,
                            left=outer_plan,
                            right=probe_record,
                            eclass=pred.eclass,
                        ),
                        useful,
                    )
        return costed

    def _sorted_input(
        self, jcr: ReferenceJCR, eclass: int
    ) -> tuple[PlanRecord, float]:
        base = jcr.best
        sorted_cost = base.cost + self._sort_cost(jcr)
        ordered = jcr.plans.get(eclass)
        if ordered is not None and ordered.cost <= sorted_cost:
            return ordered, ordered.cost
        return base, sorted_cost

    def _materialize_sorted(
        self, jcr: ReferenceJCR, eclass: int, plan: PlanRecord
    ) -> PlanRecord:
        if plan.order == eclass:
            return plan
        return PlanRecord(
            jcr.mask,
            jcr.rows,
            plan.cost + self._sort_cost(jcr),
            SORT,
            order=eclass,
            left=plan,
            eclass=eclass,
        )

    # -- finishing --------------------------------------------------------------

    def finalize(self, jcr: ReferenceJCR) -> PlanRecord:
        if jcr.mask != self.graph.all_mask:
            raise OptimizationError(
                f"finalize() called on incomplete JCR {jcr.mask:#x}"
            )
        if self.query.order_by is None:
            return jcr.best
        if self._cout:
            # The enforcer sort is free under C_out (no new intermediate
            # result); one costed alternative, cost unchanged.
            self.counters.note_plans_costed()
            best = jcr.best
            return PlanRecord(
                jcr.mask,
                jcr.rows,
                best.cost,
                SORT,
                order=self.order_by_key,
                left=best,
                eclass=self.order_by_eclass,
            )
        final_sort = self._sort_cost(jcr)
        best: PlanRecord | None = None
        for plan in jcr.plans.values():
            if (
                self.order_by_key is not None
                and plan.order == self.order_by_key
            ):
                candidate = plan
            else:
                candidate = PlanRecord(
                    jcr.mask,
                    jcr.rows,
                    plan.cost + final_sort,
                    SORT,
                    order=self.order_by_key,
                    left=plan,
                    eclass=self.order_by_eclass,
                )
            self.counters.note_plans_costed()
            if best is None or candidate.cost < best.cost:
                best = candidate
        if best is None:
            raise OptimizationError("JCR has no plans to finalize")
        return best

    def final_cost(self, jcr: ReferenceJCR) -> float:
        """Cost of :meth:`finalize` without keeping the plan.

        Same counter charges and same float arithmetic; the randomized and
        genetic walkers call this once per explored state.
        """
        return self.finalize(jcr).cost

    # -- estimation passthroughs -------------------------------------------------

    def rows(self, mask: int) -> float:
        return self.est.rows(mask)

    def width(self, mask: int) -> int:
        return self.est.width(mask)

    def log_selectivity(self, mask: int) -> float:
        return self.est.log_selectivity(mask)
