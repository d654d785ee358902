"""The plan space: access paths, join alternatives, finishing touches.

:class:`PlanSpace` is the glue between the search strategies and the cost
model. Every optimizer (DP, IDP, SDP, greedy, randomized, genetic) drives
the *same* plan space, so their results differ only by which JCR
combinations they explore — the experimental control the paper has by
implementing all techniques inside one PostgreSQL engine.

For a pair of input JCRs the space costs, per direction where asymmetric:

* a hash join of the cheapest input plans (unordered output);
* a (materialized) nested loop per retained outer plan (outer order is
  preserved, so ordered outers yield ordered outputs);
* an index nested loop when the inner side is a base relation with an index
  on a connecting join column;
* a merge join per connecting equivalence class, sorting whichever inputs
  lack the order (output sorted on that class).

This is the mask-native kernel. The hot path works entirely on raw floats
and tuple plan nodes:

* per-pair invariants (output rows x tuple cost, build/probe terms, rescan
  products, qual terms, sort costs) are hoisted out of the per-plan loops,
  with the remaining additions kept in the *exact* association order of the
  formulas in :mod:`repro.cost.joins` — float addition is not associative,
  and the kernel's costs must be bit-identical to the reference kernel's;
* candidate costs are compared against slot incumbents by plain float
  comparison on the cost of the ``(order, cost, node)`` tuples in
  :attr:`repro.plans.JCR.slots`; nothing is allocated for a losing
  candidate;
* a winner costs one tuple node (operator, cost, rows, order, left node,
  right node, relation, eclass; see :mod:`repro.plans.store`) and one slot
  tuple; :class:`~repro.plans.PlanRecord` trees are only reconstructed for
  the final winning plan at :meth:`finalize` time;
* counter/budget traffic is batched to one ``note_plans_costed(n)`` call
  per pair (the budget checkpoint interval in :mod:`repro.core.base`
  amortizes the rest), so the disabled-observability path costs one
  boolean per pair.

Every costed alternative is still charged to the search counters (the
paper's "Costing (in plans)" overhead) with exactly the same totals as the
reference kernel in :mod:`repro.core.reference`. There is one costing
path: every technique, on every query, is costed by :meth:`base_jcr`,
:meth:`join_batch` and :meth:`finalize` under the one PostgreSQL-style
:class:`~repro.cost.model.CostModel`.
"""

from __future__ import annotations

import math

from repro.catalog.statistics import CatalogStatistics, TableStats
from repro.core.base import SearchCounters
from repro.core.table import JCRTable
from repro.cost.cardinality import CardinalityEstimator
from repro.cost.model import CostModel
from repro.cost.scans import filter_cost, index_scan_full_cost, seq_scan_cost
from repro.cost.sorts import sort_cost
from repro.errors import OptimizationError
from repro.plans.jcr import JCR
from repro.plans.records import PlanRecord
from repro.plans.store import (
    M_FILTER,
    M_HASH_JOIN,
    M_INDEX_NESTLOOP,
    M_INDEX_SCAN,
    M_MERGE_JOIN,
    M_NESTLOOP,
    M_SEQ_SCAN,
    M_SORT,
    NO_FIELD,
    materialize,
)
from repro.query.query import Query

__all__ = ["PlanSpace"]


class PlanSpace:
    """Costing engine shared by all search strategies.

    Args:
        query: The query being optimized.
        stats: Catalog statistics snapshot.
        cost_model: Cost constants.
        counters: Overhead accounting (plans costed, retained slots, ...).
    """

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

        graph = self.graph
        self._sort_cost_cache: dict[int, float] = {}
        # Connecting predicates per (left, right) mask pair, for
        # single-pair joins only: greedy, IDP and the randomized walks
        # revisit pairs through join(), level batches (DP, SDP) never do.
        self._pair_preds: dict[tuple[int, int], tuple] = {}

        # Selections, grouped per relation: qual counts, unfiltered base
        # cardinalities, and the per-relation filter cost added on top of
        # every access path. All zeros for selection-free queries, leaving
        # the existing float arithmetic untouched.
        self._selection_quals: list[int] = [0] * graph.n
        for selection in query.selections:
            self._selection_quals[graph.index_of(selection.relation)] += 1
        # Each relation's join columns with their eclasses, from one pass
        # over the eclasses.
        joined: list[list[tuple[str, int]]] = [[] for _ in range(graph.n)]
        for eclass, points in graph.eclasses.items():
            for index, column in points:
                joined[index].append((column, eclass))

        # Per relation, from one pass: its statistics, the selection terms
        # above, the index-probe descent cost (see _probe_per_match below),
        # and, in column-name order, the eclasses and the names of its
        # indexed join columns.
        coc = cost_model.cpu_operator_cost
        self._tables: list[TableStats] = []
        self._raw_rows: list[float] = []
        self._filter_costs: list[float] = []
        self._filter_per_row: list[float] = []
        self._probe_descent: list[float] = []
        self._indexed_eclasses: list[list[int]] = []
        self._indexed_names: list[frozenset[str]] = []
        for name, quals, columns in zip(
            graph.relation_names, self._selection_quals, joined
        ):
            table = stats.table(name)
            raw_rows = float(table.row_count)
            self._tables.append(table)
            self._raw_rows.append(raw_rows)
            self._filter_costs.append(
                filter_cost(raw_rows, quals, cost_model) if quals else 0.0
            )
            self._filter_per_row.append(quals * coc)
            self._probe_descent.append(
                math.ceil(math.log2(table.row_count + 2)) * coc
            )
            eclasses, names = [], []
            for column, eclass in sorted(columns):
                if table.column(column).has_index:
                    eclasses.append(eclass)
                    names.append(column)
            self._indexed_eclasses.append(eclasses)
            self._indexed_names.append(frozenset(names))

        # A non-join ORDER BY column with an index: an index scan on that
        # relation produces the order under the query's synthetic order key
        # (Query.order_by_key), letting finalize skip the enforcer sort.
        self._extra_order: tuple[int, int] | None = None
        self._order_index_scan: tuple[int, int] | None = None
        if query.order_by is not None and query.order_by_eclass is None:
            order_rel, order_col = query.order_by
            if stats.table(order_rel).column(order_col).has_index:
                rel_index = graph.index_of(order_rel)
                self._extra_order = (query.order_by_key, 1 << rel_index)
                self._order_index_scan = (rel_index, query.order_by_key)

        # Interesting orders without a per-set memo: reach[key] holds the
        # relations an order on `key` can still serve, that is the eclass's
        # member relations, plus bit n (outside every relation set) on the
        # ORDER BY key, whose final sort an order can always skip. The
        # synthetic key of an indexed non-join ORDER BY column gets only
        # that bit. Key k is useful for a set S iff reach[k] & ~S.
        # That equals plans.ordering.useful_orders whenever k has a member
        # inside S, and every key tested here does: a physical order
        # carried by a plan over a subset of S, an eclass connecting the
        # two inputs, an index eclass of the scanned relation, or the
        # synthetic key of the scanned relation.
        eclass_masks = graph.eclass_relation_masks
        self._reach: list[int] = [0] * (len(eclass_masks) + 1)
        for eclass, members in eclass_masks.items():
            self._reach[eclass] = members
        if self.order_by_eclass is not None:
            self._reach[self.order_by_eclass] |= 1 << graph.n
        elif self._extra_order is not None:
            self._reach[self._extra_order[0]] = 1 << graph.n

        # Cost-model constants, hoisted once per space.
        self._ctc = cost_model.cpu_tuple_cost
        self._coc = cost_model.cpu_operator_cost
        self._oc_tc = cost_model.cpu_operator_cost + cost_model.cpu_tuple_cost
        self._rescan_discount = cost_model.rescan_discount
        self._work_mem = cost_model.work_mem_bytes
        self._page_size = cost_model.page_size
        self._spc = cost_model.seq_page_cost

        # Decomposed index-lookup cost (see repro.cost.scans.index_lookup_cost):
        # ``descent + max(1.0, matched) * per_match`` with a per-table descent
        # term and a constant per-match term. Precomputing both keeps the index
        # nested-loop probe cost bit-identical while skipping the per-pair
        # TableStats/ColumnStats traffic.
        self._probe_per_match = (
            cost_model.cpu_index_tuple_cost
            + cost_model.cpu_tuple_cost
            + cost_model.random_page_cost * (1.0 - cost_model.index_cache_factor)
        )

    # -- helpers ---------------------------------------------------------------

    def new_table(self) -> JCRTable:
        """A fresh memo table over this space's estimator."""
        return JCRTable(self.est)

    def _sort_cost(self, jcr: JCR) -> float:
        """Cost of sorting ``jcr``'s output (cached per relation set)."""
        cached = self._sort_cost_cache.get(jcr.mask)
        if cached is None:
            cached = sort_cost(jcr.rows, jcr.width, self.cm)
            self._sort_cost_cache[jcr.mask] = cached
        return cached

    # -- level 1: access paths ---------------------------------------------------

    def base_jcr(self, table: JCRTable, relation_index: int) -> JCR:
        """Build the access-path JCR for one base relation.

        Selections wrap every access path in a Filter node: the scan keeps
        its unfiltered rows/cost, the filter charges qual evaluation
        (:func:`repro.cost.scans.filter_cost`) and outputs the JCR's
        filtered cardinality, preserving the scan's physical order.
        """
        mask = 1 << relation_index
        jcr, created = table.get_or_create(mask)
        if created:
            self.counters.note_jcr_created()
        reach = self._reach
        outside = ~mask

        # Access paths as (method, order key, index eclass): the sequential
        # scan, one index scan per useful indexed join column, and the
        # ordered index scan for an indexed non-join ORDER BY column (under
        # the query's synthetic order key).
        paths: list[tuple[int, int | None, int]] = [(M_SEQ_SCAN, None, NO_FIELD)]
        for eclass in self._indexed_eclasses[relation_index]:
            if reach[eclass] & outside:
                paths.append((M_INDEX_SCAN, eclass, eclass))
        order_scan = self._order_index_scan
        if (
            order_scan is not None
            and order_scan[0] == relation_index
            and reach[order_scan[1]] & outside
        ):
            paths.append((M_INDEX_SCAN, order_scan[1], NO_FIELD))

        stats_table = self._tables[relation_index]
        counters = self.counters
        counters.note_plans_costed(len(paths))
        # Every index path scans the whole index: one cost serves them all.
        seq_cost = seq_scan_cost(stats_table, self.cm)
        index_cost = (
            index_scan_full_cost(stats_table, self.cm) if len(paths) > 1 else 0.0
        )
        quals = self._selection_quals[relation_index]
        filter_add = self._filter_costs[relation_index]
        raw_rows = self._raw_rows[relation_index]
        # Each path has its own order key and so, on a first call, its own
        # new slot: its node is built without a test first (put keeps a
        # cheaper incumbent), and the slots it opens are charged at once.
        retained = 0
        for method, order, eclass in paths:
            scan_cost = seq_cost if method == M_SEQ_SCAN else index_cost
            cost = scan_cost + filter_add if quals else scan_cost
            stored_order = NO_FIELD if order is None else order
            node = (
                method, scan_cost, raw_rows if quals else jcr.rows,
                stored_order, None, None, relation_index, eclass,
            )
            if quals:
                node = (
                    M_FILTER, cost, jcr.rows,
                    stored_order, node, None, relation_index, NO_FIELD,
                )
            retained += jcr.put(order, order, cost, node)
        if retained:
            counters.note_retained(retained)
        return jcr

    # -- joins ---------------------------------------------------------------------

    def join(self, table: JCRTable, left: JCR, right: JCR) -> JCR | None:
        """Cost all join alternatives for ``left`` x ``right``.

        Returns the (created or updated) output JCR, or None when the inputs
        overlap or are not connected (cartesian products are not explored).

        Single-pair convenience over :meth:`join_batch`, with each pair's
        connecting predicates memoized for the rest of this search.
        """
        lmask = left.mask
        rmask = right.mask
        if lmask & rmask:
            return None
        if not self._connecting(lmask, rmask):
            return None
        self._join_pairs(table, ((left, right),), self._connecting)
        return table._by_mask[lmask | rmask]

    def _connecting(self, lmask: int, rmask: int) -> tuple:
        """``JoinGraph.connecting`` through this space's pair memo."""
        key = (lmask, rmask)
        preds = self._pair_preds.get(key)
        if preds is None:
            preds = self._pair_preds[key] = self.graph.connecting(lmask, rmask)
        return preds

    def join_batch(self, table: JCRTable, pairs) -> None:
        """Cost all join alternatives for every ``(left, right)`` JCR pair.

        This is the hottest loop in the repository (exhaustive DP pushes
        hundreds of thousands of pairs per query through it, a level at a
        time). Everything is local floats and ints: every batch-invariant —
        cost constants, caches and counter methods — is hoisted into
        locals once per call, and the cost expressions inline the formulas
        of :mod:`repro.cost.joins` term by term, preserving their
        association order exactly so costs stay bit-identical to the
        reference kernel. Each candidate is tested against its slot's
        incumbent inline; only a winner builds a plan node and a new slot
        tuple. Pairs that overlap or are not connected are skipped
        (cartesian products are not explored).
        """
        self._join_pairs(table, pairs, self.graph.connecting)

    def _join_pairs(self, table: JCRTable, pairs, connecting) -> None:
        """:meth:`join_batch`, with ``connecting(lmask, rmask)`` supplying
        each pair's predicates (:meth:`join` passes its pair memo)."""
        by_mask = table._by_mask
        create = table.create
        counters = self.counters
        note_plans_costed = counters.note_plans_costed
        note_retained = counters.note_retained
        note_jcr_created = counters.note_jcr_created
        reach = self._reach
        sort_cache = self._sort_cost_cache
        sort_fn = self._sort_cost
        probe_descent = self._probe_descent
        probe_per_match = self._probe_per_match
        indexed_names_all = self._indexed_names
        filter_per_row = self._filter_per_row

        ctc = self._ctc
        coc = self._coc
        oc_tc = self._oc_tc
        rescan_discount = self._rescan_discount
        work_mem = self._work_mem
        page_size = self._page_size
        spc = self._spc

        # Costed-plan charges accumulate across pairs and flush in chunks
        # (and once at batch end, so callers reading the counter after the
        # batch see exact totals). Budget trips for plans-costed therefore
        # fire within one chunk of the precise crossing point.
        pending_costed = 0

        for left, right in pairs:
            lmask = left.mask
            rmask = right.mask
            if lmask & rmask:
                continue
            preds = connecting(lmask, rmask)
            if not preds:
                continue
            union = lmask | rmask
            jcr = by_mask.get(union)
            if jcr is None:
                jcr = create(union)
                note_jcr_created()
            outside = ~union
            out_rows = jcr.rows
            out_tc = out_rows * ctc
            costed = 0
            slots = jcr.slots
            slots_get = slots.get
            slots_before = len(slots)
            best_cost = jcr.best_cost
            best_entry = jcr.best_entry

            for outer, inner in ((left, right), (right, left)):
                outer_rows = outer.rows
                inner_rows = inner.rows
                outer_slots = outer.slots.values()
                inner_best_cost = inner.best_cost
                inner_best_entry = inner.best_entry

                # Hash join: cheapest inputs, order destroyed.
                build = inner_rows * oc_tc
                probe = outer_rows * coc * 1.5
                cost = outer.best_cost + inner_best_cost + build + probe + out_tc
                inner_width = inner.width
                iw = inner_width if inner_width > 1 else 1
                build_bytes = inner_rows * iw
                if build_bytes > work_mem:
                    # Grace/hybrid hash: both sides written and read back once.
                    spill_pages = (build_bytes + outer_rows * iw) / page_size
                    cost = cost + 2.0 * spill_pages * spc
                costed += 1
                slot = slots_get(None)
                if slot is None or cost < slot[1]:
                    entry = (
                        M_HASH_JOIN, cost, out_rows, NO_FIELD,
                        outer.best_entry, inner_best_entry, NO_FIELD, NO_FIELD,
                    )
                    slots[None] = (None, cost, entry)
                    if cost < best_cost:
                        best_cost = cost
                        best_entry = entry

                # Nested loop per retained outer plan (outer order preserved).
                rescans = outer_rows - 1.0
                if rescans < 0.0:
                    rescans = 0.0
                rescan_term = rescans * (inner_rows * ctc * rescan_discount)
                qual = outer_rows * inner_rows * coc
                costed += len(outer_slots)
                for order, outer_cost, outer_entry in outer_slots:
                    cost = outer_cost + inner_best_cost + rescan_term + qual + out_tc
                    key = (
                        order
                        if order is not None and reach[order] & outside
                        else None
                    )
                    slot = slots_get(key)
                    if slot is None or cost < slot[1]:
                        entry = (
                            M_NESTLOOP, cost, out_rows,
                            NO_FIELD if order is None else order,
                            outer_entry, inner_best_entry, NO_FIELD, NO_FIELD,
                        )
                        slots[key] = (order, cost, entry)
                        if cost < best_cost:
                            best_cost = cost
                            best_entry = entry

                # Index nested loop: inner must be a base relation with an
                # index on a join column connecting to the outer. The probe
                # cost is the decomposed index_lookup_cost (descent constant
                # per relation, per-match constant per model) — it does not
                # vary by eclass, so it is hoisted above the predicate loop.
                if inner.level == 1:
                    inner_index = (inner.mask & -inner.mask).bit_length() - 1
                    indexed_names = indexed_names_all[inner_index]
                    if indexed_names:
                        per_probe_rows = out_rows / (
                            outer_rows if outer_rows > 1.0 else 1.0
                        )
                        matches = per_probe_rows if per_probe_rows > 1.0 else 1.0
                        probe = (
                            probe_descent[inner_index] + matches * probe_per_match
                        )
                        # Selections on the inner relation re-check their
                        # quals on every matched row of every probe.
                        probe_filter = filter_per_row[inner_index]
                        if probe_filter:
                            probe = probe + matches * probe_filter
                        probe_term = outer_rows * probe
                        seen_eclasses: set[int] = set()
                        for pred in preds:
                            if pred.left == inner_index:
                                column = pred.left_column
                            elif pred.right == inner_index:
                                column = pred.right_column
                            else:
                                continue
                            eclass = pred.eclass
                            if eclass in seen_eclasses:
                                continue
                            seen_eclasses.add(eclass)
                            if column not in indexed_names:
                                continue
                            # The inner child of an index NL is a per-probe
                            # index access, not a full scan of the inner
                            # relation; its node is built on the first
                            # retained candidate and shared by the rest.
                            probe_entry = None
                            costed += len(outer_slots)
                            for order, outer_cost, outer_entry in outer_slots:
                                cost = outer_cost + probe_term + out_tc
                                key = (
                                    order
                                    if order is not None and reach[order] & outside
                                    else None
                                )
                                slot = slots_get(key)
                                if slot is None or cost < slot[1]:
                                    if probe_entry is None:
                                        probe_entry = (
                                            M_INDEX_SCAN, probe, per_probe_rows,
                                            NO_FIELD, None, None,
                                            inner_index, eclass,
                                        )
                                    entry = (
                                        M_INDEX_NESTLOOP, cost, out_rows,
                                        NO_FIELD if order is None else order,
                                        outer_entry, probe_entry, NO_FIELD, eclass,
                                    )
                                    slots[key] = (order, cost, entry)
                                    if cost < best_cost:
                                        best_cost = cost
                                        best_entry = entry

            # Merge joins, one per connecting equivalence class (symmetric).
            # dict.fromkeys dedupes in first-occurrence order over `preds`
            # — the reference kernel derives its eclass sequence the same
            # way, so both kernels enumerate merge joins in the same order
            # regardless of hashing.
            if len(preds) == 1:
                eclasses: tuple[int, ...] = (preds[0].eclass,)
            else:
                eclasses = tuple(dict.fromkeys(pred.eclass for pred in preds))
            if eclasses:
                left_rows = left.rows
                right_rows = right.rows
                merge = (left_rows + right_rows) * coc
                left_sort = sort_cache.get(lmask)
                if left_sort is None:
                    left_sort = sort_fn(left)
                right_sort = sort_cache.get(rmask)
                if right_sort is None:
                    right_sort = sort_fn(right)
                left_slots_get = left.slots.get
                right_slots_get = right.slots.get
                for eclass in eclasses:
                    # Cheapest way to feed each side sorted on `eclass`: the
                    # input's retained plan for that order, taken as it is,
                    # or its unordered best plus an explicit sort (ties keep
                    # the ordered plan, matching the reference kernel's
                    # `<=`). The eclass connects both sides, so it is useful
                    # for each: an input plan sorted on it always sits in
                    # that slot, and a best taken here lacks the order.
                    left_cost = left.best_cost + left_sort
                    left_input = left_slots_get(eclass)
                    if left_input is not None and left_input[1] <= left_cost:
                        left_cost = left_input[1]
                    else:
                        left_input = None
                    right_cost = right.best_cost + right_sort
                    right_input = right_slots_get(eclass)
                    if right_input is not None and right_input[1] <= right_cost:
                        right_cost = right_input[1]
                    else:
                        right_input = None
                    cost = left_cost + right_cost + merge + out_tc
                    costed += 1
                    key = eclass if reach[eclass] & outside else None
                    slot = slots_get(key)
                    if slot is None or cost < slot[1]:
                        if left_input is None:
                            left_child = (
                                M_SORT, left_cost, left_rows, eclass,
                                left.best_entry, None, NO_FIELD, eclass,
                            )
                        else:
                            left_child = left_input[2]
                        if right_input is None:
                            right_child = (
                                M_SORT, right_cost, right_rows, eclass,
                                right.best_entry, None, NO_FIELD, eclass,
                            )
                        else:
                            right_child = right_input[2]
                        entry = (
                            M_MERGE_JOIN, cost, out_rows, eclass,
                            left_child, right_child, NO_FIELD, eclass,
                        )
                        slots[key] = (eclass, cost, entry)
                        if cost < best_cost:
                            best_cost = cost
                            best_entry = entry

            jcr.best_cost = best_cost
            jcr.best_entry = best_entry
            pending_costed += costed
            if pending_costed >= 1024:
                note_plans_costed(pending_costed)
                pending_costed = 0
            if len(slots) > slots_before:
                note_retained(len(slots) - slots_before)

        if pending_costed:
            note_plans_costed(pending_costed)

    # -- finishing --------------------------------------------------------------

    def _final_slot(self, jcr: JCR) -> tuple[float, tuple, bool]:
        """Pick the winning finalize slot: ``(cost, node, wrapped)``.

        Charges one costed plan per retained slot, exactly like the
        reference kernel's finalize loop.
        """
        final_sort = self._sort_cost(jcr)
        order_by_key = self.order_by_key
        note = self.counters.note_plans_costed
        best: tuple[float, tuple, bool] | None = None
        for order, cost, entry in jcr.slots.values():
            if order_by_key is not None and order == order_by_key:
                wrapped = False
            else:
                cost = cost + final_sort
                wrapped = True
            note()
            if best is None or cost < best[0]:
                best = (cost, entry, wrapped)
        if best is None:
            raise OptimizationError("JCR has no plans to finalize")
        return best

    def finalize(self, jcr: JCR) -> PlanRecord:
        """Pick the final plan, appending the ORDER BY sort when required.

        With an ORDER BY on a join column, a retained plan already sorted on
        that column skips the sort — the interesting-order payoff. Only the
        winning plan is materialized into a :class:`PlanRecord` tree; every
        losing retained slot stays a tuple node.
        """
        if jcr.mask != self.graph.all_mask:
            raise OptimizationError(
                f"finalize() called on incomplete JCR {jcr.mask:#x}"
            )
        if self.query.order_by is None:
            return jcr.best
        cost, entry, wrapped = self._final_slot(jcr)
        if not wrapped:
            return materialize(entry)
        order_by_key = self.order_by_key
        order_by_eclass = self.order_by_eclass
        return materialize((
            M_SORT, cost, jcr.rows,
            order_by_key if order_by_key is not None else NO_FIELD,
            entry, None, NO_FIELD,
            order_by_eclass if order_by_eclass is not None else NO_FIELD,
        ))

    def final_cost(self, jcr: JCR) -> float:
        """Cost of :meth:`finalize` without materializing anything.

        The randomized and genetic walkers score every explored join order
        with this; counter charges match :meth:`finalize` exactly.
        """
        if jcr.mask != self.graph.all_mask:
            raise OptimizationError(
                f"finalize() called on incomplete JCR {jcr.mask:#x}"
            )
        if self.query.order_by is None:
            return jcr.best_cost
        cost, _, _ = self._final_slot(jcr)
        return cost

    # -- estimation passthroughs ---------------------------------------------------

    def rows(self, mask: int) -> float:
        return self.est.rows(mask)
