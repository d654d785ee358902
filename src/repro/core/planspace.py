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
and integer entry ids:

* per-pair invariants (output rows x tuple cost, build/probe terms, rescan
  products, qual terms, sort costs) are hoisted out of the per-plan loops,
  with the remaining additions kept in the *exact* association order of the
  formulas in :mod:`repro.cost.joins` — float addition is not associative,
  and the kernel's costs must be bit-identical to the reference kernel's;
* candidate costs are compared against slot incumbents by plain float
  comparison on :attr:`repro.plans.JCR.slot_costs`; nothing is allocated
  for a losing candidate;
* winners append one row to the shared struct-of-arrays
  :class:`~repro.plans.store.PlanStore` — (operator, order, left entry,
  right entry) parent pointers — and :class:`~repro.plans.PlanRecord`
  trees are only reconstructed for the final winning plan at
  :meth:`finalize` time;
* counter/budget traffic is batched to one ``note_plans_costed(n)`` call
  per pair (the budget checkpoint interval in :mod:`repro.core.base`
  amortizes the rest), so the disabled-observability path costs one
  boolean per pair.

Every costed alternative is still charged to the search counters (the
paper's "Costing (in plans)" overhead) with exactly the same totals as the
reference kernel in :mod:`repro.core.reference`.

One regime modifies the space: under **C_out** (``cost_model.cout``)
base relations cost 0 (a single sequential scan, no ordered access paths)
and each join has a single alternative costing ``(left + right) +
|output|``, so a plan's cost is the sum of its intermediate result sizes.
"""

from __future__ import annotations

import math

from repro.catalog.statistics import CatalogStatistics, ColumnStats, TableStats
from repro.core.base import SearchCounters
from repro.core.table import JCRTable
from repro.cost.cardinality import CardinalityEstimator
from repro.cost.model import CostModel
from repro.cost.scans import filter_cost, index_scan_full_cost, seq_scan_cost
from repro.cost.sorts import sort_cost
from repro.errors import OptimizationError
from repro.plans.jcr import JCR
from repro.plans.ordering import useful_orders
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
    PlanStore,
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
        #: C_out regime: see the module docstring.
        self._cout = cost_model.cout
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
        self._tables: list[TableStats] = [
            stats.table(name) for name in graph.relation_names
        ]
        # Per relation: [(eclass, column stats)] for indexed join columns.
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

        # Selections, grouped per relation: qual counts, unfiltered base
        # cardinalities, and the per-relation filter cost added on top of
        # every access path. All zeros for selection-free queries, leaving
        # the existing float arithmetic untouched.
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

        # One plan arena per space: IDP re-seeds fresh tables every
        # iteration while carrying composite JCRs across, so their entry
        # ids must stay valid beyond any single table's lifetime.
        self.store = PlanStore()

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
        self._probe_descent: list[float] = [
            math.ceil(math.log2(t.row_count + 2)) * cost_model.cpu_operator_cost
            for t in self._tables
        ]
        # Per relation: the join-column names that carry an index.
        self._indexed_names: list[frozenset[str]] = [
            frozenset(
                column
                for column in graph.join_columns_of(index)
                if t.column(column).has_index
            )
            for index, t in enumerate(self._tables)
        ]

    # -- helpers ---------------------------------------------------------------

    def new_table(self) -> JCRTable:
        """A fresh memo table backed by this space's shared plan arena."""
        return JCRTable(self.est, self.store)

    def useful(self, mask: int) -> set[int]:
        """Useful order keys for ``mask`` (cached)."""
        cached = self._useful_cache.get(mask)
        if cached is None:
            cached = useful_orders(
                self.graph, mask, self.order_by_eclass, self._extra_order
            )
            self._useful_cache[mask] = cached
        return cached

    def _sort_cost(self, jcr: JCR) -> float:
        """Cost of sorting ``jcr``'s output (cached per relation set)."""
        cached = self._sort_cost_cache.get(jcr.mask)
        if cached is None:
            cached = sort_cost(jcr.rows, self.est.width(jcr.mask), self.cm)
            self._sort_cost_cache[jcr.mask] = cached
        return cached

    # -- level 1: access paths ---------------------------------------------------

    def base_jcr(self, table: JCRTable, relation_index: int) -> JCR:
        """Build the access-path JCR for one base relation.

        Selections wrap every access path in a Filter entry: the scan keeps
        its unfiltered rows/cost, the filter charges qual evaluation
        (:func:`repro.cost.scans.filter_cost`) and outputs the JCR's
        filtered cardinality, preserving the scan's physical order.
        """
        mask = 1 << relation_index
        jcr, created = table.get_or_create(mask)
        if created:
            self.counters.note_jcr_created()
        if self._cout:
            # C_out regime: base relations are free and carry no
            # interesting orders — a single zero-cost sequential scan
            # (rows still reflect any selections via the estimator).
            self.counters.note_plans_costed()
            if jcr.improves(None, 0.0):
                eid = table.store.add(
                    M_SEQ_SCAN, 0.0, jcr.rows, rel=relation_index
                )
                _, new_slot = jcr.put(None, None, 0.0, eid)
                if new_slot:
                    self.counters.note_retained()
            return jcr
        useful = self.useful(mask)
        stats_table = self._tables[relation_index]
        cm = self.cm
        store_add = table.store.add
        counters = self.counters
        quals = self._selection_quals[relation_index]
        filter_add = self._filter_costs[relation_index]
        raw_rows = self._raw_rows[relation_index]

        scan_cost = seq_scan_cost(stats_table, cm)
        cost = scan_cost + filter_add if quals else scan_cost
        counters.note_plans_costed()
        if jcr.improves(None, cost):
            if quals:
                child = store_add(
                    M_SEQ_SCAN, scan_cost, raw_rows, rel=relation_index
                )
                eid = store_add(
                    M_FILTER, cost, jcr.rows, left=child, rel=relation_index
                )
            else:
                eid = store_add(M_SEQ_SCAN, cost, jcr.rows, rel=relation_index)
            _, new_slot = jcr.put(None, None, cost, eid)
            if new_slot:
                counters.note_retained()

        for eclass, _col_stats in self._indexed_join_columns[relation_index]:
            if eclass not in useful:
                continue
            scan_cost = index_scan_full_cost(stats_table, cm)
            cost = scan_cost + filter_add if quals else scan_cost
            counters.note_plans_costed()
            if jcr.improves(eclass, cost):
                if quals:
                    child = store_add(
                        M_INDEX_SCAN,
                        scan_cost,
                        raw_rows,
                        order=eclass,
                        rel=relation_index,
                        eclass=eclass,
                    )
                    eid = store_add(
                        M_FILTER,
                        cost,
                        jcr.rows,
                        order=eclass,
                        left=child,
                        rel=relation_index,
                    )
                else:
                    eid = store_add(
                        M_INDEX_SCAN,
                        cost,
                        jcr.rows,
                        order=eclass,
                        rel=relation_index,
                        eclass=eclass,
                    )
                _, new_slot = jcr.put(eclass, eclass, cost, eid)
                if new_slot:
                    counters.note_retained()

        # Non-join ORDER BY column with an index: one more ordered access
        # path under the synthetic order key.
        order_scan = self._order_index_scan
        if order_scan is not None and order_scan[0] == relation_index:
            key = order_scan[1]
            if key in useful:
                scan_cost = index_scan_full_cost(stats_table, cm)
                cost = scan_cost + filter_add if quals else scan_cost
                counters.note_plans_costed()
                if jcr.improves(key, cost):
                    if quals:
                        child = store_add(
                            M_INDEX_SCAN,
                            scan_cost,
                            raw_rows,
                            order=key,
                            rel=relation_index,
                        )
                        eid = store_add(
                            M_FILTER,
                            cost,
                            jcr.rows,
                            order=key,
                            left=child,
                            rel=relation_index,
                        )
                    else:
                        eid = store_add(
                            M_INDEX_SCAN,
                            cost,
                            jcr.rows,
                            order=key,
                            rel=relation_index,
                        )
                    _, new_slot = jcr.put(key, key, cost, eid)
                    if new_slot:
                        counters.note_retained()
        return jcr

    # -- joins ---------------------------------------------------------------------

    def join(self, table: JCRTable, left: JCR, right: JCR) -> JCR | None:
        """Cost all join alternatives for ``left`` x ``right``.

        Returns the (created or updated) output JCR, or None when the inputs
        overlap or are not connected (cartesian products are not explored).

        Single-pair convenience over :meth:`join_batch` (the connectivity
        probe repeats the batch's, but ``JoinGraph.connecting`` memoizes per
        mask pair, so the second lookup is one dict hit).
        """
        lmask = left.mask
        rmask = right.mask
        if lmask & rmask:
            return None
        if not self.graph.connecting(lmask, rmask):
            return None
        self.join_batch(table, ((left, right),))
        return table._by_mask[lmask | rmask]

    def join_batch(self, table: JCRTable, pairs) -> None:
        """Cost all join alternatives for every ``(left, right)`` JCR pair.

        This is the hottest loop in the repository (exhaustive DP pushes
        hundreds of thousands of pairs per query through it, a level at a
        time). Everything is local floats and ints: every batch-invariant —
        cost constants, store columns, caches, counter methods — is hoisted
        into locals once per call, and the cost expressions inline the
        formulas of :mod:`repro.cost.joins` term by term, preserving their
        association order exactly so costs stay bit-identical to the
        reference kernel. Pairs that overlap or are not connected are
        skipped (cartesian products are not explored).
        """
        if self._cout:
            self._join_batch_cout(table, pairs)
            return
        graph = self.graph
        connecting = graph.connecting
        by_mask = table._by_mask
        get_or_create = table.get_or_create
        counters = self.counters
        note_plans_costed = counters.note_plans_costed
        note_retained = counters.note_retained
        note_jcr_created = counters.note_jcr_created
        useful_cache = self._useful_cache
        useful_fn = self.useful
        sort_cache = self._sort_cost_cache
        sort_fn = self._sort_cost
        probe_descent = self._probe_descent
        probe_per_match = self._probe_per_match
        indexed_names_all = self._indexed_names
        filter_per_row = self._filter_per_row

        # Store columns, aliased for inline appends (store.add is too hot to
        # call ~100k times per query; the append sequence below is its body).
        store = table.store
        st_method = store.method
        st_order = store.order
        st_left = store.left
        st_right = store.right
        st_rel = store.rel
        st_eclass = store.eclass
        st_rows = store.rows
        st_cost = store.cost

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
                jcr, _ = get_or_create(union)
                note_jcr_created()
            useful = useful_cache.get(union)
            if useful is None:
                useful = useful_fn(union)
            out_rows = jcr.rows
            out_tc = out_rows * ctc
            costed = 0
            new_slots = 0

            slots = jcr.slots
            slots_get = slots.get
            slot_orders = jcr.slot_orders
            slot_costs = jcr.slot_costs
            slot_entries = jcr.slot_entries
            best_cost = jcr.best_cost
            best_entry = jcr.best_entry
            # The unordered slot is hit by most candidates (hash joins
            # always, NL/merge whenever the order is not useful); track its
            # position in a local instead of a dict probe per candidate.
            none_index = slots_get(None)

            for outer, inner in ((left, right), (right, left)):
                outer_rows = outer.rows
                inner_rows = inner.rows
                outer_best_cost = outer.best_cost
                outer_best_entry = outer.best_entry
                inner_best_cost = inner.best_cost
                inner_best_entry = inner.best_entry

                # Hash join: cheapest inputs, order destroyed.
                build = inner_rows * oc_tc
                probe = outer_rows * coc * 1.5
                cost = outer_best_cost + inner_best_cost + build + probe + out_tc
                inner_width = inner.width
                iw = inner_width if inner_width > 1 else 1
                build_bytes = inner_rows * iw
                if build_bytes > work_mem:
                    # Grace/hybrid hash: both sides written and read back once.
                    spill_pages = (build_bytes + outer_rows * iw) / page_size
                    cost = cost + 2.0 * spill_pages * spc
                costed += 1
                index = none_index
                if index is None or cost < slot_costs[index]:
                    entry = len(st_method)
                    st_method.append(M_HASH_JOIN)
                    st_order.append(NO_FIELD)
                    st_left.append(outer_best_entry)
                    st_right.append(inner_best_entry)
                    st_rel.append(NO_FIELD)
                    st_eclass.append(NO_FIELD)
                    st_rows.append(out_rows)
                    st_cost.append(cost)
                    if index is None:
                        none_index = slots[None] = len(slot_costs)
                        slot_orders.append(None)
                        slot_costs.append(cost)
                        slot_entries.append(entry)
                        new_slots += 1
                    else:
                        slot_orders[index] = None
                        slot_costs[index] = cost
                        slot_entries[index] = entry
                    if cost < best_cost:
                        best_cost = cost
                        best_entry = entry

                # Nested loop per retained outer plan (outer order preserved).
                rescans = outer_rows - 1.0
                if rescans < 0.0:
                    rescans = 0.0
                rescan_term = rescans * (inner_rows * ctc * rescan_discount)
                qual = outer_rows * inner_rows * coc
                outer_orders = outer.slot_orders
                outer_entries = outer.slot_entries
                for position, outer_cost in enumerate(outer.slot_costs):
                    cost = outer_cost + inner_best_cost + rescan_term + qual + out_tc
                    costed += 1
                    order = outer_orders[position]
                    key = order if order in useful else None
                    index = none_index if key is None else slots_get(key)
                    if index is None or cost < slot_costs[index]:
                        entry = len(st_method)
                        st_method.append(M_NESTLOOP)
                        st_order.append(order if order is not None else NO_FIELD)
                        st_left.append(outer_entries[position])
                        st_right.append(inner_best_entry)
                        st_rel.append(NO_FIELD)
                        st_eclass.append(NO_FIELD)
                        st_rows.append(out_rows)
                        st_cost.append(cost)
                        if index is None:
                            slots[key] = len(slot_costs)
                            if key is None:
                                none_index = slots[None]
                            slot_orders.append(order)
                            slot_costs.append(cost)
                            slot_entries.append(entry)
                            new_slots += 1
                        else:
                            slot_orders[index] = order
                            slot_costs[index] = cost
                            slot_entries[index] = entry
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
                            # relation; its entry is only created if some
                            # candidate is retained.
                            probe_entry = -1
                            for position, outer_cost in enumerate(
                                outer.slot_costs
                            ):
                                cost = outer_cost + probe_term + out_tc
                                costed += 1
                                order = outer_orders[position]
                                key = order if order in useful else None
                                index = (
                                    none_index if key is None else slots_get(key)
                                )
                                if index is None or cost < slot_costs[index]:
                                    if probe_entry < 0:
                                        probe_entry = len(st_method)
                                        st_method.append(M_INDEX_SCAN)
                                        st_order.append(NO_FIELD)
                                        st_left.append(NO_FIELD)
                                        st_right.append(NO_FIELD)
                                        st_rel.append(inner_index)
                                        st_eclass.append(eclass)
                                        st_rows.append(per_probe_rows)
                                        st_cost.append(probe)
                                    entry = len(st_method)
                                    st_method.append(M_INDEX_NESTLOOP)
                                    st_order.append(
                                        order if order is not None else NO_FIELD
                                    )
                                    st_left.append(outer_entries[position])
                                    st_right.append(probe_entry)
                                    st_rel.append(NO_FIELD)
                                    st_eclass.append(eclass)
                                    st_rows.append(out_rows)
                                    st_cost.append(cost)
                                    if index is None:
                                        slots[key] = len(slot_costs)
                                        if key is None:
                                            none_index = slots[None]
                                        slot_orders.append(order)
                                        slot_costs.append(cost)
                                        slot_entries.append(entry)
                                        new_slots += 1
                                    else:
                                        slot_orders[index] = order
                                        slot_costs[index] = cost
                                        slot_entries[index] = entry
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
                left_rows_plus_right = left.rows + right.rows
                left_sort = sort_cache.get(lmask)
                if left_sort is None:
                    left_sort = sort_fn(left)
                right_sort = sort_cache.get(rmask)
                if right_sort is None:
                    right_sort = sort_fn(right)
                left_slots_get = left.slots.get
                right_slots_get = right.slots.get
                for eclass in eclasses:
                    # Cheapest way to feed each side sorted on `eclass`: an
                    # already-ordered retained plan, or the unordered best
                    # plus an explicit sort (ties keep the ordered plan,
                    # matching the reference kernel's `<=`).
                    left_cost = left.best_cost + left_sort
                    left_entry = left.best_entry
                    position = left_slots_get(eclass)
                    if (
                        position is not None
                        and left.slot_costs[position] <= left_cost
                    ):
                        left_cost = left.slot_costs[position]
                        left_entry = left.slot_entries[position]
                    right_cost = right.best_cost + right_sort
                    right_entry = right.best_entry
                    position = right_slots_get(eclass)
                    if (
                        position is not None
                        and right.slot_costs[position] <= right_cost
                    ):
                        right_cost = right.slot_costs[position]
                        right_entry = right.slot_entries[position]
                    merge = left_rows_plus_right * coc
                    cost = left_cost + right_cost + merge + out_tc
                    costed += 1
                    key = eclass if eclass in useful else None
                    index = none_index if key is None else slots_get(key)
                    if index is None or cost < slot_costs[index]:
                        # Wrap an input in a Sort entry only if the chosen
                        # plan lacks the physical order (a demoted-but-ordered
                        # best still skips its sort).
                        if st_order[left_entry] != eclass:
                            left_child = len(st_method)
                            st_method.append(M_SORT)
                            st_order.append(eclass)
                            st_left.append(left_entry)
                            st_right.append(NO_FIELD)
                            st_rel.append(NO_FIELD)
                            st_eclass.append(eclass)
                            st_rows.append(left.rows)
                            st_cost.append(left_cost)
                        else:
                            left_child = left_entry
                        if st_order[right_entry] != eclass:
                            right_child = len(st_method)
                            st_method.append(M_SORT)
                            st_order.append(eclass)
                            st_left.append(right_entry)
                            st_right.append(NO_FIELD)
                            st_rel.append(NO_FIELD)
                            st_eclass.append(eclass)
                            st_rows.append(right.rows)
                            st_cost.append(right_cost)
                        else:
                            right_child = right_entry
                        entry = len(st_method)
                        st_method.append(M_MERGE_JOIN)
                        st_order.append(eclass)
                        st_left.append(left_child)
                        st_right.append(right_child)
                        st_rel.append(NO_FIELD)
                        st_eclass.append(eclass)
                        st_rows.append(out_rows)
                        st_cost.append(cost)
                        if index is None:
                            slots[key] = len(slot_costs)
                            if key is None:
                                none_index = slots[None]
                            slot_orders.append(eclass)
                            slot_costs.append(cost)
                            slot_entries.append(entry)
                            new_slots += 1
                        else:
                            slot_orders[index] = eclass
                            slot_costs[index] = cost
                            slot_entries[index] = entry
                        if cost < best_cost:
                            best_cost = cost
                            best_entry = entry

            jcr.best_cost = best_cost
            jcr.best_entry = best_entry
            pending_costed += costed
            if pending_costed >= 1024:
                note_plans_costed(pending_costed)
                pending_costed = 0
            if new_slots > 0:
                note_retained(new_slots)

        if pending_costed:
            note_plans_costed(pending_costed)

    def _join_batch_cout(self, table: JCRTable, pairs) -> None:
        """C_out regime join loop: one alternative per connected pair.

        Cost is ``(left.best + right.best) + |output|``, stored as a hash
        join of the cheapest inputs. No ordered slots, no merge/sort/index
        alternatives: interesting orders do not exist under C_out.
        """
        connecting = self.graph.connecting
        by_mask = table._by_mask
        get_or_create = table.get_or_create
        counters = self.counters
        note_plans_costed = counters.note_plans_costed
        note_retained = counters.note_retained
        note_jcr_created = counters.note_jcr_created
        store = table.store
        st_method = store.method
        st_order = store.order
        st_left = store.left
        st_right = store.right
        st_rel = store.rel
        st_eclass = store.eclass
        st_rows = store.rows
        st_cost = store.cost
        pending_costed = 0

        for left, right in pairs:
            lmask = left.mask
            rmask = right.mask
            if lmask & rmask:
                continue
            if not connecting(lmask, rmask):
                continue
            union = lmask | rmask
            jcr = by_mask.get(union)
            if jcr is None:
                jcr, _ = get_or_create(union)
                note_jcr_created()
            out_rows = jcr.rows
            cost = (left.best_cost + right.best_cost) + out_rows
            pending_costed += 1
            slots = jcr.slots
            index = slots.get(None)
            if index is None or cost < jcr.slot_costs[index]:
                entry = len(st_method)
                st_method.append(M_HASH_JOIN)
                st_order.append(NO_FIELD)
                st_left.append(left.best_entry)
                st_right.append(right.best_entry)
                st_rel.append(NO_FIELD)
                st_eclass.append(NO_FIELD)
                st_rows.append(out_rows)
                st_cost.append(cost)
                if index is None:
                    slots[None] = len(jcr.slot_costs)
                    jcr.slot_orders.append(None)
                    jcr.slot_costs.append(cost)
                    jcr.slot_entries.append(entry)
                    note_retained()
                else:
                    jcr.slot_costs[index] = cost
                    jcr.slot_entries[index] = entry
                if cost < jcr.best_cost:
                    jcr.best_cost = cost
                    jcr.best_entry = entry
            if pending_costed >= 1024:
                note_plans_costed(pending_costed)
                pending_costed = 0

        if pending_costed:
            note_plans_costed(pending_costed)

    # -- finishing --------------------------------------------------------------

    def _final_slot(self, jcr: JCR) -> tuple[float, int, bool]:
        """Pick the winning finalize slot: ``(cost, slot position, wrapped)``.

        Charges one costed plan per retained slot, exactly like the
        reference kernel's finalize loop.
        """
        final_sort = self._sort_cost(jcr)
        order_by_key = self.order_by_key
        note = self.counters.note_plans_costed
        best_cost = 0.0
        best_position = -1
        best_wrapped = False
        slot_orders = jcr.slot_orders
        for position, cost in enumerate(jcr.slot_costs):
            if (
                order_by_key is not None
                and slot_orders[position] == order_by_key
            ):
                wrapped = False
            else:
                cost = cost + final_sort
                wrapped = True
            note()
            if best_position < 0 or cost < best_cost:
                best_cost = cost
                best_position = position
                best_wrapped = wrapped
        if best_position < 0:
            raise OptimizationError("JCR has no plans to finalize")
        return best_cost, best_position, best_wrapped

    def finalize(self, jcr: JCR) -> PlanRecord:
        """Pick the final plan, appending the ORDER BY sort when required.

        With an ORDER BY on a join column, a retained plan already sorted on
        that column skips the sort — the interesting-order payoff. Only the
        winning plan is materialized into a :class:`PlanRecord` tree; every
        losing retained slot stays a store entry.
        """
        if jcr.mask != self.graph.all_mask:
            raise OptimizationError(
                f"finalize() called on incomplete JCR {jcr.mask:#x}"
            )
        if self.query.order_by is None:
            return jcr.best
        if self._cout:
            # C_out charges only intermediate cardinalities, so the
            # enforcer sort is free: one costed alternative, same cost.
            self.counters.note_plans_costed()
            store = jcr.store
            eid = store.add(
                M_SORT,
                jcr.best_cost,
                jcr.rows,
                order=(
                    self.order_by_key
                    if self.order_by_key is not None
                    else NO_FIELD
                ),
                left=jcr.best_entry,
                eclass=(
                    self.order_by_eclass
                    if self.order_by_eclass is not None
                    else NO_FIELD
                ),
            )
            return store.materialize(eid)
        cost, position, wrapped = self._final_slot(jcr)
        entry = jcr.slot_entries[position]
        store = jcr.store
        if not wrapped:
            return store.materialize(entry)
        order_by_key = self.order_by_key
        order_by_eclass = self.order_by_eclass
        eid = store.add(
            M_SORT,
            cost,
            jcr.rows,
            order=order_by_key if order_by_key is not None else NO_FIELD,
            left=entry,
            eclass=order_by_eclass if order_by_eclass is not None else NO_FIELD,
        )
        return store.materialize(eid)

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
        if self._cout:
            self.counters.note_plans_costed()
            return jcr.best_cost
        cost, _, _ = self._final_slot(jcr)
        return cost

    # -- estimation passthroughs ---------------------------------------------------

    def rows(self, mask: int) -> float:
        return self.est.rows(mask)

    def width(self, mask: int) -> int:
        """Estimated output row width for ``mask``.

        Shares the estimator's per-mask width cache, so every consumer of
        the plan space (join costing, sort costing, external tooling) hits
        one memo rather than recomputing the bitmask sum.
        """
        return self.est.width(mask)

    def log_selectivity(self, mask: int) -> float:
        return self.est.log_selectivity(mask)
