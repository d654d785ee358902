"""DPconv kernel: layered (min,+) convolution over cardinality buckets.

"DPconv: Super-Polynomially Faster Join Ordering" (see PAPERS.md) shows
that under C_out-style cost — plan cost = sum of intermediate result
cardinalities — join-ordering DP can be rephrased as min-plus (tropical)
convolution over cost vectors indexed by quantized output cardinality.
This module ports the *structure* of that formulation onto the repo's
level-synchronous search drivers:

* a search level's valid pairs are bucketed into **cardinality layers**
  (quantized ``floor(log2(1 + |output|))``);
* each layer's input cost vectors are gathered straight from the
  struct-of-arrays :class:`~repro.plans.store.PlanStore` columns
  (:meth:`~repro.plans.store.PlanStore.layer_views`);
* the layer is combined elementwise by the min-plus rule
  ``(left + right) + |output|`` and reduced to one argmin winner per
  output relation-set, whose (left entry, right entry) parent pointers
  are appended to the store — ``finalize()`` still materializes only the
  winning tree.

The combine is exact precisely in the C_out regime: with a single cost
per subproblem and no interesting orders, the min over a level's
candidates is independent of enumeration interleaving, so the kernel's
winning cost is bit-identical to exhaustive DP's (asserted by the kernel
equivalence sweep). Outside that regime the recurrence breaks — index
nested loops drop the inner-cost term, ordered slots multiply the state —
so :class:`DPconvPlanSpace` refuses to construct unless the cost model
declares ``supports_dpconv_exact`` (:data:`repro.cost.COUT_COST_MODEL`).

Asymptotics caveat: the sub-``O(3^n)`` result in the DPconv paper comes
from replacing connected-pair enumeration with subset-sum convolution;
this port keeps the repo's DPccp/level-pair enumeration (and therefore
its pair count) and reproduces the layered-convolution *kernel* on top
of it, trading the asymptotic win for bit-exact interoperability with
the existing drivers, counters and budgets.
"""

from __future__ import annotations

import math

from repro.catalog.statistics import CatalogStatistics
from repro.core.base import SearchCounters
from repro.core.dp import DynamicProgrammingOptimizer
from repro.core.planspace import PlanSpace
from repro.core.table import JCRTable
from repro.cost.model import COUT_COST_MODEL, CostModel
from repro.errors import DPconvUnsupportedError
from repro.obs.names import SPAN_DPCONV_LEVEL
from repro.obs.runtime import current_tracer
from repro.obs.trace import maybe_span
from repro.plans.store import M_HASH_JOIN, NO_FIELD
from repro.query.query import Query

__all__ = ["DPconvOptimizer", "DPconvPlanSpace", "cardinality_layer"]

#: Candidate charges buffered between ``note_plans_costed`` calls — same
#: chunked-charging contract as the other kernels' pair loops.
_COSTED_CHARGE_CHUNK = 1024


def cardinality_layer(rows: float) -> int:
    """Quantized cardinality bucket: ``floor(log2(1 + rows))``.

    ``frexp`` keeps the quantization a pure float-exponent read —
    deterministic, no log rounding at bucket edges.
    """
    return math.frexp(1.0 + rows)[1] - 1


class DPconvPlanSpace(PlanSpace):
    """C_out plan space whose level driver is a layered min-plus convolution.

    Construction requires ``cost_model.supports_dpconv_exact`` — the
    kernel refuses (with a typed error) to run where its combine is not
    an exact search. All per-pair costing inherited from
    :class:`PlanSpace` (``join``/``join_batch``, used by non-level
    techniques under ``REPRO_KERNEL=dpconv``) already runs the C_out
    branch under such a model, so every entry point agrees.
    """

    def __init__(
        self,
        query: Query,
        stats: CatalogStatistics,
        cost_model: CostModel,
        counters: SearchCounters,
    ):
        if not cost_model.supports_dpconv_exact:
            raise DPconvUnsupportedError(
                "REPRO_KERNEL=dpconv requested"
            )
        super().__init__(query, stats, cost_model, counters)

    def join_level(self, table: JCRTable, jcr_pairs) -> None:
        """Convolve one search level: bucket, combine, recover parents.

        Counter totals match the serial C_out loop exactly: one costed
        plan per valid pair (charged in chunks), one created JCR per new
        relation set, one retained slot per relation set that keeps a
        plan — so budgets, skyline feature vectors and the equivalence
        sweep see no difference from exhaustive DP under the same model.
        """
        counters = self.counters
        note_plans_costed = counters.note_plans_costed
        note_retained = counters.note_retained
        note_jcr_created = counters.note_jcr_created
        connecting = self.graph.connecting
        by_mask = table._by_mask
        get_or_create = table.get_or_create

        # Stage 1 — bucket the level's valid pairs into cardinality
        # layers. Each layer keeps parallel lists: the output JCR, the
        # two input best entries (the parent pointers), and the output
        # cardinality the combine adds.
        layers: dict[int, tuple[list, list, list, list]] = {}
        layers_get = layers.get
        level = 0
        pair_count = 0
        for left, right in jcr_pairs:
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
            if not level:
                level = jcr.level
            layer_key = cardinality_layer(jcr.rows)
            layer = layers_get(layer_key)
            if layer is None:
                layer = layers[layer_key] = ([], [], [], [])
            jcrs, l_entries, r_entries, out_rows_list = layer
            jcrs.append(jcr)
            l_entries.append(left.best_entry)
            r_entries.append(right.best_entry)
            out_rows_list.append(jcr.rows)
            pair_count += 1

        # Stage 2 — per layer (ascending cardinality), gather the input
        # cost vectors from the store columns, combine by the min-plus
        # rule, and argmin-reduce per output relation set. Strict-< with
        # first-occurrence wins matches the serial kernel's incumbent
        # rule, so the recovered winner is the same pair.
        store = table.store
        store_add = store.add
        layer_views = store.layer_views
        tracer = current_tracer()
        pending = 0
        union_count = 0
        with maybe_span(tracer, SPAN_DPCONV_LEVEL, level=level) as span:
            for layer_key in sorted(layers):
                jcrs, l_entries, r_entries, out_rows_list = layers[layer_key]
                l_costs, _l_rows = layer_views(l_entries)
                r_costs, _r_rows = layer_views(r_entries)
                best_of: dict[int, tuple[float, int]] = {}
                for i, jcr in enumerate(jcrs):
                    # The (min,+) combine, in the C_out association order.
                    cost = (l_costs[i] + r_costs[i]) + out_rows_list[i]
                    pending += 1
                    if pending >= _COSTED_CHARGE_CHUNK:
                        note_plans_costed(pending)
                        pending = 0
                    incumbent = best_of.get(jcr.mask)
                    if incumbent is None or cost < incumbent[0]:
                        best_of[jcr.mask] = (cost, i)
                for mask, (cost, i) in best_of.items():
                    jcr = jcrs[i]
                    slots = jcr.slots
                    index = slots.get(None)
                    if index is not None and cost >= jcr.slot_costs[index]:
                        continue
                    # Parent-pointer recovery: one store row per winning
                    # relation set, referencing the argmin's inputs.
                    entry = store_add(
                        M_HASH_JOIN,
                        cost,
                        jcr.rows,
                        order=NO_FIELD,
                        left=l_entries[i],
                        right=r_entries[i],
                    )
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
                union_count += len(best_of)
            if span is not None:
                span.set(
                    layers=len(layers),
                    pairs=pair_count,
                    subsets=union_count,
                )
        if pending:
            note_plans_costed(pending)


class DPconvOptimizer(DynamicProgrammingOptimizer):
    """Exhaustive DP driven through the dpconv convolution kernel.

    ``technique="DPconv"`` in the registry. The cost model defaults to
    :data:`repro.cost.COUT_COST_MODEL` (the regime the kernel is exact
    in); passing any model without ``supports_dpconv_exact`` raises
    :class:`~repro.errors.DPconvUnsupportedError` at search time.
    """

    name = "DPconv"

    def __init__(self, budget=None, cost_model: CostModel | None = None):
        super().__init__(
            budget=budget,
            cost_model=(
                cost_model if cost_model is not None else COUT_COST_MODEL
            ),
        )

    def _search(self, query, stats, counters, timer):
        space = DPconvPlanSpace(query, stats, self.cost_model, counters)
        return self._search_in_space(query, stats, counters, space)
