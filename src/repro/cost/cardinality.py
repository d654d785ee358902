"""Consistent cardinality estimation for relation sets.

Dynamic programming requires that every join order of the same relation set
produce the *same* estimated output cardinality — otherwise plan comparison
inside a JCR is meaningless. :class:`CardinalityEstimator` therefore
estimates rows per *set* (bitmask), not per join tree:

``rows(S) = prod(rows of members) * prod(eclass selectivity factors)``

where each join equivalence class with ``t >= 2`` members inside ``S``
contributes one factor (see :mod:`repro.cost.selectivity`). An eclass
wholly inside ``S`` contributes its all-members factor, computed once at
construction; in a star, every eclass that contributes to a set lies
wholly inside it. Only an eclass partly inside ``S`` (a join column shared
by three or more relations) computes the factor of the members inside,
memoized per ``(eclass, inside)``. :meth:`CardinalityEstimator.estimate`
computes one set's rows, selectivity and width in a single uncached pass;
both kernels' JCR tables call it once per new JCR and keep the result on
the JCR. Only :meth:`rows` keeps a per-mask memo, for the heuristics
(GOO, IDP) that rescore candidate sets.

The estimator also produces the JCR feature-vector ingredients the SDP
pruner needs: the (log-space) output selectivity ``S`` — the ratio of the
JCR's output to the cartesian product of its base relations (Section 2.1.3).
Log space keeps 45-relation products inside float range.
"""

from __future__ import annotations

import math

from repro.catalog.statistics import CatalogStatistics, ColumnStats
from repro.cost.selectivity import eclass_selectivity, selection_selectivity
from repro.errors import CatalogError
from repro.query.joingraph import JoinGraph

__all__ = ["CardinalityEstimator"]


class CardinalityEstimator:
    """Per-relation-set cardinality estimator.

    Args:
        graph: The query's join graph.
        stats: Catalog statistics for every graph relation.
        min_rows: Lower clamp on any estimate (PostgreSQL clamps to 1).
        selections: Single-table filter predicates
            (:class:`repro.query.Selection`). Their selectivities scale the
            affected relations' effective base cardinalities, so every
            relation-set estimate reflects scan-time filtering. With no
            selections the estimator's arithmetic is untouched.
    """

    def __init__(
        self,
        graph: JoinGraph,
        stats: CatalogStatistics,
        min_rows: float = 1.0,
        selections=(),
    ):
        self._graph = graph
        self._min_rows = min_rows

        n = graph.n
        self._base_rows: list[float] = [0.0] * n
        self._base_log_rows: list[float] = [0.0] * n
        self._base_width: list[int] = [0] * n
        tables = []
        for index, name in enumerate(graph.relation_names):
            table = stats.table(name)
            tables.append(table)
            if table.row_count < 1:
                raise CatalogError(
                    f"relation {name!r} has no rows; cannot estimate joins"
                )
            self._base_rows[index] = float(table.row_count)
            self._base_log_rows[index] = math.log(table.row_count)
            self._base_width[index] = table.row_width
        if selections:
            factors: dict[int, float] = {}
            for selection in selections:
                index = graph.index_of(selection.relation)
                column = stats.table(selection.relation).column(selection.column)
                factor = selection_selectivity(
                    column, selection.op, selection.value
                )
                factors[index] = factors.get(index, 1.0) * factor
            for index, factor in factors.items():
                effective = max(min_rows, self._base_rows[index] * factor)
                self._base_rows[index] = effective
                self._base_log_rows[index] = math.log(effective)

        # Pre-resolve, per eclass: (relation mask, [(relation bit, stats)]),
        # and, in the same order, (relation mask, all-members log factor,
        # position) for estimate()'s pass over the eclasses.
        self._eclass_info: list[tuple[int, list[tuple[int, ColumnStats]]]] = []
        self._eclass_factors: list[tuple[int, float, int]] = []
        for position, points in enumerate(graph.eclasses.values()):
            mask = 0
            members: list[tuple[int, ColumnStats]] = []
            for rel_index, column in points:
                members.append((1 << rel_index, tables[rel_index].column(column)))
                mask |= 1 << rel_index
            self._eclass_info.append((mask, members))
            present = [column_stats for _bit, column_stats in members]
            factor = (
                math.log(eclass_selectivity(present)) if len(present) >= 2 else 0.0
            )
            self._eclass_factors.append((mask, factor, position))

        self._rows_cache: dict[int, float] = {}
        # (eclass index, member-relations-inside mask) -> log factor, for
        # eclasses only partly inside a set (a shared join column). Many
        # distinct relation sets share the same eclass intersection.
        self._eclass_factor_cache: dict[tuple[int, int], float] = {}

    # -- public API -----------------------------------------------------------

    def estimate(self, mask: int) -> tuple[float, float, int]:
        """``(rows, log selectivity, width)`` of the relation set ``mask``.

        Uncached: one pass over the member bits, in ascending bit order,
        sums the log base product and the row width, then one pass over
        the eclasses, in eclass order, sums the log selectivity factors.
        An eclass wholly inside the set adds its precomputed all-members
        factor; one with two or more (but not all) member relations inside
        goes through the ``(eclass, inside)`` factor cache.
        """
        if mask == 0:
            raise CatalogError("cannot estimate the empty relation set")
        base_log_rows = self._base_log_rows
        base_width = self._base_width
        log_product = 0.0
        width = 0
        remaining = mask
        while remaining:
            bit = remaining & -remaining
            index = bit.bit_length() - 1
            log_product += base_log_rows[index]
            width += base_width[index]
            remaining ^= bit
        log_sel = 0.0
        for eclass_mask, whole_factor, index in self._eclass_factors:
            inside = eclass_mask & mask
            if inside == eclass_mask:
                log_sel += whole_factor
            elif inside & (inside - 1):  # two or more member relations inside
                factor = self._eclass_factor_cache.get((index, inside))
                if factor is None:
                    present = [
                        stats
                        for bit, stats in self._eclass_info[index][1]
                        if bit & inside
                    ]
                    factor = math.log(eclass_selectivity(present))
                    self._eclass_factor_cache[(index, inside)] = factor
                log_sel += factor
        log_rows = log_product + log_sel
        rows = math.exp(log_rows) if log_rows < 700 else math.inf
        # The clamp returns what max(min_rows, rows) returns, ties included.
        if not rows > self._min_rows:
            rows = self._min_rows
        return rows, math.log(rows) - log_product, width

    def rows(self, mask: int) -> float:
        """Estimated output rows of joining the relation set ``mask``.

        Memoized per mask: greedy and IDP score the same candidate sets
        many times before building any of them.
        """
        cached = self._rows_cache.get(mask)
        if cached is None:
            cached = self._rows_cache[mask] = self.estimate(mask)[0]
        return cached

    def width(self, mask: int) -> int:
        """Estimated row width (bytes) of the join output for ``mask``."""
        width = 0
        remaining = mask
        while remaining:
            bit = remaining & -remaining
            width += self._base_width[bit.bit_length() - 1]
            remaining ^= bit
        return width

    def base_rows(self, index: int) -> float:
        """Row count of base relation ``index``."""
        return self._base_rows[index]
