"""Cost-model constants.

The defaults mirror PostgreSQL's planner GUCs (``seq_page_cost`` = 1 defines
the cost unit). A :class:`CostModel` is immutable; experiments that want a
different I/O-to-CPU balance construct their own instance and thread it
through the optimizer — all costing functions take the model explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CatalogError

__all__ = ["CostModel", "COUT_COST_MODEL", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Planner cost constants (PostgreSQL-style).

    Attributes:
        seq_page_cost: Cost of a sequentially fetched page (the unit).
        random_page_cost: Cost of a randomly fetched page.
        cpu_tuple_cost: CPU cost of processing one tuple.
        cpu_index_tuple_cost: CPU cost of processing one index entry.
        cpu_operator_cost: CPU cost of evaluating one operator/comparison.
        work_mem_bytes: Memory available to a single sort or hash before it
            spills to disk.
        rescan_discount: Fraction of an inner plan's per-tuple cost charged
            on nested-loop rescans (models materialization / caching).
        index_cache_factor: Fraction of index-lookup heap fetches assumed to
            hit cache when the same index is probed repeatedly.
        cout: Cost under C_out (plan cost = sum of intermediate result
            cardinalities). True switches every kernel into the C_out
            regime — base relations cost 0, each join costs exactly the
            output cardinality on top of its inputs, and there are no
            access-path, join-method or interesting-order alternatives.
    """

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    work_mem_bytes: int = 4 * 1024 * 1024
    rescan_discount: float = 0.10
    index_cache_factor: float = 0.5
    page_size: int = 8192
    cout: bool = False

    def __post_init__(self) -> None:
        for name in (
            "seq_page_cost",
            "random_page_cost",
            "cpu_tuple_cost",
            "cpu_index_tuple_cost",
            "cpu_operator_cost",
        ):
            if getattr(self, name) < 0:
                raise CatalogError(f"{name} must be non-negative")
        if self.work_mem_bytes < 1:
            raise CatalogError("work_mem_bytes must be positive")
        if not 0.0 <= self.rescan_discount <= 1.0:
            raise CatalogError("rescan_discount must be in [0, 1]")
        if not 0.0 <= self.index_cache_factor <= 1.0:
            raise CatalogError("index_cache_factor must be in [0, 1]")
        if self.page_size < 1:
            raise CatalogError("page_size must be positive")


#: Shared default model; treat as read-only.
DEFAULT_COST_MODEL = CostModel()

#: The C_out cost model: cost of a plan = sum of intermediate result
#: cardinalities (base relations are free). Pass it as ``cost_model=``
#: to any technique. Treat as read-only.
COUT_COST_MODEL = CostModel(cout=True)
