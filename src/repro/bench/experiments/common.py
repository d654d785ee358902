"""Shared experiment infrastructure: settings, schema cache, memoized runs.

Experiment sizes scale with :class:`ExperimentSettings`, one field per
``sdp-bench`` flag:

* ``instances`` — per-cell query instances (the paper runs thousands to
  millions per cell; quality percentages stabilize with tens);
* ``heavy_instances`` — instance count for cells where some technique is
  expensive or infeasible (large DP / IDP runs);
* ``max_seconds`` — per-optimization wall-clock budget; together with
  :data:`MEMORY_BUDGET_BYTES` it defines the feasibility frontier (the
  paper's machines bounded both);
* ``seed`` — workload seed (every catalog is built from
  :data:`SCHEMA_SEED`);
* ``robust`` / ``workers`` — fallback-ladder mode and the grid's process
  count.

A size (``instances``, ``heavy_instances``, ``max_seconds``) that is not
positive raises :class:`~repro.errors.BenchmarkError` naming its flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.runner import ComparisonResult, run_comparison
from repro.bench.workloads import WorkloadSpec
from repro.catalog.schema import Schema, SchemaBuilder, paper_schema
from repro.catalog.statistics import CatalogStatistics, analyze
from repro.core.base import SearchBudget
from repro.errors import BenchmarkError

__all__ = [
    "ExperimentSettings",
    "MEMORY_BUDGET_BYTES",
    "SCHEMA_SEED",
    "paper_catalog",
    "scaleup_catalog",
    "cached_comparison",
    "clear_caches",
]

#: Modeled planner-memory budget per optimization: the paper's 1 GB.
MEMORY_BUDGET_BYTES = 1_000_000_000

#: Catalog seed of every experiment's schema.
SCHEMA_SEED = 0

#: Sizes that must be positive: field -> CLI flag.
_SIZES = {
    "instances": "--instances",
    "heavy_instances": "--heavy-instances",
    "max_seconds": "--max-seconds",
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling experiment scale and determinism."""

    instances: int = 10
    heavy_instances: int = 6
    max_seconds: float = 60.0
    seed: int = 0
    #: Run comparisons through the fallback ladder (no ``*`` cells).
    robust: bool = False
    #: Process count for the optimization grid (1 = serial in-process).
    workers: int = 1

    def __post_init__(self) -> None:
        for name, flag in _SIZES.items():
            value = getattr(self, name)
            if not value > 0:
                raise BenchmarkError(f"{flag} must be positive, got {value}")

    def scaled(self, instances: int) -> "ExperimentSettings":
        """A copy with a different per-cell instance count."""
        return replace(self, instances=instances)

    def budget(self) -> SearchBudget:
        """The per-optimization budget these settings imply."""
        return SearchBudget(
            max_memory_bytes=MEMORY_BUDGET_BYTES,
            max_seconds=self.max_seconds,
        )


_SCHEMA_CACHE: dict[tuple, tuple[Schema, CatalogStatistics]] = {}
_COMPARISON_CACHE: dict[tuple, ComparisonResult] = {}


def paper_catalog() -> tuple[Schema, CatalogStatistics]:
    """The paper's 25-relation schema plus statistics (cached)."""
    key = ("paper",)
    if key not in _SCHEMA_CACHE:
        schema = paper_schema(seed=SCHEMA_SEED)
        _SCHEMA_CACHE[key] = (schema, analyze(schema))
    return _SCHEMA_CACHE[key]


def scaleup_catalog(relation_count: int = 50) -> tuple[Schema, CatalogStatistics]:
    """The extended schema for the maximum-scale-up experiment (cached).

    Besides more relations, the extended schema carries more columns per
    relation (the paper's 24 columns cannot anchor a 45-spoke star: each
    spoke consumes a distinct hub column).
    """
    key = ("scaleup", relation_count)
    if key not in _SCHEMA_CACHE:
        schema = SchemaBuilder(
            seed=SCHEMA_SEED,
            relation_count=relation_count,
            column_count=relation_count + 2,
            name=f"scaleup-{relation_count}",
        ).build()
        _SCHEMA_CACHE[key] = (schema, analyze(schema))
    return _SCHEMA_CACHE[key]


def cached_comparison(
    settings: ExperimentSettings,
    spec: WorkloadSpec,
    techniques: list[str],
    instances: int,
) -> ComparisonResult:
    """Run (or reuse) a workload-cell comparison.

    Quality and overhead tables of the paper share the same runs (e.g.
    Tables 1.1 and 1.2 both come from Star-Chain-15); memoizing on the cell
    definition keeps a full report generation from repeating them.
    """
    key = (settings, spec, tuple(techniques), instances)
    if key not in _COMPARISON_CACHE:
        schema, stats = paper_catalog()
        _COMPARISON_CACHE[key] = run_comparison(
            spec,
            schema,
            techniques,
            instances=instances,
            stats=stats,
            budget=settings.budget(),
            robust=settings.robust,
            workers=settings.workers,
        )
    return _COMPARISON_CACHE[key]


def clear_caches() -> None:
    """Drop memoized schemas and comparisons (tests use this)."""
    _SCHEMA_CACHE.clear()
    _COMPARISON_CACHE.clear()
