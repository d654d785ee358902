"""Shared experiment infrastructure: settings, schema cache, memoized runs.

Experiment sizes scale with :class:`ExperimentSettings`:

* ``instances`` — per-cell query instances (the paper runs thousands to
  millions per cell; quality percentages stabilize with tens);
* ``heavy_instances`` — instance count for cells where some technique is
  expensive or infeasible (large DP / IDP runs);
* ``max_seconds`` — per-optimization wall-clock budget; together with the
  1 GB modeled-memory budget it defines the feasibility frontier (the
  paper's machines bounded both);
* ``seed`` / ``schema_seed`` — workload and catalog seeds.

Environment overrides: ``REPRO_BENCH_INSTANCES``,
``REPRO_BENCH_HEAVY_INSTANCES``, ``REPRO_BENCH_MAX_SECONDS``,
``REPRO_BENCH_SEED``, ``REPRO_BENCH_SCHEMA_SEED``,
``REPRO_BENCH_ROBUST`` (``1`` enables fallback-ladder robust mode),
``REPRO_BENCH_WORKERS`` (process count for the optimization grid).

A value that is not a number, or a size (``instances``,
``heavy_instances``, ``max_seconds``) that is not positive, raises
:class:`~repro.errors.BenchmarkError` naming its flag and variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.bench.runner import ComparisonResult, run_comparison
from repro.bench.workloads import WorkloadSpec
from repro.catalog.schema import Schema, SchemaBuilder, paper_schema
from repro.catalog.statistics import CatalogStatistics, analyze
from repro.core.base import SearchBudget
from repro.errors import BenchmarkError

__all__ = [
    "ExperimentSettings",
    "paper_catalog",
    "scaleup_catalog",
    "cached_comparison",
    "clear_caches",
]


def _env_number(name: str, default, parse):
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return parse(value)
    except ValueError:
        raise BenchmarkError(
            f"{name}={value!r} is not a valid {parse.__name__}"
        ) from None


def _env_bool(name: str, default: bool) -> bool:
    value = os.environ.get(name)
    if value is None or value == "":
        return default
    return value.lower() not in ("0", "false", "no")


#: Sizes that must be positive: field -> (CLI flag, environment variable).
_SIZES = {
    "instances": ("--instances", "REPRO_BENCH_INSTANCES"),
    "heavy_instances": ("--heavy-instances", "REPRO_BENCH_HEAVY_INSTANCES"),
    "max_seconds": ("--max-seconds", "REPRO_BENCH_MAX_SECONDS"),
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling experiment scale and determinism."""

    instances: int = 10
    heavy_instances: int = 6
    max_seconds: float = 60.0
    memory_budget_bytes: int = 1_000_000_000
    seed: int = 0
    schema_seed: int = 0
    #: Run comparisons through the fallback ladder (no ``*`` cells).
    robust: bool = False
    #: Process count for the optimization grid (1 = serial in-process).
    workers: int = 1

    def __post_init__(self) -> None:
        for name, (flag, variable) in _SIZES.items():
            value = getattr(self, name)
            if not value > 0:
                raise BenchmarkError(
                    f"{flag} / {variable} must be positive, got {value}"
                )

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        """Settings with environment-variable overrides applied."""
        return cls(
            instances=_env_number("REPRO_BENCH_INSTANCES", cls.instances, int),
            heavy_instances=_env_number(
                "REPRO_BENCH_HEAVY_INSTANCES", cls.heavy_instances, int
            ),
            max_seconds=_env_number(
                "REPRO_BENCH_MAX_SECONDS", cls.max_seconds, float
            ),
            seed=_env_number("REPRO_BENCH_SEED", cls.seed, int),
            schema_seed=_env_number(
                "REPRO_BENCH_SCHEMA_SEED", cls.schema_seed, int
            ),
            robust=_env_bool("REPRO_BENCH_ROBUST", cls.robust),
            workers=_env_number("REPRO_BENCH_WORKERS", cls.workers, int),
        )

    def scaled(self, instances: int) -> "ExperimentSettings":
        """A copy with a different per-cell instance count."""
        return replace(self, instances=instances)

    def budget(self) -> SearchBudget:
        """The per-optimization budget these settings imply."""
        return SearchBudget(
            max_memory_bytes=self.memory_budget_bytes,
            max_seconds=self.max_seconds,
        )


_SCHEMA_CACHE: dict[tuple, tuple[Schema, CatalogStatistics]] = {}
_COMPARISON_CACHE: dict[tuple, ComparisonResult] = {}


def paper_catalog(
    settings: ExperimentSettings,
) -> tuple[Schema, CatalogStatistics]:
    """The paper's 25-relation schema plus statistics (cached)."""
    key = ("paper", settings.schema_seed)
    if key not in _SCHEMA_CACHE:
        schema = paper_schema(seed=settings.schema_seed)
        _SCHEMA_CACHE[key] = (schema, analyze(schema))
    return _SCHEMA_CACHE[key]


def scaleup_catalog(
    settings: ExperimentSettings, relation_count: int = 50
) -> tuple[Schema, CatalogStatistics]:
    """The extended schema for the maximum-scale-up experiment (cached).

    Besides more relations, the extended schema carries more columns per
    relation (the paper's 24 columns cannot anchor a 45-spoke star: each
    spoke consumes a distinct hub column).
    """
    key = ("scaleup", settings.schema_seed, relation_count)
    if key not in _SCHEMA_CACHE:
        schema = SchemaBuilder(
            seed=settings.schema_seed,
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
        schema, stats = paper_catalog(settings)
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
