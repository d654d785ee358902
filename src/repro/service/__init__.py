"""Serving layer: plan caching, batch optimization, and the front door.

This package wraps the search algorithms in the machinery a system would
deploy around them:

* :class:`OptimizationService` — a caching, thread-safe ``optimize()``
  front end keyed by canonical query fingerprint and statistics epoch;
* :class:`PlanCache` / :class:`CacheStats` — the LRU behind it;
* :func:`query_fingerprint` / :func:`fingerprint_components` — the
  canonical-form hash that decides cache equivalence;
* :func:`optimize_many` / :class:`BatchItem` — a process-pool batch
  executor for (query x technique) grids, used by the benchmark runner's
  ``workers=N`` mode;
* :class:`FrontDoor` and friends — the overload-robust serving layer:
  bounded admission, per-tenant budgets (:mod:`repro.service.tenancy`),
  brownout degradation and a statistics-refresh circuit breaker
  (:mod:`repro.service.frontdoor`).
"""

from repro.service.cache import CacheStats, PlanCache
from repro.service.fingerprint import fingerprint_components, query_fingerprint
from repro.service.frontdoor import (
    FrontDoor,
    FrontDoorConfig,
    FrontDoorResult,
    FrontDoorStats,
    LoadController,
    StatsRefreshBreaker,
)
from repro.service.parallel import BatchItem, optimize_many
from repro.service.service import OptimizationService, ServiceResult
from repro.service.tenancy import TenantBudget, TenantPolicy, TenantRegistry

__all__ = [
    "BatchItem",
    "CacheStats",
    "FrontDoor",
    "FrontDoorConfig",
    "FrontDoorResult",
    "FrontDoorStats",
    "LoadController",
    "OptimizationService",
    "PlanCache",
    "ServiceResult",
    "StatsRefreshBreaker",
    "TenantBudget",
    "TenantPolicy",
    "TenantRegistry",
    "fingerprint_components",
    "optimize_many",
    "query_fingerprint",
]
