"""Robust optimization service layer: degrade gracefully, never fail.

Three pieces turn the library's optimizers into a service-grade front:

* :class:`RobustOptimizer` — the fallback ladder that starts at an entry
  technique (``DP → SDP → IDP(7) → IDP(4) → GOO`` from ``DP``) under one
  overall budget; every call returns a plan plus an attempt log
  (:class:`RobustResult`) instead of raising
  :class:`~repro.errors.OptimizationBudgetExceeded`;
* :class:`Deadline` — cooperative cancellation that propagates into any
  optimizer via the :attr:`~repro.core.base.Optimizer.checkpoint` hook;
* :class:`FaultHarness` — deterministic, seeded, context-managed fault
  injection (synthetic budget trips, transient cost-model faults, latency
  faults, corrupted catalog statistics) for testing the above.

See ``docs/robustness.md`` for the full semantics.
"""

from repro.robust.deadline import Deadline
from repro.robust.faults import (
    CostModelFault,
    FaultHarness,
    FaultyCostModel,
    InjectedBudgetExceeded,
    SlowCostModel,
)
from repro.robust.ladder import (
    DEFAULT_LADDER,
    Attempt,
    RobustOptimizer,
    RobustResult,
)

__all__ = [
    "DEFAULT_LADDER",
    "Attempt",
    "RobustOptimizer",
    "RobustResult",
    "Deadline",
    "FaultHarness",
    "FaultyCostModel",
    "SlowCostModel",
    "CostModelFault",
    "InjectedBudgetExceeded",
]
