"""Robust optimization service layer: degrade gracefully, never fail.

Three pieces turn the library's optimizers into a service-grade front:

* :class:`RobustOptimizer` — a fallback ladder
  (``DP → SDP → IDP(7) → IDP(4) → GOO`` by default) under one overall
  budget; every call returns a plan plus an attempt log
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
    ladder_from,
)

__all__ = [
    "DEFAULT_LADDER",
    "Attempt",
    "RobustOptimizer",
    "RobustResult",
    "ladder_from",
    "Deadline",
    "FaultHarness",
    "FaultyCostModel",
    "SlowCostModel",
    "CostModelFault",
    "InjectedBudgetExceeded",
]
