"""Deterministic fault injection for exercising degradation paths.

A robustness claim is only testable if failures can be manufactured on
demand — and *reproducibly*, so a failing test shrinks to a seed. This
module injects four fault families, all derived from an explicit seed via
:func:`repro.util.rng.derive_seed` (never global randomness, never global
state):

* **synthetic budget trips** — an injected
  :class:`InjectedBudgetExceeded` raised from the counter checkpoint hook
  once the search crosses its Nth counter event, exercising the fallback
  ladder without needing a genuinely huge query;
* **cost-model faults** — a :class:`FaultyCostModel` proxy that raises
  :class:`CostModelFault` during a deterministic window of attribute
  reads, exercising the unexpected-error escalation path;
* **latency faults** — a :class:`SlowCostModel` proxy that injects a
  deterministic ``time.sleep`` every Nth attribute read, slowing a search
  down without changing its outcome — the fault that makes queues back up
  and brownout controllers react;
* **catalog corruption** — :meth:`FaultHarness.perturbed_statistics`
  builds a *new* statistics snapshot with zeroed or inflated row counts
  (the original snapshot is never mutated).

Budget trips, cost-model faults and latency faults are context-managed:
they install themselves on one optimizer instance and restore its prior
``checkpoint`` / ``cost_model`` on exit, so no fault state outlives the
``with`` block. Statistics perturbation is a pure function, which cannot
leak by construction.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator

from repro.catalog.statistics import CatalogStatistics, TableStats
from repro.core.base import Optimizer, SearchCounters
from repro.errors import FaultInjected, OptimizationBudgetExceeded
from repro.obs.names import METRIC_FAULTS_INJECTED_TOTAL
from repro.obs.runtime import enabled as _obs_enabled, metrics as _obs_metrics
from repro.util.rng import derive_rng

__all__ = [
    "CostModelFault",
    "InjectedBudgetExceeded",
    "FaultyCostModel",
    "SlowCostModel",
    "FaultHarness",
]


def _note_fault(kind: str) -> None:
    """Count one injected fault in the metrics registry (when enabled)."""
    if _obs_enabled():
        _obs_metrics().counter(
            METRIC_FAULTS_INJECTED_TOTAL,
            "Synthetic faults injected by the fault harness, by kind.",
            ("kind",),
        ).inc(kind=kind)


# lint: waive[RL006] synthetic-fault taxonomy lives with the fault harness
class CostModelFault(FaultInjected):
    """A synthetic cost-model failure injected by :class:`FaultyCostModel`."""


# lint: waive[RL006] synthetic-fault taxonomy lives with the fault harness
class InjectedBudgetExceeded(FaultInjected, OptimizationBudgetExceeded):
    """A synthetic budget trip.

    Subclasses both :class:`FaultInjected` (it is manufactured) and
    :class:`OptimizationBudgetExceeded` (so fallback ladders and
    benchmarks treat it exactly like an organic budget trip). ``limit``
    and ``used`` are counter-*event* counts, not bytes or seconds.
    """


class FaultyCostModel:
    """Attribute proxy over a :class:`~repro.cost.model.CostModel`.

    Reads ``fail_after .. fail_after + fail_count - 1`` (1-based, counted
    over every public attribute access) raise :class:`CostModelFault`;
    all other reads are forwarded to the wrapped model. The window makes
    the fault *transient*: a fallback stage started after the window sees
    a healthy model, which is the interesting recovery scenario.
    """

    def __init__(self, inner, fail_after: int, fail_count: int = 1):
        if fail_after < 1:
            raise ValueError(f"fail_after must be >= 1, got {fail_after}")
        if fail_count < 1:
            raise ValueError(f"fail_count must be >= 1, got {fail_count}")
        self.__dict__["_inner"] = inner
        self.__dict__["_fail_after"] = fail_after
        self.__dict__["_fail_count"] = fail_count
        self.__dict__["_reads"] = 0

    @property
    def reads(self) -> int:
        """Public attribute reads observed so far."""
        return self.__dict__["_reads"]

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        state = self.__dict__
        state["_reads"] += 1
        offset = state["_reads"] - state["_fail_after"]
        if 0 <= offset < state["_fail_count"]:
            _note_fault("cost-model")
            raise CostModelFault(
                f"injected cost-model fault on read #{state['_reads']} "
                f"of {name!r}"
            )
        return getattr(state["_inner"], name)


class SlowCostModel:
    """Attribute proxy that makes a cost model *slow* but not wrong.

    Every ``every``-th public attribute read sleeps ``delay_seconds``
    before forwarding to the wrapped model. Costs are untouched, so the
    optimized plan is bit-identical to an un-faulted run — only wall-clock
    changes, which is exactly the fault that backs up admission queues and
    trips latency-based brownout without perturbing plan quality.
    """

    def __init__(self, inner, delay_seconds: float, every: int = 256):
        if not (math.isfinite(delay_seconds) and delay_seconds > 0):
            raise ValueError(
                f"delay_seconds must be finite and > 0, got {delay_seconds!r}"
            )
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every!r}")
        self.__dict__["_inner"] = inner
        self.__dict__["_delay"] = float(delay_seconds)
        self.__dict__["_every"] = every
        self.__dict__["_reads"] = 0
        self.__dict__["_sleeps"] = 0

    @property
    def sleeps(self) -> int:
        """Injected sleeps observed so far."""
        return self.__dict__["_sleeps"]

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        state = self.__dict__
        state["_reads"] += 1
        if state["_reads"] % state["_every"] == 0:
            state["_sleeps"] += 1
            _note_fault("latency")
            time.sleep(state["_delay"])
        return getattr(state["_inner"], name)


class FaultHarness:
    """Seeded, context-managed fault injection against one optimizer.

    All injection points are deterministic functions of ``seed`` (via
    :func:`~repro.util.rng.derive_seed`) and the injected faults' own
    counters, so two runs of the same scenario produce identical failure
    sequences — and identical :class:`~repro.robust.ladder.Attempt` logs.

    Example::

        harness = FaultHarness(seed=7)
        robust = RobustOptimizer(budget=budget)
        with harness.budget_trip(robust, resource="memory"):
            result = robust.optimize(query, stats)   # first rung trips
        # robust.checkpoint is restored here; later runs are fault-free
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    # -- synthetic budget trips -------------------------------------------------

    @contextmanager
    def budget_trip(
        self,
        optimizer: Optimizer,
        at_event: int | None = None,
        resource: str = "memory",
    ) -> Iterator[None]:
        """Trip ``optimizer``'s budget once its search crosses an event count.

        Installs a checkpoint hook that raises
        :class:`InjectedBudgetExceeded` the first time the counters report
        ``total_events >= at_event`` (derived from the harness seed when
        omitted). The trip fires at most once per ``with`` block, so a
        fallback ladder's next stage runs clean; the optimizer's previous
        ``checkpoint`` hook is chained and restored on exit.
        """
        if at_event is None:
            at_event = derive_rng(self.seed, "budget-trip", resource).randint(
                1, 4096
            )
        prior = optimizer.checkpoint
        state = {"tripped": False}

        def hook(counters: SearchCounters) -> None:
            if prior is not None:
                prior(counters)
            if not state["tripped"] and counters.total_events >= at_event:
                state["tripped"] = True
                _note_fault("budget-trip")
                raise InjectedBudgetExceeded(
                    resource, at_event, counters.total_events
                )

        optimizer.checkpoint = hook
        try:
            yield
        finally:
            optimizer.checkpoint = prior

    # -- cost-model faults ------------------------------------------------------

    @contextmanager
    def cost_model_faults(
        self,
        optimizer: Optimizer,
        fail_after: int | None = None,
        fail_count: int = 1,
    ) -> Iterator[FaultyCostModel]:
        """Swap ``optimizer.cost_model`` for a transiently faulty proxy.

        ``fail_after`` (derived from the harness seed when omitted) is the
        1-based attribute read on which :class:`CostModelFault` starts
        firing; ``fail_count`` reads later the model heals. The original
        cost model is restored on exit.
        """
        if fail_after is None:
            fail_after = derive_rng(self.seed, "cost-model").randint(1, 2048)
        prior = optimizer.cost_model
        faulty = FaultyCostModel(prior, fail_after=fail_after, fail_count=fail_count)
        optimizer.cost_model = faulty
        try:
            yield faulty
        finally:
            optimizer.cost_model = prior

    # -- latency faults ---------------------------------------------------------

    @contextmanager
    def latency(
        self,
        optimizer: Optimizer,
        delay_seconds: float | None = None,
        every: int = 256,
    ) -> Iterator[SlowCostModel]:
        """Swap ``optimizer.cost_model`` for a deterministically slow proxy.

        ``delay_seconds`` (derived from the harness seed when omitted, in
        ``[1ms, 10ms]``) is slept once per ``every`` cost-model reads; the
        model's answers are untouched, so the search result is identical
        to an un-faulted run — only slower. The original cost model is
        restored on exit.
        """
        if delay_seconds is None:
            delay_seconds = derive_rng(self.seed, "latency").uniform(0.001, 0.010)
        prior = optimizer.cost_model
        slow = SlowCostModel(prior, delay_seconds=delay_seconds, every=every)
        optimizer.cost_model = slow
        try:
            yield slow
        finally:
            optimizer.cost_model = prior

    # -- catalog corruption -----------------------------------------------------

    def perturbed_statistics(
        self,
        stats: CatalogStatistics,
        mode: str = "inflate",
        fraction: float = 0.5,
        factor: float = 1000.0,
    ) -> CatalogStatistics:
        """A corrupted copy of ``stats``; the original is untouched.

        A seed-derived sample of ``fraction`` of the relations is
        perturbed:

        * ``mode="inflate"`` multiplies row and page counts by ``factor``
          — estimates balloon, plans degrade, budgets trip earlier;
        * ``mode="zero"`` zeroes row and page counts — downstream
          estimation raises ``CatalogError``, exercising the hard-error
          path of every consumer.
        """
        if mode not in ("inflate", "zero"):
            raise ValueError(f"unknown perturbation mode {mode!r}")
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        _note_fault(f"stats-{mode}")
        rng = derive_rng(self.seed, "stats", mode)
        names = sorted(stats.table_names)
        count = max(1, math.ceil(fraction * len(names)))
        chosen = set(rng.sample(names, count))
        tables: dict[str, TableStats] = {}
        for name in stats.table_names:
            table = stats.table(name)
            if name not in chosen:
                tables[name] = table
            elif mode == "zero":
                tables[name] = replace(table, row_count=0, page_count=0)
            else:
                tables[name] = replace(
                    table,
                    row_count=int(table.row_count * factor),
                    page_count=int(table.page_count * factor),
                )
        return CatalogStatistics(tables)
