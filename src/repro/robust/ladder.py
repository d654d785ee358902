"""The fallback ladder: a total ``optimize()`` that degrades, never fails.

The paper's motivation is *robustness* — exhaustive DP blows its budget on
dense join graphs, and the heuristics exist to keep optimization feasible.
:class:`RobustOptimizer` packages that posture as a service-grade façade:
it runs the ladder that starts at its entry technique (the default ladder
is ``DP → SDP → IDP(7) → IDP(4) → GOO``), carving each stage's budget out
of one overall allowance, and escalates past any stage that trips its
budget or fails unexpectedly. The terminal stage (always GOO) runs with no
budget at all, so — absent a corrupt catalog — ``optimize()`` always
returns a plan. The result records every attempt and whether the answer is
degraded (i.e. not produced by the first rung).

Budget carving semantics:

* **time** is consumed cumulatively — each stage inherits the *remaining*
  wall clock of the overall deadline;
* **plans costed** is likewise cumulative across stages (costing work
  already spent is gone);
* **memory** is inherited at full value per stage: an aborted stage's
  planner arena is freed when its search dies (PostgreSQL memory-context
  semantics), so the next stage starts from an empty arena.

Cooperative cancellation composes: a ``checkpoint`` hook set on the
:class:`RobustOptimizer` is propagated into every stage, and an
:class:`~repro.errors.OptimizationCancelled` raised by it aborts the whole
ladder (the caller gave up — degrading further would be wasted work).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.statistics import CatalogStatistics, analyze
from repro.core.base import Optimizer, OptimizerResult, SearchBudget, SearchCounters
from repro.core.registry import canonical_technique, make_optimizer
from repro.cost.model import CostModel
from repro.errors import (
    OptimizationBudgetExceeded,
    OptimizationCancelled,
    OptimizationError,
    ReproError,
)
from repro.obs.names import (
    METRIC_ROBUST_RUNGS_TOTAL,
    SPAN_ROBUST_LADDER,
    SPAN_ROBUST_RUNG,
)
from repro.obs.runtime import current_tracer, enabled as _obs_enabled, metrics
from repro.obs.trace import maybe_span
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.robust.deadline import Deadline
from repro.util.timer import Timer

__all__ = [
    "DEFAULT_LADDER",
    "Attempt",
    "RobustResult",
    "RobustOptimizer",
]

#: The default quality/cost ladder, best-first: the optimal reference, the
#: paper's heuristic, the staged-DP baselines, then the always-feasible
#: greedy terminal rung.
DEFAULT_LADDER = ("DP", "SDP", "IDP(7)", "IDP(4)", "GOO")

#: Attempt outcomes.
OK = "ok"
BUDGET_EXCEEDED = "budget-exceeded"
ERROR = "error"
SKIPPED = "skipped"


@dataclass(frozen=True)
class Attempt:
    """One rung of the ladder, as executed.

    Attributes:
        technique: Technique name tried.
        outcome: ``"ok"``, ``"budget-exceeded"``, ``"error"``, or
            ``"skipped"`` (overall budget exhausted before the stage ran).
        resource: For budget outcomes, the resource that tripped
            (``"memory"``/``"costing"``/``"time"``); for skips, the
            resource that left no allowance.
        elapsed_seconds: Wall clock the stage consumed.
        plans_costed: Plan alternatives the stage costed before finishing
            or aborting.
        detail: Human-readable failure detail (exception text), empty on
            success.
    """

    technique: str
    outcome: str
    resource: str | None
    elapsed_seconds: float
    plans_costed: int
    detail: str = ""

    def stable_key(self) -> tuple:
        """The attempt minus wall-clock noise — identical across reruns.

        Two runs with the same query, budget and fault seed produce
        identical stable keys; ``elapsed_seconds`` is excluded because wall
        time is the one nondeterministic field.
        """
        return (
            self.technique,
            self.outcome,
            self.resource,
            self.plans_costed,
            self.detail,
        )

    def describe(self) -> str:
        parts = [f"{self.technique}: {self.outcome}"]
        if self.resource is not None:
            parts.append(f"resource={self.resource}")
        parts.append(f"plans={self.plans_costed:,}")
        parts.append(f"time={self.elapsed_seconds:.3f}s")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


@dataclass(frozen=True)
class RobustResult(OptimizerResult):
    """An :class:`OptimizerResult` plus the ladder's execution record.

    Aggregate fields cover the *whole* ladder, not just the winning stage:
    ``plans_costed`` sums every attempt, ``modeled_memory_mb`` is the peak
    across attempts, ``elapsed_seconds`` is the end-to-end wall clock.

    Attributes:
        attempts: Every stage tried, in ladder order (the last is the
            winner).
        degraded: Inherited — True when the plan did not come from the
            first rung.
        winner: Technique name that produced the plan.
    """

    attempts: tuple[Attempt, ...] = ()
    winner: str = ""

    @property
    def fallback_count(self) -> int:
        """How many rungs failed before one succeeded."""
        return sum(1 for attempt in self.attempts if attempt.outcome != OK)

    def attempt_signature(self) -> tuple:
        """Deterministic fingerprint of the ladder execution (for tests)."""
        return tuple(attempt.stable_key() for attempt in self.attempts)

    def describe(self) -> str:
        """Multi-line rendering of the attempt ladder."""
        lines = [
            f"Robust({self.winner})"
            + ("  [degraded]" if self.degraded else "")
        ]
        lines.extend("  " + attempt.describe() for attempt in self.attempts)
        return "\n".join(lines)


class RobustOptimizer(Optimizer):
    """Optimizer façade that never fails to return a plan.

    Runs the ladder named by its entry ``technique`` under one overall
    ``budget``: a technique on :data:`DEFAULT_LADDER` keeps the rungs
    below it, any other (``GEQO``, ``SDP/Global``, ...) is followed by the
    default ladder's sub-DP tail, and ``"Robust"`` names the default
    ladder itself, so GOO is always the terminal rung. Each stage inherits
    what remains of the time and plans-costed allowances, and the
    terminal stage runs unbudgeted so the call is total. See the module
    docstring for the exact carving semantics.

    Raises:
        OptimizationError: at construction, for a ``technique`` the
            registry does not know; from :meth:`optimize`, only when
            *every* rung — including the terminal one — fails (e.g. a
            corrupt catalog injected by the fault harness); the error
            carries the attempt log as an ``attempts`` attribute.
        OptimizationCancelled: if an installed ``checkpoint`` hook cancels.
    """

    name = "Robust"

    def __init__(
        self,
        technique: str = "DP",
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
    ):
        super().__init__(budget=budget, cost_model=cost_model)
        entry = canonical_technique(technique)
        if entry == self.name:
            entry = DEFAULT_LADDER[0]
        if entry in DEFAULT_LADDER:
            self.ladder = DEFAULT_LADDER[DEFAULT_LADDER.index(entry):]
        else:
            self.ladder = (entry,) + DEFAULT_LADDER[1:]

    # -- budget carving ---------------------------------------------------------

    def _stage_budget(
        self, deadline: Deadline, plans_spent: int, terminal: bool
    ) -> SearchBudget | str:
        """Budget for the next stage, or the resource name to skip on."""
        if terminal:
            return SearchBudget.unlimited()
        seconds = deadline.remaining()
        if seconds is not None and seconds <= 0:
            return "time"
        plans = None
        if self.budget.max_plans_costed is not None:
            plans = self.budget.max_plans_costed - plans_spent
            if plans <= 0:
                return "costing"
        return SearchBudget(
            max_memory_bytes=self.budget.max_memory_bytes,
            max_plans_costed=plans,
            max_seconds=seconds,
        )

    # -- optimization -----------------------------------------------------------

    def optimize(
        self,
        query: Query,
        stats: CatalogStatistics | None = None,
    ) -> RobustResult:
        """Optimize ``query``, degrading down the ladder as budgets trip."""
        if stats is None:
            stats = analyze(query.schema)
        deadline = Deadline(self.budget.max_seconds)
        attempts: list[Attempt] = []
        plans_spent = 0
        peak_memory_mb = 0.0
        last = len(self.ladder) - 1
        observing = _obs_enabled()
        tracer = current_tracer() if observing else None
        rung_counter = (
            metrics().counter(
                METRIC_ROBUST_RUNGS_TOTAL,
                "Fallback-ladder rung executions by technique and outcome.",
                ("technique", "outcome"),
            )
            if observing
            else None
        )

        def _note_rung(span, technique: str, outcome: str, **attrs) -> None:
            span.set(outcome=outcome, **attrs)
            if rung_counter is not None:
                rung_counter.inc(technique=technique, outcome=outcome)

        with maybe_span(
            tracer, SPAN_ROBUST_LADDER,
            query=query.label, rungs=len(self.ladder),
        ) as ladder_span:
            for position, technique in enumerate(self.ladder):
                with maybe_span(
                    tracer, SPAN_ROBUST_RUNG,
                    technique=technique, position=position,
                ) as rung_span:
                    stage_budget = self._stage_budget(
                        deadline, plans_spent, terminal=position == last
                    )
                    if isinstance(stage_budget, str):
                        _note_rung(
                            rung_span, technique, SKIPPED,
                            resource=stage_budget,
                        )
                        attempts.append(
                            Attempt(
                                technique,
                                SKIPPED,
                                stage_budget,
                                0.0,
                                0,
                                f"overall {stage_budget} budget exhausted "
                                f"before stage",
                            )
                        )
                        continue
                    rung_span.set(
                        budget_seconds=stage_budget.max_seconds,
                        budget_plans=stage_budget.max_plans_costed,
                    )
                    optimizer = make_optimizer(
                        technique,
                        budget=stage_budget,
                        cost_model=self.cost_model,
                    )
                    optimizer.checkpoint = self.checkpoint
                    try:
                        result = optimizer.optimize(query, stats)
                    except OptimizationCancelled:
                        raise
                    except ReproError as exc:
                        # A budget trip and any other failure both move
                        # to the next rung; only the terminal rung's
                        # failure ends the ladder.
                        plans = getattr(exc, "plans_costed", 0)
                        plans_spent += plans
                        peak_memory_mb = max(
                            peak_memory_mb,
                            getattr(exc, "modeled_memory_mb", 0.0),
                        )
                        if isinstance(exc, OptimizationBudgetExceeded):
                            outcome, resource = BUDGET_EXCEEDED, exc.resource
                            detail = str(exc)
                        else:
                            outcome, resource = ERROR, None
                            detail = f"{type(exc).__name__}: {exc}"
                        _note_rung(
                            rung_span, technique, outcome,
                            resource=resource, detail=detail,
                            plans_costed=plans,
                        )
                        attempts.append(
                            Attempt(
                                technique,
                                outcome,
                                resource,
                                getattr(exc, "elapsed_seconds", 0.0),
                                plans,
                                detail,
                            )
                        )
                        if position < last:
                            continue
                        error = OptimizationError(
                            f"every rung of the fallback ladder failed "
                            f"for {query.label!r}: "
                            + "; ".join(a.describe() for a in attempts)
                        )
                        error.attempts = tuple(attempts)
                        raise error from exc

                    plans_spent += result.plans_costed
                    _note_rung(
                        rung_span, technique, OK,
                        plans_costed=result.plans_costed,
                        cost=result.cost,
                    )
                    attempts.append(
                        Attempt(
                            technique,
                            OK,
                            None,
                            result.elapsed_seconds,
                            result.plans_costed,
                        )
                    )
                    ladder_span.set(
                        winner=result.technique,
                        degraded=position > 0,
                        attempts=len(attempts),
                        plans_costed=plans_spent,
                    )
                    return RobustResult(
                        technique=f"Robust({result.technique})",
                        plan=result.plan,
                        cost=result.cost,
                        rows=result.rows,
                        plans_costed=plans_spent,
                        modeled_memory_mb=max(
                            peak_memory_mb, result.modeled_memory_mb
                        ),
                        elapsed_seconds=deadline.elapsed,
                        jcrs_created=result.jcrs_created,
                        jcrs_pruned=result.jcrs_pruned,
                        attempts=tuple(attempts),
                        degraded=position > 0,
                        winner=result.technique,
                    )

        # Unreachable: the terminal stage either returns or raises above.
        raise OptimizationError(
            f"fallback ladder exhausted without a terminal outcome for "
            f"{query.label!r}"
        )

    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        raise OptimizationError(
            "RobustOptimizer overrides optimize(); _search is never used"
        )
