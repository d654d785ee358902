"""Shared optimizer infrastructure: budgets, counters, results, base class.

Overheads in the paper are reported as three metrics — memory (MB), time
(seconds) and "costing" (number of plans costed). Plans costed and time are
measured directly; memory is **modeled**, because a pure-Python reproduction
cannot observe a C engine's allocator. The model mirrors PostgreSQL's
planner arena (``palloc`` memory that is not freed until planning ends):

``arena = plans_costed * BYTES_PER_COSTED_PLAN
        + retained_slots * BYTES_PER_RETAINED_PLAN
        + enumerated_pairs * BYTES_PER_PAIR``

IDP resets its arena between iterations (the restart discards the DP table);
DP and SDP never do. Exceeding the memory budget — 1 GB by default, the
paper's physical-memory limit — raises
:class:`~repro.errors.OptimizationBudgetExceeded`, which benchmarks report
as the paper's ``*`` (infeasible) entries. The byte constants are calibrated
in one place below so the feasibility frontier lands where the paper's does
(DP stars infeasible past ~17 relations, IDP(7) past ~21; see DESIGN.md).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.catalog.statistics import CatalogStatistics, analyze
from repro.cost.model import DEFAULT_COST_MODEL, CostModel
from repro.errors import (
    ConfigError,
    OptimizationBudgetExceeded,
    OptimizationError,
    ReproError,
)
from repro.obs.names import (
    METRIC_OPTIMIZATIONS_TOTAL,
    METRIC_OPTIMIZE_SECONDS,
    METRIC_PLANS_COSTED_TOTAL,
    SPAN_OPTIMIZE,
)
from repro.obs.runtime import current_tracer as _obs_tracer
from repro.obs.runtime import enabled as _obs_enabled
from repro.obs.runtime import metrics as _obs_metrics
from repro.obs.trace import TraceRecording
from repro.plans.nodes import PlanNode, build_plan_tree
from repro.plans.records import PlanRecord
from repro.query.query import Query
from repro.util.timer import Timer

__all__ = [
    "SearchBudget",
    "SearchCounters",
    "OptimizerResult",
    "PlanResult",
    "Optimizer",
    "evolve",
    "BYTES_PER_COSTED_PLAN",
    "BYTES_PER_RETAINED_PLAN",
    "BYTES_PER_PAIR",
    "CHARGE_CHUNK",
    "check_count",
]

#: Modeled planner-arena bytes charged per costed plan alternative.
#: Calibrated against the paper's reported footprints: DP on Star-Chain-15
#: costs ~1.5E5 plans for ~32 MB there (~200 B/plan), and 200 B/plan places
#: the feasibility frontier where the paper's is (DP stars die at ~17
#: relations under 1 GB, IDP(7) at ~22).
BYTES_PER_COSTED_PLAN = 200

#: Modeled bytes per retained JCR plan slot (DP-table entry).
BYTES_PER_RETAINED_PLAN = 400

#: Modeled bytes per enumerated csg-cmp pair (search bookkeeping).
BYTES_PER_PAIR = 24

#: How many counter events pass between budget checks.
_CHECK_INTERVAL = 2048

#: Events a search loop tallies locally before settling them with
#: :class:`SearchCounters` (DPccp's and ``level_pairs``' pairs, the
#: kernel's costed plans). Loops also settle at the end of every batch
#: and pair-size group, so totals read after one stay exact, and a
#: budget trips at most one check interval plus one chunk (and the plans
#: of the pair that filled it) past its limit.
CHARGE_CHUNK = 1024


def check_count(name: str, value: object, minimum: int) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``value`` is an int
    ``>= minimum``.

    A bound check alone passes NaN (every comparison with NaN is False),
    and a float count fails only once the search uses it; a bool is an int
    by accident.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an int >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one ``optimize()`` call.

    Attributes:
        max_memory_bytes: Modeled planner-arena ceiling (paper: 1 GB RAM).
        max_plans_costed: Optional hard cap on costed plans.
        max_seconds: Optional wall-clock cap.
    """

    max_memory_bytes: int | None = 1_000_000_000
    max_plans_costed: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_memory_bytes", "max_plans_costed", "max_seconds"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(
                    f"SearchBudget.{name} must be positive (or None for "
                    f"unlimited), got {value!r}"
                )

    @classmethod
    def unlimited(cls) -> "SearchBudget":
        """A budget that never trips (for small tests)."""
        return cls(max_memory_bytes=None, max_plans_costed=None, max_seconds=None)


class SearchCounters:
    """Overhead accounting for one optimizer run.

    Counters are cumulative for reporting; the *arena* component is the
    modeled memory, which phase-oriented optimizers (IDP) may reset.

    ``checkpoint`` is an injectable hook fired from :meth:`check_budget`
    (every :data:`_CHECK_INTERVAL` events and once at search end). It
    receives the counters and may raise — e.g.
    :class:`~repro.errors.OptimizationCancelled` for cooperative deadline
    propagation, or a synthetic fault from ``repro.robust.faults`` — which
    lets external control reach *every* optimizer without per-optimizer
    changes.
    """

    __slots__ = (
        "plans_costed",
        "jcrs_created",
        "jcrs_pruned",
        "retained_slots",
        "enumerated_pairs",
        "total_events",
        "_arena_bytes",
        "peak_arena_bytes",
        "_budget",
        "_timer",
        "_countdown",
        "_checkpoint",
    )

    def __init__(
        self,
        budget: SearchBudget,
        timer: Timer,
        checkpoint: Callable[["SearchCounters"], None] | None = None,
    ):
        self.plans_costed = 0
        self.jcrs_created = 0
        self.jcrs_pruned = 0
        self.retained_slots = 0
        self.enumerated_pairs = 0
        self.total_events = 0
        self._arena_bytes = 0
        self.peak_arena_bytes = 0
        self._budget = budget
        self._timer = timer
        self._countdown = _CHECK_INTERVAL
        self._checkpoint = checkpoint

    # -- event notification ----------------------------------------------------

    def note_plans_costed(self, count: int = 1) -> None:
        self.plans_costed += count
        self._charge(count * BYTES_PER_COSTED_PLAN, count)

    def note_retained(self, count: int = 1) -> None:
        self.retained_slots += count
        self._charge(count * BYTES_PER_RETAINED_PLAN, count)

    def note_pairs(self, count: int = 1) -> None:
        self.enumerated_pairs += count
        self._charge(count * BYTES_PER_PAIR, count)

    def note_jcr_created(self, count: int = 1) -> None:
        self.jcrs_created += count

    def note_jcrs_pruned(self, count: int = 1) -> None:
        # Pruned JCRs stop participating in the search but their arena bytes
        # stay allocated (palloc semantics).
        self.jcrs_pruned += count

    def reset_arena(self, carry_bytes: int = 0) -> None:
        """Drop the arena to ``carry_bytes`` (IDP's between-iteration reset)."""
        if self._arena_bytes > self.peak_arena_bytes:
            self.peak_arena_bytes = self._arena_bytes
        self._arena_bytes = carry_bytes

    # -- budget enforcement ------------------------------------------------------

    def _charge(self, bytes_used: int, events: int) -> None:
        self._arena_bytes += bytes_used
        self.total_events += events
        self._countdown -= events
        if self._countdown <= 0:
            self._countdown = _CHECK_INTERVAL
            self.check_budget()

    def check_budget(self) -> None:
        """Fire the checkpoint hook, then raise on any crossed limit.

        Raises:
            OptimizationBudgetExceeded: if any budget limit is crossed.
            Exception: whatever the checkpoint hook raises (cancellation,
                injected faults).
        """
        if self._checkpoint is not None:
            self._checkpoint(self)
        budget = self._budget
        if (
            budget.max_memory_bytes is not None
            and self._arena_bytes > budget.max_memory_bytes
        ):
            raise OptimizationBudgetExceeded(
                "memory", budget.max_memory_bytes, self._arena_bytes
            )
        if (
            budget.max_plans_costed is not None
            and self.plans_costed > budget.max_plans_costed
        ):
            raise OptimizationBudgetExceeded(
                "costing", budget.max_plans_costed, self.plans_costed
            )
        if budget.max_seconds is not None:
            elapsed = self._timer.peek()
            if elapsed > budget.max_seconds:
                raise OptimizationBudgetExceeded("time", budget.max_seconds, elapsed)

    # -- reporting ---------------------------------------------------------------

    @property
    def arena_bytes(self) -> int:
        return self._arena_bytes

    @property
    def modeled_memory_bytes(self) -> int:
        """Peak modeled planner memory over the whole run."""
        return max(self.peak_arena_bytes, self._arena_bytes)

    @property
    def modeled_memory_mb(self) -> float:
        return self.modeled_memory_bytes / 1e6


@runtime_checkable
class PlanResult(Protocol):
    """The read-only protocol every result layer satisfies.

    :class:`OptimizerResult`, :class:`~repro.service.ServiceResult` and
    :class:`~repro.robust.RobustResult` all expose these members, so a
    caller can consume any layer's answer without branching on which one
    produced it: the plan, its cost, the costing effort, whether the
    answer is degraded (fallback-ladder runs only set this), the
    optional trace recording, and the query/SQL provenance attached by
    the SQL-first entry points.
    """

    technique: str
    plan: PlanRecord
    cost: float
    plans_costed: int
    degraded: bool
    trace: TraceRecording | None
    query: Query | None
    sql: str | None


@dataclass(frozen=True)
class OptimizerResult:
    """The outcome of one ``optimize()`` call.

    Attributes:
        technique: Optimizer name (``"DP"``, ``"IDP(7)"``, ``"SDP"``, ...).
        plan: The chosen plan (internal record form; use :meth:`tree`).
        cost: Estimated cost of ``plan`` (final sort included, if any).
        rows: Estimated result cardinality.
        plans_costed: Number of plan alternatives costed.
        modeled_memory_mb: Peak modeled planner memory.
        elapsed_seconds: Wall-clock optimization time.
        jcrs_created: JCRs materialized during the search.
        jcrs_pruned: JCRs discarded by pruning (SDP) or restarts (IDP).
        degraded: True when the plan did not come from the requested
            technique (set by fallback-ladder results; always False for
            direct optimizer runs) — part of the :class:`PlanResult`
            protocol shared by every result layer.
        trace: Span recording attached by ``repro.optimize(...,
            trace=True)``; None on untraced runs.
        query: The optimized :class:`~repro.query.Query` — attached by
            the SQL-first entry points (``repro.optimize``, the service)
            so callers that submitted SQL text can recover the parsed
            form; None when the result came from a raw optimizer run.
        sql: The submitted SQL text, when the query arrived as text.
    """

    technique: str
    plan: PlanRecord
    cost: float
    rows: float
    plans_costed: int
    modeled_memory_mb: float
    elapsed_seconds: float
    jcrs_created: int
    jcrs_pruned: int
    degraded: bool = False
    trace: TraceRecording | None = None
    query: Query | None = None
    sql: str | None = None

    def tree(self, query: Query | None = None) -> PlanNode:
        """The plan as a public, validated tree.

        ``query`` defaults to the result's own :attr:`query` provenance
        when the SQL-first entry points attached one.
        """
        if query is None:
            query = self.query
        if query is None:
            raise OptimizationError(
                "tree() needs the query: this result carries no query "
                "provenance, pass tree(query)"
            )
        return build_plan_tree(self.plan, query.graph)


def evolve(result: OptimizerResult, **changes) -> OptimizerResult:
    """A copy of ``result`` (of its own class) with ``changes`` applied.

    What :func:`dataclasses.replace` returns, for the serving paths that
    attach provenance to every result: the fields are copied as they
    stand rather than passed through ``__init__`` again. ``changes``
    must name fields of the result's class.
    """
    copy = object.__new__(type(result))
    fields = copy.__dict__
    fields.update(result.__dict__)
    fields.update(changes)
    return copy


class Optimizer(ABC):
    """Base class for join-order optimizers.

    Subclasses implement :meth:`_search`, returning the final plan record;
    the base class handles statistics, timing, counters and result assembly.

    The ``checkpoint`` attribute, when set, is installed into the run's
    :class:`SearchCounters` and fires on every periodic budget check plus
    once at search end — the injection point for cooperative cancellation
    (:class:`repro.robust.Deadline`) and fault harnesses.
    """

    #: Display name; subclasses override (e.g. ``"IDP(7)"``).
    name: str = "optimizer"

    def __init__(
        self,
        budget: SearchBudget | None = None,
        cost_model: CostModel | None = None,
    ):
        self.budget = budget if budget is not None else SearchBudget()
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.checkpoint: Callable[[SearchCounters], None] | None = None

    def optimize(
        self,
        query: Query,
        stats: CatalogStatistics | None = None,
    ) -> OptimizerResult:
        """Optimize ``query`` and return the chosen plan with overheads.

        Args:
            query: The query to optimize.
            stats: Pre-collected catalog statistics; computed via
                :func:`repro.catalog.analyze` when omitted. Benchmarks pass
                a shared snapshot so statistics collection is not charged to
                any single optimizer.

        Raises:
            OptimizationBudgetExceeded: if the search outgrows its budget.
                The final budget check runs *after* the search returns, so a
                run that crosses a limit inside the last check interval
                still raises rather than slipping through the tail gap.
            OptimizationError: if no complete plan exists (should not happen
                for connected join graphs).

        Any :class:`~repro.errors.ReproError` escaping the search is
        annotated with ``plans_costed``, ``modeled_memory_mb`` and
        ``elapsed_seconds`` attributes so supervisors (e.g. the robust
        fallback ladder) can account for the aborted attempt's effort.

        When observability is enabled (:func:`repro.obs.configure`), the
        run is wrapped in an ``optimize`` span and the entry-point metrics
        (``repro_optimizations_total``, ``repro_optimize_seconds``,
        ``repro_plans_costed_total``) are recorded; disabled, this method
        is byte-for-byte the untraced hot path plus one boolean check.
        """
        if not _obs_enabled():
            return self._optimize_impl(query, stats)

        tracer = _obs_tracer()
        registry = _obs_metrics()
        status = "ok"
        if tracer is None:
            span = None
        else:
            span = tracer.start_span(
                SPAN_OPTIMIZE,
                technique=self.name,
                query=query.label,
                relations=query.graph.n,
            )
        try:
            result = self._optimize_impl(query, stats)
        except ReproError as exc:
            status = type(exc).__name__
            if span is not None:
                span.set(
                    error=status,
                    plans_costed=getattr(exc, "plans_costed", 0),
                )
                tracer.end_span(span, status="error")
            raise
        finally:
            registry.counter(
                METRIC_OPTIMIZATIONS_TOTAL,
                "optimize() calls by technique and outcome",
                ("technique", "status"),
            ).inc(technique=self.name, status=status)
        if span is not None:
            span.set(
                plans_costed=result.plans_costed,
                cost=result.cost,
                rows=result.rows,
                modeled_memory_mb=result.modeled_memory_mb,
            )
            tracer.end_span(span)
        registry.histogram(
            METRIC_OPTIMIZE_SECONDS,
            "wall-clock seconds per optimize() call",
            ("technique",),
        ).observe(result.elapsed_seconds, technique=self.name)
        registry.counter(
            METRIC_PLANS_COSTED_TOTAL,
            "plan alternatives costed, by technique",
            ("technique",),
        ).inc(result.plans_costed, technique=self.name)
        return result

    def _optimize_impl(
        self,
        query: Query,
        stats: CatalogStatistics | None,
    ) -> OptimizerResult:
        """The untraced optimize path (see :meth:`optimize` for contract)."""
        if stats is None:
            stats = analyze(query.schema)
        timer = Timer().start()
        counters = SearchCounters(self.budget, timer, checkpoint=self.checkpoint)
        try:
            plan = self._search(query, stats, counters, timer)
            # Close the _CHECK_INTERVAL tail gap: up to 2047 events at the
            # end of a search would otherwise never hit check_budget().
            counters.check_budget()
        except ReproError as exc:
            exc.plans_costed = counters.plans_costed
            exc.modeled_memory_mb = counters.modeled_memory_mb
            exc.elapsed_seconds = timer.peek()
            raise
        elapsed = timer.stop()
        if plan is None:
            raise OptimizationError(
                f"{self.name} produced no plan for {query.label!r}"
            )
        return OptimizerResult(
            technique=self.name,
            plan=plan,
            cost=plan.cost,
            rows=plan.rows,
            plans_costed=counters.plans_costed,
            modeled_memory_mb=counters.modeled_memory_mb,
            elapsed_seconds=elapsed,
            jcrs_created=counters.jcrs_created,
            jcrs_pruned=counters.jcrs_pruned,
        )

    @abstractmethod
    def _search(
        self,
        query: Query,
        stats: CatalogStatistics,
        counters: SearchCounters,
        timer: Timer,
    ) -> PlanRecord:
        """Run the search and return the finished plan record."""
