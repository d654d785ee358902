"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch everything the library signals with a single ``except`` clause while
still being able to discriminate the precise failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class CatalogError(ReproError):
    """The schema or statistics definition is invalid or inconsistent."""


class ConfigError(ReproError, ValueError):
    """A constructor or configuration was given an invalid setting.

    Also a :class:`ValueError`, so ``except ValueError`` callers keep
    catching it.
    """


class JoinGraphError(ReproError):
    """A join graph is malformed (unknown relation, self-edge, disconnected)."""


class QueryError(ReproError):
    """The query specification is invalid (bad ORDER BY, empty graph, ...)."""


class PlanError(ReproError):
    """A physical plan is malformed or fails validation."""


class OptimizationError(ReproError):
    """The optimizer could not produce a plan for a well-formed query."""


class OptimizationBudgetExceeded(OptimizationError):
    """The optimizer exceeded its memory or plan-costing budget.

    Benchmarks report queries that raise this as infeasible — the ``*``
    entries of the paper's tables. A fallback ladder
    (:class:`repro.robust.RobustOptimizer`) instead catches it and retries
    with a cheaper technique.

    Attributes:
        resource: Which budget was exhausted, ``"memory"`` or ``"costing"``
            or ``"time"``.
        limit: The configured budget value.
        used: The value observed when the budget tripped.
    """

    def __init__(self, resource: str, limit: float, used: float):
        self.resource = resource
        self.limit = limit
        self.used = used
        super().__init__(
            f"optimization exceeded its {resource} budget "
            f"(limit={limit:g}, used={used:g})"
        )

    def __reduce__(self):
        # Default exception pickling replays ``cls(*self.args)``, which does
        # not match this constructor; parallel executors ship budget trips
        # across process boundaries, so restore from the structured fields
        # (the instance dict carries the effort annotations along).
        return (type(self), (self.resource, self.limit, self.used), self.__dict__)


class OptimizationCancelled(OptimizationError):
    """The caller cooperatively cancelled an in-flight optimization.

    Raised from a :class:`~repro.core.base.SearchCounters` checkpoint hook
    (e.g. :meth:`repro.robust.Deadline.checkpoint`) when an external
    deadline passes or the caller aborts. Unlike
    :class:`OptimizationBudgetExceeded`, cancellation is *not* a
    degradation signal — fallback ladders propagate it instead of
    escalating to a cheaper technique.
    """

    def __init__(self, reason: str = "optimization cancelled"):
        self.reason = reason
        super().__init__(reason)


class FaultInjected(ReproError):
    """Base class for synthetic faults raised by ``repro.robust.faults``.

    Deterministic fault-injection harnesses raise subclasses of this to
    exercise degradation paths; catching ``FaultInjected`` separates
    injected failures from organic ones in tests and attempt logs.
    """


class BenchmarkError(ReproError):
    """A benchmark experiment was configured inconsistently."""


class ServiceError(ReproError):
    """The optimization service was misused or misconfigured."""


class AdmissionRejected(ServiceError):
    """A request was shed at the serving front door before any search ran.

    Overload is answered with a *typed* rejection instead of a timeout or
    an unbounded queue: the caller learns immediately that no plan is
    coming and why. Raised synchronously by
    :meth:`repro.service.FrontDoor.submit`.

    Attributes:
        reason: Why admission failed — ``"queue-full"`` (the bounded
            request queue had no slot), ``"tenant-budget"`` (the tenant's
            token bucket is empty; see :class:`TenantBudgetExhausted`),
            or ``"shutdown"`` (the front door is closing).
        detail: Human-readable context (queue capacity, tenant id, ...).
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        message = f"admission rejected ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        # Default exception pickling replays ``cls(*self.args)`` — a single
        # pre-formatted message that does not match this constructor. Front
        # doors hand rejections to other threads/processes via futures, so
        # restore from the structured fields.
        return (type(self), (self.reason, self.detail), self.__dict__)


class TenantBudgetExhausted(AdmissionRejected):
    """A tenant's admission token bucket is empty.

    Per-tenant budgets convert one tenant's storm into that tenant's
    rejections instead of everyone's latency. The caller can retry after
    :attr:`retry_after_seconds` (the bucket refills continuously).

    Attributes:
        tenant: The tenant identifier whose bucket ran dry.
        retry_after_seconds: Seconds until the bucket holds enough tokens
            for one request.
    """

    def __init__(self, tenant: str, retry_after_seconds: float = 0.0):
        self.tenant = tenant
        self.retry_after_seconds = retry_after_seconds
        super().__init__(
            "tenant-budget",
            f"tenant {tenant!r} admission budget exhausted "
            f"(retry after {retry_after_seconds:.3f}s)",
        )

    def __reduce__(self):
        return (
            type(self),
            (self.tenant, self.retry_after_seconds),
            self.__dict__,
        )


class ObservabilityError(ReproError):
    """The observability layer (``repro.obs``) was misused or misconfigured.

    Raised for invalid metric names, label mismatches, or conflicting
    instrument registrations — never from the disabled no-op path.
    """
