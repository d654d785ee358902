"""The one-call public API: ``repro.optimize()``.

Everything the package can do to a query — pick a technique, budget the
search, wrap it in the robust fallback ladder, serve it through a caching
service, record a trace — is reachable from this single facade::

    import repro

    schema = repro.paper_schema(seed=0)
    result = repro.optimize(                          # SQL text in,
        "SELECT * FROM r0, r1 WHERE r0.c0 = r1.c1",   # plan out
        schema=schema,
    )
    print(result.tree())                              # provenance attached

    query = repro.parse_sql(schema, "SELECT ... FROM r0, r1 WHERE ...")
    result = repro.optimize(query)                    # SDP, defaults
    result = repro.optimize(query, technique="dp")    # case-insensitive
    result = repro.optimize(query, budget=5.0)        # 5-second deadline
    result = repro.optimize(query, robust=True)       # fallback ladder
    traced = repro.optimize(query, trace=True)        # spans attached
    print(traced.trace.explain())
    print(traced.trace.profile())

Every return value satisfies the :class:`repro.core.base.PlanResult`
protocol (``plan``, ``cost``, ``plans_costed``, ``degraded``, ``trace``),
whatever path produced it. The lower-level entry points —
:func:`repro.make_optimizer`, :class:`repro.RobustOptimizer`,
:class:`repro.OptimizationService` — remain public for callers that need
to hold optimizer state across queries; the facade constructs them per
call (or routes through a caller-supplied ``service``).
"""

from __future__ import annotations

from repro.catalog.schema import Schema
from repro.catalog.statistics import CatalogStatistics
from repro.core.base import OptimizerResult, SearchBudget, evolve
from repro.core.registry import canonical_technique, make_optimizer
from repro.cost.model import CostModel
from repro.errors import OptimizationError
from repro.obs.runtime import capture
from repro.obs.trace import TraceRecording
from repro.query.parser import parse_sql
from repro.query.query import Query
from repro.robust.ladder import RobustOptimizer

__all__ = ["optimize", "resolve_technique"]


def resolve_technique(technique: str) -> str:
    """The registry spelling of ``technique``, matched case-insensitively.

    ``"sdp"``, ``"Sdp"`` and ``"SDP"`` all resolve to ``"SDP"``;
    ``"idp(7)"`` to ``"IDP(7)"``. Any block size of 2 or more is
    accepted for ``IDP(k)`` and ``IDP2(k)``: ``"idp2(5)"`` resolves to
    ``"IDP2(5)"``. Unknown names, and block sizes below 2, raise
    :class:`~repro.errors.OptimizationError` listing the known techniques.
    The registry's :func:`~repro.core.registry.canonical_technique` holds
    the rule.
    """
    return canonical_technique(technique)


def _resolve_budget(budget) -> SearchBudget | None:
    """Accept a :class:`SearchBudget`, a number of seconds, or None."""
    if budget is None or isinstance(budget, SearchBudget):
        return budget
    if isinstance(budget, bool):
        raise OptimizationError(
            f"budget must be a SearchBudget or seconds, got {budget!r}"
        )
    if isinstance(budget, (int, float)):
        if not budget > 0:
            raise OptimizationError(
                f"a numeric budget is a wall-clock allowance in seconds "
                f"and must be > 0, got {budget!r}"
            )
        return SearchBudget(max_seconds=float(budget))
    raise OptimizationError(
        f"budget must be a SearchBudget or seconds, got {type(budget).__name__}"
    )


def optimize(
    query: Query | str,
    *,
    schema: Schema | None = None,
    technique: str = "sdp",
    stats: CatalogStatistics | None = None,
    budget: SearchBudget | float | None = None,
    robust: bool = False,
    trace: bool = False,
    cost_model: CostModel | None = None,
    service=None,
) -> OptimizerResult:
    """Optimize ``query`` and return a plan — the package's front door.

    Args:
        query: The query to optimize — a :class:`~repro.query.Query` or
            raw SQL text. Text needs a parse target: pass ``schema=``,
            or route through a ``service`` that has analyzed one. The
            two forms are interchangeable: optimizing SQL text yields
            bit-identical plans and costs to optimizing its parsed
            ``Query``.
        schema: Schema SQL text is parsed against. Only valid with text.
        stats: Statistics snapshot; collected from the query's schema
            when omitted (each call — hold your own snapshot, or pass a
            ``service``, to amortize).
        technique: Technique name, case-insensitive (``"sdp"``, ``"dp"``,
            ``"idp(7)"``, ...; see :func:`repro.available_techniques`).
        budget: A :class:`~repro.core.base.SearchBudget`, or a plain
            number of wall-clock seconds.
        robust: Run the fallback ladder named by ``technique``
            (:class:`~repro.robust.RobustOptimizer`) instead of a single
            optimizer; the result is then a
            :class:`~repro.robust.ladder.RobustResult` and never a budget
            trip.
        trace: Record spans for this call and attach them to the result as
            a :class:`~repro.obs.trace.TraceRecording` (``result.trace``);
            observability state is restored afterwards.
        cost_model: Cost-model override.
        service: An :class:`~repro.service.OptimizationService` to route
            through (plan cache, statistics epochs). Mutually exclusive
            with ``robust``/``budget``/``cost_model`` — the service owns
            those; its technique wins too.

    Returns:
        An :class:`~repro.core.base.OptimizerResult` (or subclass)
        satisfying the :class:`~repro.core.base.PlanResult` protocol.

    Raises:
        OptimizationError: unknown technique, a ``query`` or ``technique``
            of the wrong type, invalid argument combo, or SQL text without
            a parse target.
        QueryError: malformed SQL text.
        OptimizationBudgetExceeded: the search outgrew ``budget`` (single
            technique only; ``robust=True`` degrades instead).
    """
    sql: str | None = None
    if isinstance(query, str):
        sql = query
        if schema is not None:
            query = parse_sql(schema, sql)
        elif service is None:
            raise OptimizationError(
                "optimize(sql_text) needs a parse target: pass "
                "schema=, or a service that has analyzed one"
            )
        # else: the service parses against its analyzed schema below.
    elif not isinstance(query, Query):
        raise OptimizationError(
            f"query must be a Query or SQL text, got {type(query).__name__}"
        )
    elif schema is not None:
        raise OptimizationError(
            "schema= only applies to SQL text input; the Query already "
            "carries its schema"
        )

    if service is not None:
        if robust or budget is not None or cost_model is not None:
            raise OptimizationError(
                "optimize(service=...) routes through the service's own "
                "optimizer; robust/budget/cost_model cannot be overridden "
                "per call"
            )
        runner = lambda: service.optimize(query, stats)  # noqa: E731
    else:
        resolved = resolve_technique(technique)
        search_budget = _resolve_budget(budget)
        build = RobustOptimizer if robust else make_optimizer
        optimizer = build(resolved, budget=search_budget, cost_model=cost_model)
        runner = lambda: optimizer.optimize(query, stats)  # noqa: E731

    if not trace:
        result = runner()
    else:
        with capture() as exporter:
            result = runner()
        result = evolve(result, trace=TraceRecording(exporter.spans))

    # Attach query/SQL provenance (the service path attaches its own when
    # it did the parsing; don't overwrite it).
    provenance = {}
    if isinstance(query, Query) and result.query is None:
        provenance["query"] = query
    if sql is not None and result.sql is None:
        provenance["sql"] = sql
    if provenance:
        result = evolve(result, **provenance)
    return result
