"""repro — Skyline Dynamic Programming for complex SQL query optimization.

A complete, pure-Python reproduction of *"Robust Heuristics for Scalable
Optimization of Complex SQL Queries"* (ICDE 2007): the SDP pruning strategy,
the DP and IDP references it is evaluated against, and every substrate the
evaluation needs — a synthetic relational catalog, a PostgreSQL-style cost
model, join-graph machinery, a skyline engine, and the full benchmark
harness regenerating the paper's tables and figures.

Quickstart — :func:`repro.optimize` is the front door, and SQL text is
the front format::

    import repro

    schema = repro.tpch_lite_schema()
    result = repro.optimize(
        "SELECT * FROM customer, orders"
        " WHERE orders.o_custkey = customer.c_custkey"
        " AND orders.o_totalprice > 100000"
        " ORDER BY orders.o_custkey",
        schema=schema,
    )
    print(result.cost)
    print(result.tree())          # provenance: result.query, result.sql

Parsed :class:`repro.Query` objects are interchangeable with their SQL
text (bit-identical plans and costs) and expose the programmatic route::

    query = repro.parse_sql(schema, sql)           # or build a JoinGraph
    sdp = repro.optimize(query)                    # SDP by default
    dp = repro.optimize(query, technique="dp")     # the optimal reference
    print(sdp.cost / dp.cost, sdp.plans_costed, dp.plans_costed)

    traced = repro.optimize(query, trace=True)     # spans attached
    print(traced.trace.profile())                  # per-level work table

The optimizer classes (:class:`SDPOptimizer` & co.),
:class:`RobustOptimizer` and :class:`OptimizationService` remain public
as the low-level API for callers holding state across queries. See
``examples/`` for runnable scenarios, ``docs/observability.md`` for
tracing/metrics/profiling, and ``DESIGN.md`` for the system inventory.
"""

from repro.api import optimize, resolve_technique

from repro.catalog import (
    Column,
    Index,
    Relation,
    Schema,
    SchemaBuilder,
    analyze,
    paper_schema,
)
from repro.core import (
    DynamicProgrammingOptimizer,
    GeneticConfig,
    GeneticOptimizer,
    GreedyOptimizer,
    IDP2Config,
    IDP2Optimizer,
    IDPConfig,
    IDPOptimizer,
    IterativeImprovementOptimizer,
    Optimizer,
    OptimizerResult,
    PlanResult,
    SDPConfig,
    SDPOptimizer,
    RandomizedConfig,
    SearchBudget,
    TwoPhaseOptimizer,
    available_techniques,
    make_optimizer,
)
from repro.compare import compare_techniques
from repro.cost import DEFAULT_COST_MODEL, CostModel
from repro.errors import (
    AdmissionRejected,
    FaultInjected,
    OptimizationBudgetExceeded,
    OptimizationCancelled,
    OptimizationError,
    ReproError,
    TenantBudgetExhausted,
)
from repro.plans import PlanNode, explain
from repro.robust import (
    Attempt,
    Deadline,
    FaultHarness,
    RobustOptimizer,
    RobustResult,
)
from repro.query import (
    JoinGraph,
    Query,
    Selection,
    chain_joins,
    clique_joins,
    cycle_joins,
    parse_sql,
    render_sql,
    star_chain_joins,
    star_joins,
)
from repro.service import (
    BatchItem,
    CacheStats,
    FrontDoor,
    FrontDoorConfig,
    FrontDoorResult,
    OptimizationService,
    PlanCache,
    ServiceResult,
    TenantPolicy,
    TenantRegistry,
    optimize_many,
    query_fingerprint,
)
from repro.workloads import TPCH_LITE_SQL, tpch_lite_queries, tpch_lite_schema

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # facade
    "optimize",
    "resolve_technique",
    "PlanResult",
    # catalog
    "Column",
    "Index",
    "Relation",
    "Schema",
    "SchemaBuilder",
    "paper_schema",
    "analyze",
    # query
    "JoinGraph",
    "Query",
    "Selection",
    "render_sql",
    "parse_sql",
    "chain_joins",
    "star_joins",
    "cycle_joins",
    "clique_joins",
    "star_chain_joins",
    # workloads
    "TPCH_LITE_SQL",
    "tpch_lite_queries",
    "tpch_lite_schema",
    # cost
    "CostModel",
    "DEFAULT_COST_MODEL",
    # optimizers
    "Optimizer",
    "OptimizerResult",
    "SearchBudget",
    "DynamicProgrammingOptimizer",
    "IDPOptimizer",
    "IDPConfig",
    "IDP2Optimizer",
    "IDP2Config",
    "SDPOptimizer",
    "SDPConfig",
    "GreedyOptimizer",
    "IterativeImprovementOptimizer",
    "TwoPhaseOptimizer",
    "RandomizedConfig",
    "GeneticOptimizer",
    "GeneticConfig",
    "make_optimizer",
    "available_techniques",
    "compare_techniques",
    # service
    "OptimizationService",
    "ServiceResult",
    "PlanCache",
    "CacheStats",
    "BatchItem",
    "optimize_many",
    "query_fingerprint",
    # serving front door
    "FrontDoor",
    "FrontDoorConfig",
    "FrontDoorResult",
    "TenantPolicy",
    "TenantRegistry",
    # robustness
    "RobustOptimizer",
    "RobustResult",
    "Attempt",
    "Deadline",
    "FaultHarness",
    # plans
    "PlanNode",
    "explain",
    # errors
    "ReproError",
    "OptimizationError",
    "OptimizationBudgetExceeded",
    "OptimizationCancelled",
    "FaultInjected",
    "AdmissionRejected",
    "TenantBudgetExhausted",
]
