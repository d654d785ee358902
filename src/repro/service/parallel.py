"""Parallel batch optimization over a (query x technique) grid.

The paper's protocol — every instance optimized by every technique — is
embarrassingly parallel: each cell is an independent, deterministic
search. :func:`optimize_many` fans the grid out over a **persistent**
``ProcessPoolExecutor`` (processes, not threads: the searches are pure
Python and CPU-bound, so the GIL would serialize threads) and returns the
results in **grid order**, one row per query, one
:class:`BatchItem` per technique — regardless of which worker finished
first.

Scheduling policy (the serial-vs-pool decision lives in
:func:`execution_mode`, one source of truth shared with the benchmarks):

* requested workers are **capped at the machine's CPU count** — the cells
  are CPU-bound, so oversubscribing processes only adds scheduler churn;
* the grid runs **serially in-process** when fewer than 2 effective
  workers remain (single-core boxes) or the grid has fewer than
  :data:`MIN_PARALLEL_CELLS` cells — pool dispatch (fork/spawn, context
  pickling, result IPC) costs milliseconds per worker, which a tiny grid
  cannot amortize;
* otherwise the cells are split into one **contiguous chunk per worker**
  and each chunk ships as a single task, so the batch context (queries,
  statistics, budget) is pickled once per worker instead of once per
  cell, and the pool itself is created once per process and reused across
  batches (:func:`shutdown_pool` tears it down explicitly).

Budget trips are part of the protocol (the paper's ``*`` cells), so they
are captured per cell — :attr:`BatchItem.error` — instead of aborting the
batch. A worker *process* that dies (killed, out of memory, a segfault)
breaks the executor for good: a batch that finds the pool already broken
replaces it and returns the complete grid, and a death during a batch
drops the pool and raises :class:`~repro.errors.ServiceError` chained
from the ``BrokenProcessPool``, so the next batch starts clean. Any other
exception propagates and cancels the batch: a malformed query should fail
loudly, not produce a hole in a table.

Determinism: optimizers are seeded and statistics are fixed, so a cell's
outcome does not depend on which process computes it — serial and pool
modes produce identical grids. The one caveat is wall-clock *budgets*
(``SearchBudget.max_seconds``): elapsed time differs across processes and
machine load, so a search near its time limit can trip in one mode and
finish in the other. Memory and plans-costed budgets are modeled, hence
exactly reproducible.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

from repro.catalog.statistics import CatalogStatistics, analyze
from repro.core.base import OptimizerResult, SearchBudget
from repro.core.registry import make_optimizer
from repro.cost.model import CostModel
from repro.errors import OptimizationBudgetExceeded, ServiceError
from repro.obs.names import SPAN_SERVICE_BATCH, SPAN_SERVICE_CELL
from repro.obs.runtime import current_tracer
from repro.obs.trace import maybe_span
from repro.query.query import Query

__all__ = [
    "BatchItem",
    "optimize_many",
    "execution_mode",
    "execution_plan",
    "shutdown_pool",
    "MIN_PARALLEL_CELLS",
]

#: Smallest grid worth dispatching to the process pool. Below this the
#: per-worker dispatch overhead (context pickling + IPC) dominates the
#: cells' own runtime and the serial path wins outright.
MIN_PARALLEL_CELLS = 4


@dataclass(frozen=True)
class BatchItem:
    """One optimized cell of the (query x technique) grid.

    Attributes:
        query_index: Row (query) index in the submitted batch.
        technique: Technique name that produced this cell.
        label: Label of the optimized query.
        result: The optimizer result, or None when the budget tripped.
        error: The :class:`~repro.errors.OptimizationBudgetExceeded` the
            cell raised, or None on success.
    """

    query_index: int
    technique: str
    label: str
    result: OptimizerResult | None
    error: OptimizationBudgetExceeded | None

    @property
    def feasible(self) -> bool:
        return self.result is not None


def execution_mode(workers: int | None, cells: int) -> tuple[str, int]:
    """The serial-vs-pool decision: ``("serial" | "pool", effective workers)``.

    Requested ``workers`` (None = CPU count) are capped at the CPU count;
    the pool only runs with at least 2 effective workers and at least
    :data:`MIN_PARALLEL_CELLS` cells, and never with more workers than
    cells. Exposed so benchmarks and tests can assert the decision rather
    than re-deriving it. (:func:`execution_plan` additionally reports
    *why* a run stayed serial.)
    """
    mode, effective, _reason = execution_plan(workers, cells)
    return mode, effective


def execution_plan(
    workers: int | None, cells: int
) -> tuple[str, int, str | None]:
    """:func:`execution_mode` plus the serial-fallback reason.

    Returns ``(mode, effective_workers, fallback_reason)`` where the
    reason is None for pool runs, ``"cpu_count"`` when the host cannot
    supply 2 workers, ``"grid_too_small"`` below
    :data:`MIN_PARALLEL_CELLS` cells, and ``"workers_requested"`` when
    the caller explicitly asked for fewer than 2 — so benchmark reports
    record *why* a host fell back instead of a bare ``"serial"``.
    """
    cpu = os.cpu_count() or 1
    requested = cpu if workers is None else workers
    effective = max(1, min(requested, cpu, cells))
    if cells < MIN_PARALLEL_CELLS:
        return "serial", 1, "grid_too_small"
    if effective < 2:
        if workers is not None and workers < 2:
            return "serial", 1, "workers_requested"
        return "serial", 1, "cpu_count"
    return "pool", effective, None


#: Per-process execution context installed by :func:`_install_context`.
_CONTEXT: dict | None = None


def _install_context(
    queries: list[Query],
    stats: CatalogStatistics,
    budget: SearchBudget | None,
    cost_model: CostModel | None,
    robust: bool,
) -> None:
    """Install the batch context in this process."""
    global _CONTEXT
    _CONTEXT = {
        "queries": queries,
        "stats": stats,
        "budget": budget,
        "cost_model": cost_model,
        "robust": robust,
    }


def _make_cell_optimizer(technique: str, budget, cost_model, robust: bool):
    if robust:
        # Imported lazily: repro.robust builds ladder rungs through the
        # optimizer registry, so a module-level import would be circular.
        from repro.robust.ladder import RobustOptimizer, ladder_from

        return RobustOptimizer(
            ladder=ladder_from(technique), budget=budget, cost_model=cost_model
        )
    return make_optimizer(technique, budget=budget, cost_model=cost_model)


def _run_cell(task: tuple[int, str]) -> BatchItem:
    """Optimize one ``(query_index, technique)`` cell in a worker or inline.

    Observability state is process-local, so cell spans only appear when
    the batch runs serially (or for the coordinating process): worker
    processes start with observability disabled and stay no-op-cheap,
    keeping parallel results identical to serial ones.
    """
    query_index, technique = task
    assert _CONTEXT is not None, "worker context not initialized"
    query = _CONTEXT["queries"][query_index]
    optimizer = _make_cell_optimizer(
        technique, _CONTEXT["budget"], _CONTEXT["cost_model"], _CONTEXT["robust"]
    )
    with maybe_span(
        current_tracer(), SPAN_SERVICE_CELL,
        query=query.label, technique=technique,
        query_index=query_index, worker_pid=os.getpid(),
    ) as span:
        try:
            result = optimizer.optimize(query, _CONTEXT["stats"])
        except OptimizationBudgetExceeded as exc:
            span.set(feasible=False, resource=exc.resource)
            return BatchItem(query_index, technique, query.label, None, exc)
        span.set(feasible=True, cost=result.cost)
        return BatchItem(query_index, technique, query.label, result, None)


def _run_chunk(payload) -> list[BatchItem]:
    """Worker entry: install the shipped context, run a chunk of cells.

    Self-contained on purpose — the persistent pool is reused across
    batches, so the context travels with the chunk (pickled once per
    worker per batch) instead of via a pool initializer bound to one
    batch's data.
    """
    context, chunk = payload
    _install_context(*context)
    return [_run_cell(task) for task in chunk]


# -- persistent pool ----------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, grown (never shrunk) to ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent; re-created on demand)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def _submit_chunks(workers: int, context, chunks) -> list:
    """Submit one pool task per chunk, replacing a pool a dead worker broke."""
    try:
        pool = _get_pool(workers)
        return [pool.submit(_run_chunk, (context, chunk)) for chunk in chunks]
    except BrokenProcessPool:
        # A worker died since the last batch; the executor refuses all
        # further work, so start a fresh one.
        shutdown_pool()
        pool = _get_pool(workers)
        return [pool.submit(_run_chunk, (context, chunk)) for chunk in chunks]


def _run_serial(tasks, context) -> list[BatchItem]:
    """Run ``tasks`` inline in this process."""
    global _CONTEXT
    _install_context(*context)
    try:
        return [_run_cell(task) for task in tasks]
    finally:
        _CONTEXT = None


def optimize_many(
    queries: Sequence[Query],
    techniques: Sequence[str],
    stats: CatalogStatistics | None = None,
    budget: SearchBudget | None = None,
    cost_model: CostModel | None = None,
    workers: int | None = 1,
    robust: bool = False,
) -> list[list[BatchItem]]:
    """Optimize every query with every technique, in parallel.

    Args:
        queries: Query instances (must share one schema/statistics world).
        techniques: Technique names (see
            :func:`repro.core.available_techniques`).
        stats: Shared statistics snapshot; collected from the first query's
            schema when omitted.
        budget: Per-cell search budget.
        cost_model: Cost-model override.
        workers: Requested process count; ``None`` means the CPU count.
            The effective mode comes from :func:`execution_mode` — capped
            at the CPU count, serial below 2 workers or
            :data:`MIN_PARALLEL_CELLS` cells.
        robust: Wrap each technique in its fallback ladder
            (:func:`repro.robust.ladder_from`), as the bench runner's
            robust mode does.

    Returns:
        ``grid[q][t]`` — a :class:`BatchItem` per (query, technique), in
        submission order independent of completion order.

    Raises:
        ServiceError: on an empty query or technique list, or when a worker
            process dies during the batch (the pool is dropped first).
    """
    queries = list(queries)
    techniques = list(techniques)
    if not queries:
        raise ServiceError("optimize_many() needs at least one query")
    if not techniques:
        raise ServiceError("optimize_many() needs at least one technique")
    if stats is None:
        stats = analyze(queries[0].schema)

    tasks = [
        (query_index, technique)
        for query_index in range(len(queries))
        for technique in techniques
    ]
    mode, effective = execution_mode(workers, len(tasks))
    context = (queries, stats, budget, cost_model, robust)

    with maybe_span(
        current_tracer(), SPAN_SERVICE_BATCH,
        queries=len(queries), techniques=len(techniques),
        cells=len(tasks), workers=effective, mode=mode,
    ):
        if mode == "serial":
            items = _run_serial(tasks, context)
        else:
            # One contiguous chunk per worker: context pickled once per
            # worker, every worker busy for the whole batch, and chunk
            # concatenation preserves submission order.
            base, extra = divmod(len(tasks), effective)
            chunks = []
            start = 0
            for worker_index in range(effective):
                size = base + (1 if worker_index < extra else 0)
                if size == 0:
                    break
                chunks.append(tasks[start : start + size])
                start += size
            futures = _submit_chunks(effective, context, chunks)
            items = []
            for future in futures:
                try:
                    items.extend(future.result())
                except BrokenProcessPool as exc:
                    shutdown_pool()
                    raise ServiceError(
                        f"a batch worker process died mid-batch: {exc}"
                    ) from exc

    width = len(techniques)
    return [items[row * width : (row + 1) * width] for row in range(len(queries))]
