"""``repro.lint`` — in-tree static analysis for the repro invariants.

The search kernel's contracts — bit-identical costs versus the reference
plan space, per-level span sums equal to ``plans_costed``, budget
checkpoints firing mid-enumeration — are *structural* properties of the
code. The test suite probes them by sampling; this package verifies the
code shapes that make them hold on every change, using nothing but the
stdlib (``ast`` + ``symtable``).

Checkers (see ``docs/static-analysis.md`` for the full contract):

========  =============================================================
RL001     layering — imports must follow the package DAG
RL002     kernel determinism — no clocks, unseeded RNGs, env reads or
          set-order iteration in ``core``/``plans``/``cost``
RL003     float discipline — no ``==``/``!=`` between cost/selectivity
          expressions; use the tie-break helpers
RL004     budget charging — enumeration loops must charge ``note_pairs``
          / ``note_plans_costed`` (directly or via a counters-carrying
          kernel)
RL005     observability registry — span/metric names come from
          ``repro.obs.names``, never inline literals
RL006     exception hygiene — no bare ``except``, ``raise ... from err``
          inside handlers, ``ReproError`` subclasses only in
          ``errors.py``
RL007     public-API drift — ``repro.__all__`` and the facade signatures
          must match the inventory block in ``docs/api.md``
RL008     bounded blocking — service-layer blocking calls must carry
          timeouts
RL009     lock ordering — nested lock acquisitions across the serving
          layer must form a DAG (no cycles, no non-reentrant
          re-acquisition)
RL010     resource lifecycle — shared-memory segments and stores,
          pools and queues must reach their cleanup calls on every CFG
          path; memoryviews release before their buffer closes
RL011     shared state — attributes written by worker threads are read
          and written under the owning instance lock
RL012     cross-process errors — exceptions escaping pool workers are
          picklable ``ReproError`` subclasses
========  =============================================================

RL009–RL012 run on an intraprocedural CFG + forward-dataflow core
(``repro.lint.cfg`` / ``repro.lint.dataflow``) — basic blocks over
``ast`` statements with branch/loop/``try``–``finally``/exception
edges, solved by a generic worklist engine; ``Module.cfgs()`` caches
the graphs per file so all four checkers share one build.

Run it as ``python -m repro.lint [paths]`` or ``sdp-bench lint``.
Select checkers with ``--only RL009,RL010`` / ``--skip RL007`` and
parse large trees in parallel with ``--jobs N``.
Individual findings are waived with ``# lint: waive[RL00X] reason`` on
(or directly above) the flagged line; whole files with
``# lint: waive-file[RL00X] reason``; legacy findings live in a
committed baseline file (``--baseline``).

This package is intentionally self-contained: it imports nothing from
the rest of ``repro``, so it can lint arbitrary (even broken) trees
without importing them.
"""

from repro.lint.baseline import load_baseline, suppress_baseline, write_baseline
from repro.lint.cfg import CFG, BasicBlock, build_cfg, iter_functions
from repro.lint.dataflow import (
    UNREACHED,
    ForwardAnalysis,
    Solution,
    solve_forward,
)
from repro.lint.engine import (
    LintError,
    Module,
    Project,
    load_project,
    run_checkers,
    run_lint,
)
from repro.lint.findings import Finding
from repro.lint.registry import CHECKER_CODES, Checker, all_checkers, register

__all__ = [
    "Finding",
    "Checker",
    "CHECKER_CODES",
    "all_checkers",
    "register",
    "Module",
    "Project",
    "LintError",
    "load_project",
    "run_checkers",
    "run_lint",
    "load_baseline",
    "write_baseline",
    "suppress_baseline",
    "BasicBlock",
    "CFG",
    "build_cfg",
    "iter_functions",
    "ForwardAnalysis",
    "Solution",
    "UNREACHED",
    "solve_forward",
]
