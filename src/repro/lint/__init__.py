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
RL011     shared state — attributes written by worker threads are read
          and written under the owning instance lock
========  =============================================================

Run it as ``python -m repro.lint [paths]`` or ``sdp-bench lint``.
Select checkers with ``--only RL009,RL011`` / ``--skip RL007``.
Individual findings are waived with ``# lint: waive[RL00X] reason`` on
(or directly above) the flagged line; whole files with
``# lint: waive-file[RL00X] reason``; legacy findings live in a
committed baseline file (``--baseline``).

This package is intentionally self-contained: it imports nothing from
the rest of ``repro``, so it can lint arbitrary (even broken) trees
without importing them.
"""

from repro.lint.baseline import load_baseline, suppress_baseline, write_baseline
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
]
