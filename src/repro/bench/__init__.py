"""Benchmark harness regenerating the paper's tables and figures.

Layout:

* :mod:`repro.bench.workloads` — seeded query-instance generation over the
  paper's 25-relation schema (star, chain, cycle, clique, star-chain
  topologies; plain and ordered variants);
* :mod:`repro.bench.quality` — the paper's plan-quality metrics: the
  Ideal/Good/Acceptable/Bad classification, worst-case ratio, and the
  ``rho`` geometric-mean quality factor;
* :mod:`repro.bench.runner` — runs a technique grid over an instance set,
  collecting quality against a reference optimizer (DP where feasible, SDP
  otherwise, as in the paper) plus overhead statistics;
* :mod:`repro.bench.reporting` — paper-style plain-text tables;
* :mod:`repro.bench.experiments` — one module per paper table/figure;
* :mod:`repro.bench.loadgen` — load/chaos harness for the serving front
  door (latency percentiles, shed rate, brownout rung mix under faults);
* :mod:`repro.bench.cli` — ``sdp-bench`` command-line front end.

Experiment sizes default to minutes-not-days sampling of the paper's
millions-of-queries grids; pass ``--instances`` (per-cell instance count)
to scale up.
"""

from repro.bench.loadgen import LoadScenario, run_load
from repro.bench.persistence import load_comparison, save_comparison
from repro.bench.quality import PLAN_CLASSES, QualityStats, classify_ratio
from repro.bench.runner import ComparisonResult, TechniqueOutcome, run_comparison
from repro.bench.workloads import WorkloadSpec, generate_queries

__all__ = [
    "PLAN_CLASSES",
    "QualityStats",
    "classify_ratio",
    "WorkloadSpec",
    "generate_queries",
    "run_comparison",
    "ComparisonResult",
    "TechniqueOutcome",
    "save_comparison",
    "load_comparison",
    "LoadScenario",
    "run_load",
]
