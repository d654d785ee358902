"""The optimizers — the paper's contribution and its baselines.

* :class:`SDPOptimizer` — Skyline Dynamic Programming, the paper's
  algorithm (localized hub pruning + disjunctive RCS skyline);
* :class:`DynamicProgrammingOptimizer` — exhaustive bushy DP (the optimal
  reference), enumerated with DPccp;
* :class:`IDPOptimizer` — Iterative Dynamic Programming, the strongest
  prior heuristic and the paper's main baseline, and
  :class:`IDP2Optimizer`, its greedy-then-DP sibling;
* :class:`GreedyOptimizer` — GOO, an extra low-effort baseline;
* :class:`IterativeImprovementOptimizer` / :class:`TwoPhaseOptimizer` —
  randomized search baselines (the intro's "randomized algorithms");
* :class:`GeneticOptimizer` — a GEQO-style genetic baseline (the intro's
  "genetic techniques").

All optimizers share one plan space (:class:`PlanSpace`), one budget and
overhead-accounting mechanism (:class:`SearchBudget`,
:class:`SearchCounters`), and return :class:`OptimizerResult`.

Besides the budget and cost model, only two searches take settings: SDP
an :class:`SDPConfig` (partitioning and skyline projections; the named
variants are :data:`repro.core.sdp.VARIANTS`), and IDP/IDP2 their block
size ``k``. The randomized and genetic baselines run at fixed module
constants, seed included.
"""

from repro.core.base import (
    Optimizer,
    OptimizerResult,
    PlanResult,
    SearchBudget,
    SearchCounters,
)
from repro.core.dp import DynamicProgrammingOptimizer
from repro.core.dpccp import connected_subgraphs, csg_cmp_pairs
from repro.core.enumeration import level_pairs
from repro.core.genetic import GeneticOptimizer
from repro.core.greedy import GreedyOptimizer
from repro.core.idp import IDPOptimizer
from repro.core.idp2 import IDP2Optimizer
from repro.core.planspace import PlanSpace
from repro.core.randomized import IterativeImprovementOptimizer, TwoPhaseOptimizer
from repro.core.registry import available_techniques, make_optimizer
from repro.core.sdp import SDPConfig, SDPOptimizer
from repro.core.table import JCRTable

__all__ = [
    "Optimizer",
    "OptimizerResult",
    "PlanResult",
    "SearchBudget",
    "SearchCounters",
    "DynamicProgrammingOptimizer",
    "IDPOptimizer",
    "IDP2Optimizer",
    "SDPOptimizer",
    "SDPConfig",
    "GreedyOptimizer",
    "IterativeImprovementOptimizer",
    "TwoPhaseOptimizer",
    "GeneticOptimizer",
    "PlanSpace",
    "JCRTable",
    "csg_cmp_pairs",
    "connected_subgraphs",
    "level_pairs",
    "make_optimizer",
    "available_techniques",
]
