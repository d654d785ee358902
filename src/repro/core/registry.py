"""Name-based optimizer construction.

Benchmarks and the CLI refer to techniques by the names the paper's tables
use (``DP``, ``IDP(7)``, ``IDP(4)``, ``SDP``, ``SDP/Global``, ...);
:func:`make_optimizer` turns those names into configured instances.
"""

from __future__ import annotations

import re

from repro.core.base import Optimizer, SearchBudget
from repro.core.dp import DynamicProgrammingOptimizer
from repro.core.greedy import GreedyOptimizer
from repro.core.genetic import GeneticOptimizer
from repro.core.idp import IDPConfig, IDPOptimizer
from repro.core.idp2 import IDP2Config, IDP2Optimizer
from repro.core.randomized import (
    IterativeImprovementOptimizer,
    TwoPhaseOptimizer,
)
from repro.core.sdp import SDPConfig, SDPOptimizer
from repro.cost.model import CostModel
from repro.errors import OptimizationError

__all__ = ["make_optimizer", "available_techniques"]

_IDP_PATTERN = re.compile(r"^IDP\((\d+)\)$")
_IDP2_PATTERN = re.compile(r"^IDP2\((\d+)\)$")


def available_techniques() -> list[str]:
    """Technique names :func:`make_optimizer` accepts (IDP takes any k)."""
    return [
        "DP",
        "IDP(4)",
        "IDP(7)",
        "IDP2(7)",
        "SDP",
        "SDP(parent)",
        "SDP(either)",
        "SDP(opt1)",
        "SDP(strong)",
        "SDP/Global",
        "GOO",
        "II",
        "2PO",
        "GEQO",
        "Robust",
    ]


def make_optimizer(
    name: str,
    budget: SearchBudget | None = None,
    cost_model: CostModel | None = None,
) -> Optimizer:
    """Build the optimizer the paper calls ``name``.

    Raises:
        OptimizationError: for an unknown technique name.
    """
    if name == "DP":
        return DynamicProgrammingOptimizer(budget=budget, cost_model=cost_model)
    match = _IDP2_PATTERN.match(name)
    if match:
        return IDP2Optimizer(
            config=IDP2Config(k=int(match.group(1))),
            budget=budget,
            cost_model=cost_model,
        )
    match = _IDP_PATTERN.match(name)
    if match:
        return IDPOptimizer(
            config=IDPConfig(k=int(match.group(1))),
            budget=budget,
            cost_model=cost_model,
        )
    if name == "SDP":
        return SDPOptimizer(budget=budget, cost_model=cost_model)
    if name == "SDP(parent)":
        return SDPOptimizer(
            config=SDPConfig(partitioning="parent"),
            budget=budget,
            cost_model=cost_model,
        )
    if name == "SDP(either)":
        return SDPOptimizer(
            config=SDPConfig(partitioning="either"),
            budget=budget,
            cost_model=cost_model,
        )
    if name == "SDP(opt1)":
        return SDPOptimizer(
            config=SDPConfig(skyline_option=1),
            budget=budget,
            cost_model=cost_model,
        )
    if name == "SDP(strong)":
        return SDPOptimizer(
            config=SDPConfig(skyline_option=3),
            budget=budget,
            cost_model=cost_model,
        )
    if name == "SDP/Global":
        return SDPOptimizer(
            config=SDPConfig(partitioning="global"),
            budget=budget,
            cost_model=cost_model,
        )
    if name == "GOO":
        return GreedyOptimizer(budget=budget, cost_model=cost_model)
    if name == "II":
        return IterativeImprovementOptimizer(budget=budget, cost_model=cost_model)
    if name == "2PO":
        return TwoPhaseOptimizer(budget=budget, cost_model=cost_model)
    if name == "GEQO":
        return GeneticOptimizer(budget=budget, cost_model=cost_model)
    if name == "Robust":
        # Imported here: repro.robust builds its ladder rungs through this
        # registry, so a module-level import would be circular.
        # lint: waive[RL001] lazy upward import breaks the registry<->ladder cycle
        from repro.robust.ladder import RobustOptimizer

        return RobustOptimizer(budget=budget, cost_model=cost_model)
    raise OptimizationError(
        f"unknown technique {name!r}; known: {available_techniques()}"
    )
