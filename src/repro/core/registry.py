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
from repro.core.idp import IDPOptimizer
from repro.core.idp2 import IDP2Optimizer
from repro.core.randomized import (
    IterativeImprovementOptimizer,
    TwoPhaseOptimizer,
)
from repro.core.sdp import VARIANTS as SDP_VARIANTS, SDPOptimizer
from repro.cost.model import CostModel
from repro.errors import OptimizationError

__all__ = ["make_optimizer", "available_techniques", "canonical_technique"]

#: ``IDP(k)`` and ``IDP2(k)`` in any case: built for any block size k >= 2.
_BLOCK_SIZED = re.compile(r"(IDP2?)\((\d+)\)", re.IGNORECASE)


def available_techniques() -> list[str]:
    """Technique names :func:`make_optimizer` accepts (``IDP(k)`` and
    ``IDP2(k)`` take any block size ``k >= 2``)."""
    return [
        "DP",
        "IDP(4)",
        "IDP(7)",
        "IDP2(7)",
        *SDP_VARIANTS,
        "GOO",
        "II",
        "2PO",
        "GEQO",
        "Robust",
    ]


#: Lower-case spelling -> registry spelling of every listed technique.
_LISTED = {name.lower(): name for name in available_techniques()}


def canonical_technique(name: str) -> str:
    """The registry spelling of ``name``, matched case-insensitively.

    ``"sdp"``, ``"Sdp"`` and ``" SDP "`` resolve to ``"SDP"``; any
    ``IDP(k)`` or ``IDP2(k)`` with a block size ``k >= 2`` resolves with
    ``k`` in decimal (``"idp2(05)"`` to ``"IDP2(5)"``).

    Raises:
        OptimizationError: for a ``name`` that is not a string, or an
            unknown one (an IDP block size below 2 included), listing the
            known techniques.
    """
    if not isinstance(name, str):
        raise OptimizationError(
            f"technique must be a name, got {type(name).__name__}"
        )
    key = name.strip()
    listed = _LISTED.get(key.lower())
    if listed is not None:
        return listed
    match = _BLOCK_SIZED.fullmatch(key)
    if match is not None and int(match.group(2)) >= 2:
        return f"{match.group(1).upper()}({int(match.group(2))})"
    raise OptimizationError(
        f"unknown technique {name!r}; known: {available_techniques()}"
    )


def make_optimizer(
    name: str,
    budget: SearchBudget | None = None,
    cost_model: CostModel | None = None,
) -> Optimizer:
    """Build the optimizer the paper calls ``name``, in any spelling
    :func:`canonical_technique` accepts.

    Raises:
        OptimizationError: for an unknown technique name (an IDP block
            size below 2 included), or a ``name`` that is not a string.
    """
    name = canonical_technique(name)
    if name == "DP":
        return DynamicProgrammingOptimizer(budget=budget, cost_model=cost_model)
    match = _BLOCK_SIZED.fullmatch(name)
    if match is not None:
        optimizer = IDP2Optimizer if match.group(1) == "IDP2" else IDPOptimizer
        return optimizer(
            k=int(match.group(2)), budget=budget, cost_model=cost_model
        )
    config = SDP_VARIANTS.get(name)
    if config is not None:
        return SDPOptimizer(config=config, budget=budget, cost_model=cost_model)
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

        return RobustOptimizer(name, budget=budget, cost_model=cost_model)
    raise OptimizationError(
        f"unknown technique {name!r}; known: {available_techniques()}"
    )
