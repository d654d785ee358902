"""Search-kernel selection.

Two costing kernels implement the same plan-space surface; the
:data:`KERNELS` registry below is the single source of truth for their
names and one-line descriptions (the CLI's ``--list-kernels``, the error
message of :func:`kernel_name` and ``docs/api.md`` all render from it).

Every optimizer builds its plan space through :func:`make_planspace`, so
the whole stack (DP/SDP/IDP/IDP2/GOO/II-2PO/GEQO, the robust ladder, the
service layer, the bench harness) can be flipped to the oracle with
``REPRO_KERNEL=reference`` — which is exactly what the kernel
equivalence tests do to assert identical winning costs, plan shapes, and
counter values. Both kernels honour every cost model, the C_out model
(``cost_model.cout``) included.

This module is the single place the determinism rules allow environment
reads: kernel resolution (``REPRO_KERNEL``) happens here, never inside a
search.
"""

from __future__ import annotations

import os

from repro.core.base import SearchCounters
from repro.errors import OptimizationError

__all__ = [
    "KERNEL_ENV",
    "KERNELS",
    "kernel_name",
    "make_planspace",
]

#: Environment variable selecting the process-wide default kernel.
KERNEL_ENV = "REPRO_KERNEL"

#: The kernel registry: name -> one-line description. Single source for
#: ``kernel_name`` validation, ``sdp-bench --list-kernels`` and the
#: kernel list in ``docs/api.md``.
KERNELS: dict[str, str] = {
    "fast": (
        "mask-native struct-of-arrays kernel "
        "(repro.core.planspace.PlanSpace), the default"
    ),
    "reference": (
        "preserved eager object-graph kernel "
        "(repro.core.reference.ReferencePlanSpace), the equivalence oracle"
    ),
}


def kernel_name(kernel: str | None = None) -> str:
    """Resolve the kernel to use: explicit arg, else env, else ``fast``."""
    name = kernel if kernel is not None else os.environ.get(KERNEL_ENV, "fast")
    name = name.strip().lower()
    if name not in KERNELS:
        raise OptimizationError(
            f"unknown search kernel {name!r} "
            f"(expected one of {tuple(KERNELS)})"
        )
    return name


def make_planspace(
    query,
    stats,
    cost_model,
    counters: SearchCounters,
    kernel: str | None = None,
):
    """Build the plan space for the selected kernel.

    Args:
        kernel: a :data:`KERNELS` name; None reads ``REPRO_KERNEL``
            (defaulting to fast).
    """
    name = kernel_name(kernel)
    if name == "reference":
        from repro.core.reference import ReferencePlanSpace

        return ReferencePlanSpace(query, stats, cost_model, counters)
    from repro.core.planspace import PlanSpace

    return PlanSpace(query, stats, cost_model, counters)
