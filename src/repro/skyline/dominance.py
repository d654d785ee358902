"""Dominance test for minimized feature vectors."""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["dominates"]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff ``a`` dominates ``b``: a <= b everywhere, a < b somewhere.

    All dimensions are minimized. Equal vectors do not dominate each other,
    so duplicates survive a skyline together.

    >>> dominates((1, 2), (2, 2))
    True
    >>> dominates((1, 2), (1, 2))
    False
    >>> dominates((1, 3), (2, 2))
    False
    """
    strictly_better = False
    for x, y in zip(a, b, strict=True):
        if x > y:
            return False
        if x < y:
            strictly_better = True
    return strictly_better

