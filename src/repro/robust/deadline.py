"""Wall-clock deadlines that propagate cooperatively into any optimizer.

A :class:`Deadline` is fixed when constructed and shared across however
many fallback stages (or service retries) run under it — each stage asks
:meth:`Deadline.remaining` for the time it may still spend, and the
deadline's :meth:`~Deadline.checkpoint` method plugs directly into
:attr:`repro.core.base.Optimizer.checkpoint`, turning the periodic budget
check of every optimizer into a cancellation point:

    deadline = Deadline(2.0)
    optimizer = make_optimizer("DP")
    optimizer.checkpoint = deadline.checkpoint   # cancels mid-search
    optimizer.optimize(query, stats)             # may raise OptimizationCancelled

Cancellation (:class:`~repro.errors.OptimizationCancelled`) is distinct
from a budget trip: it means the *caller* no longer wants an answer, so
fallback ladders propagate it instead of degrading to a cheaper technique.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError, OptimizationCancelled

__all__ = ["Deadline"]


class Deadline:
    """A fixed point in (monotonic) time that work must not outlive.

    Args:
        seconds: Overall time allowance; ``None`` means no deadline (every
            query succeeds, nothing ever cancels).

    The clock starts at construction. All methods are cheap enough to call
    from hot search loops.
    """

    __slots__ = ("seconds", "_started")

    def __init__(self, seconds: float | None):
        # ``not > 0`` also rejects NaN, which would never expire.
        if seconds is not None and not seconds > 0:
            raise ConfigError(f"deadline must be positive or None, got {seconds!r}")
        self.seconds = seconds
        self._started = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds since the deadline was armed."""
        return time.perf_counter() - self._started

    def remaining(self) -> float | None:
        """Seconds left before expiry (may be negative), or None if unarmed."""
        if self.seconds is None:
            return None
        return self.seconds - self.elapsed

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def checkpoint(self, counters=None) -> None:
        """Raise :class:`OptimizationCancelled` once the deadline passes.

        Signature-compatible with the :class:`~repro.core.base.SearchCounters`
        checkpoint hook (the ``counters`` argument is ignored).
        """
        if self.expired:
            raise OptimizationCancelled(
                f"deadline of {self.seconds:g}s expired "
                f"({self.elapsed:.3f}s elapsed)"
            )
