"""Per-tenant admission budgets: token buckets over a monotonic clock.

"Millions of users" never means one queue for everyone — it means one
misbehaving tenant must convert into *that tenant's* rejections, not
everyone's latency. This module prices admission per tenant:

* :class:`TenantBudget` — a continuous-refill token bucket. Each admitted
  request takes one token; a tenant that bursts past its bucket capacity
  is rejected with :class:`~repro.errors.TenantBudgetExhausted` until the
  refill catches up (the exception carries ``retry_after_seconds``).
* :class:`TenantPolicy` — the per-tenant bucket shape.
* :class:`TenantRegistry` — thread-safe tenant table with a default
  policy for unknown tenants.

The clock is injectable (``clock=``) so tests drive buckets with a fake
monotonic time instead of sleeping; production uses
:func:`time.monotonic`. All bucket state is guarded by a lock — the
front door admits from many threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServiceError

__all__ = ["TenantBudget", "TenantPolicy", "TenantRegistry"]


class TenantBudget:
    """A continuous-refill token bucket for one tenant's admissions.

    Args:
        capacity: Maximum tokens the bucket holds (burst allowance); > 0.
        refill_per_second: Tokens restored per second (sustained
            admission rate); > 0.
        clock: Monotonic time source (injectable for deterministic
            tests).

    The bucket starts full. :meth:`try_acquire` takes tokens and
    :meth:`refund` gives back the token of a request shed after it took
    one; refill is computed lazily from elapsed clock time, so an idle
    bucket costs nothing.
    """

    __slots__ = ("capacity", "refill_per_second", "_clock", "_tokens",
                 "_updated", "_lock", "admitted", "rejected")

    def __init__(
        self,
        capacity: float = 8.0,
        refill_per_second: float = 16.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        # ``not > 0`` also rejects NaN, which would refuse every admission.
        if not capacity > 0:
            raise ServiceError(
                f"tenant bucket capacity must be > 0, got {capacity!r}"
            )
        if not refill_per_second > 0:
            raise ServiceError(
                f"tenant refill rate must be > 0, got {refill_per_second!r}"
            )
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self._clock = clock
        self._tokens = float(capacity)
        self._updated = clock()
        self._lock = threading.Lock()
        #: Lifetime admission/rejection counts (exact under concurrency).
        self.admitted = 0
        self.rejected = 0

    def _refill(self, now: float) -> None:
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.refill_per_second
            )
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; False (and no debit) otherwise."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= tokens:
                self._tokens -= tokens
                self.admitted += 1
                return True
            self.rejected += 1
            return False

    def refund(self) -> None:
        """Undo a one-token :meth:`try_acquire` whose request was shed.

        The token goes back (up to capacity) and the admission is no
        longer counted, as if the request had never taken it.
        """
        with self._lock:
            self._refill(self._clock())
            self._tokens = min(self.capacity, self._tokens + 1.0)
            self.admitted -= 1

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until the bucket will hold ``tokens`` (0 if it does)."""
        with self._lock:
            self._refill(self._clock())
            deficit = tokens - self._tokens
            return max(0.0, deficit / self.refill_per_second)

    @property
    def available(self) -> float:
        """Tokens currently in the bucket (refilled to now)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens

    def __repr__(self) -> str:
        return (
            f"TenantBudget(capacity={self.capacity:g}, "
            f"refill_per_second={self.refill_per_second:g}, "
            f"available={self.available:.2f})"
        )


@dataclass(frozen=True)
class TenantPolicy:
    """Admission configuration for one tenant.

    Attributes:
        bucket_capacity: Burst allowance (tokens).
        refill_per_second: Sustained admission rate (tokens/second).
    """

    bucket_capacity: float = 8.0
    refill_per_second: float = 16.0


@dataclass
class TenantRegistry:
    """Thread-safe tenant table: policies plus live buckets.

    Unknown tenants get ``default_policy`` on first sight (multi-tenant
    serving cannot require pre-registration). ``clock`` is forwarded to
    every bucket created here.
    """

    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    clock: Callable[[], float] = time.monotonic
    _policies: dict[str, TenantPolicy] = field(default_factory=dict)
    _buckets: dict[str, TenantBudget] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def configure(self, tenant: str, policy: TenantPolicy) -> None:
        """Install ``policy`` for ``tenant`` (resets its bucket)."""
        with self._lock:
            self._policies[tenant] = policy
            self._buckets.pop(tenant, None)

    def policy(self, tenant: str) -> TenantPolicy:
        with self._lock:
            return self._policies.get(tenant, self.default_policy)

    def bucket(self, tenant: str) -> TenantBudget:
        """The live bucket for ``tenant`` (created from its policy)."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                policy = self._policies.get(tenant, self.default_policy)
                bucket = TenantBudget(
                    capacity=policy.bucket_capacity,
                    refill_per_second=policy.refill_per_second,
                    clock=self.clock,
                )
                self._buckets[tenant] = bucket
            return bucket

    def known_tenants(self) -> tuple[str, ...]:
        """Tenants that have admitted at least one request, sorted."""
        with self._lock:
            return tuple(sorted(self._buckets))
