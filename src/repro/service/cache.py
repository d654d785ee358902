"""An LRU plan cache keyed by (query fingerprint, statistics epoch).

The cache is the serving layer's answer to repeated traffic: a query whose
fingerprint (see :mod:`repro.service.fingerprint`) matches a cached entry
returns its plan without re-running the search. Statistics changes are
handled by an *epoch* component in the key plus explicit
:meth:`PlanCache.invalidate` — after an ``analyze()`` refresh no stale
entry can hit, even before the eviction policy recycles it.

The implementation is a plain ``OrderedDict`` LRU: hits move entries to
the MRU end, inserts beyond ``capacity`` evict from the LRU end. All
traffic is counted (:class:`CacheStats`) so operators can watch hit rates
— the number that decides whether the cache is worth its memory.

The cache is **thread-safe**: the serving front door
(:mod:`repro.service.frontdoor`) runs worker threads over one shared
cache, so every operation — lookup, insert, invalidation, the length and
membership probes — holds one internal lock, and the
:class:`CacheStats` counters stay exact under concurrent traffic
(``hits + misses == lookups`` even when threads race on the same key).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.errors import ServiceError
from repro.obs.names import METRIC_PLAN_CACHE_EVENTS_TOTAL, METRIC_PLAN_CACHE_SIZE
from repro.obs.runtime import enabled as _obs_enabled, metrics as _obs_metrics

__all__ = ["CacheStats", "PlanCache"]


def _cache_events():
    """The shared plan-cache traffic counter (observability enabled only)."""
    return _obs_metrics().counter(
        METRIC_PLAN_CACHE_EVENTS_TOTAL,
        "Plan-cache traffic by event (hit/miss/eviction/invalidation).",
        ("event",),
    )


@dataclass
class CacheStats:
    """Traffic counters for one :class:`PlanCache`.

    Attributes:
        hits: Lookups answered from the cache.
        misses: Lookups that fell through to the optimizer.
        evictions: Entries displaced by the LRU capacity policy.
        invalidations: Entries dropped by explicit invalidation
            (statistics refreshes).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class PlanCache:
    """Bounded LRU mapping cache keys to cached optimization results.

    Args:
        capacity: Maximum number of retained entries, an ``int`` >= 1.

    Keys are ``(fingerprint, epoch)`` tuples in service use, but any
    hashable key works — the cache does not interpret them.
    """

    def __init__(self, capacity: int = 128):
        # A NaN or float capacity would compare so that nothing is ever
        # evicted; a bool is an int by accident.
        if (
            isinstance(capacity, bool)
            or not isinstance(capacity, int)
            or capacity < 1
        ):
            raise ServiceError(
                f"plan cache capacity must be an int >= 1, got {capacity!r}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._stats = CacheStats()
        # RLock, not Lock: observability hooks run inside the critical
        # section and must never re-enter a dead lock if they call back.
        self._lock = threading.RLock()

    def get(self, key: Hashable) -> object | None:
        """The cached value for ``key``, or None (counted as hit/miss)."""
        with self._lock:
            entry = self.probe(key)
            if entry is None:
                self._stats.misses += 1
                if _obs_enabled():
                    _cache_events().inc(event="miss")
            return entry

    def probe(self, key: Hashable) -> object | None:
        """:meth:`get` that counts a hit but not a miss.

        For a caller that follows a miss with a :meth:`get` of its own
        (the front door probes at admission, and its worker looks up
        again), so the miss is counted once, by that :meth:`get`.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            if _obs_enabled():
                _cache_events().inc(event="hit")
            return entry

    def peek(self, key: Hashable) -> object | None:
        """The cached value for ``key``, or None, counted nowhere.

        For a caller whose lookup is already counted: a single-flight
        follower reads its leader's plan with it, so a request counts one
        lookup however it is served.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting LRU entries over capacity."""
        with self._lock:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            evicted = 0
            while len(entries) > self.capacity:
                entries.popitem(last=False)
                evicted += 1
            if evicted:
                self._stats.evictions += evicted
                if _obs_enabled():
                    _cache_events().inc(evicted, event="eviction")
            if _obs_enabled():
                _obs_metrics().gauge(
                    METRIC_PLAN_CACHE_SIZE, "Entries currently cached."
                ).set(len(entries))

    def invalidate(self) -> int:
        """Drop every entry (statistics refresh); returns the count dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._stats.invalidations += dropped
            if _obs_enabled():
                if dropped:
                    _cache_events().inc(dropped, event="invalidation")
                _obs_metrics().gauge(
                    METRIC_PLAN_CACHE_SIZE, "Entries currently cached."
                ).set(0)
            return dropped

    @property
    def stats(self) -> CacheStats:
        """Live traffic counters (the same object across calls).

        The returned object is mutated under the cache lock; reading a
        single counter is atomic, but cross-counter invariants should be
        derived from one field at a time (``lookups`` sums two reads).
        """
        return self._stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
