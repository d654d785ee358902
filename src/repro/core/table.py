"""The JCR table — the dynamic-programming memo.

Maps relation-set bitmasks to :class:`repro.plans.JCR` entries and maintains
per-level (set-size) survivor lists, which is what the level-wise algorithms
(SDP, IDP's blocks) iterate over. SDP's pruning replaces a level's list with
its survivors; the discarded JCRs leave the search, and their plans are
freed with them, but their modeled arena bytes remain allocated (see
:mod:`repro.core.base`).

Tables are thin: each JCR holds its own plans as tuple nodes
(:mod:`repro.plans.store`), so IDP can re-seed a *fresh* table each
iteration (obtain tables via ``PlanSpace.new_table()``) while carrying
composite JCRs from the previous one.
"""

from __future__ import annotations

from repro.cost.cardinality import CardinalityEstimator
from repro.errors import OptimizationError
from repro.plans.jcr import JCR

__all__ = ["JCRTable"]


class JCRTable:
    """Bitmask-keyed table of JCRs with per-level lists."""

    __slots__ = ("_by_mask", "_by_level", "_est")

    def __init__(self, est: CardinalityEstimator):
        self._est = est
        self._by_mask: dict[int, JCR] = {}
        self._by_level: dict[int, list[JCR]] = {}

    def get(self, mask: int) -> JCR | None:
        """The JCR for ``mask``, or None."""
        return self._by_mask.get(mask)

    def require(self, mask: int) -> JCR:
        """The JCR for ``mask``; raises if the search never built it."""
        jcr = self._by_mask.get(mask)
        if jcr is None:
            raise OptimizationError(f"no JCR was built for mask {mask:#x}")
        return jcr

    def get_or_create(self, mask: int) -> tuple[JCR, bool]:
        """Fetch the JCR for ``mask``, creating (and registering) it if new.

        Returns:
            ``(jcr, created)``.
        """
        jcr = self._by_mask.get(mask)
        if jcr is not None:
            return jcr, False
        return self.create(mask), True

    def create(self, mask: int) -> JCR:
        """Create and register the JCR for ``mask``, which must be absent.

        A new JCR is estimated once, uncached; its rows, selectivity and
        width live only on the JCR. The caller has already missed on
        ``mask``, so registering it is one insert per map.
        """
        rows, log_sel, width = self._est.estimate(mask)
        jcr = JCR(mask, rows, log_sel, width=width)
        self._by_mask[mask] = jcr
        level = self._by_level.get(jcr.level)
        if level is None:
            self._by_level[jcr.level] = [jcr]
        else:
            level.append(jcr)
        return jcr

    def insert(self, jcr: JCR) -> None:
        """Register an externally built JCR (IDP re-seeds tables this way).

        Raises:
            OptimizationError: if the mask is already present.
        """
        if jcr.mask in self._by_mask:
            raise OptimizationError(f"mask {jcr.mask:#x} already in table")
        self._by_mask[jcr.mask] = jcr
        self._by_level.setdefault(jcr.level, []).append(jcr)

    def level(self, size: int) -> list[JCR]:
        """Surviving JCRs whose relation set has ``size`` members."""
        return self._by_level.get(size, [])

    def replace_level(self, size: int, survivors: list[JCR]) -> int:
        """Install pruning survivors for a level; returns the pruned count."""
        current = self._by_level.get(size, [])
        keep = {jcr.mask for jcr in survivors}
        pruned = 0
        for jcr in current:
            if jcr.mask not in keep:
                del self._by_mask[jcr.mask]
                pruned += 1
        self._by_level[size] = list(survivors)
        return pruned

    def __len__(self) -> int:
        return len(self._by_mask)

    def __contains__(self, mask: int) -> bool:
        return mask in self._by_mask

    @property
    def estimator(self) -> CardinalityEstimator:
        return self._est
