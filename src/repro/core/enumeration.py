"""Level-wise pair enumeration over survivor JCR lists.

SDP (and IDP's blocks) are described level by level: the input to level
``L`` is every pair of *survivor* JCRs of sizes ``i`` and ``L - i`` — the
"all prior levels" rule that admits bushy trees (Section 2.1.2). Unlike
DPccp, the candidate pool here is whatever pruning left alive, so the
enumeration pairs the survivor lists with bitmask disjointness and
connectivity tests. A small JCR that meets the relations shared by every
JCR of the large list overlaps all of them; it is skipped before its inner
loop, which in a star (every composite holds the hub) removes most tests.

Sizes can be counted in base relations (SDP) or in contracted nodes (IDP);
the caller supplies the level lists either way.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

from repro.core.base import SearchCounters
from repro.plans.jcr import JCR
from repro.query.joingraph import JoinGraph

__all__ = ["level_pairs"]


def level_pairs(
    levels: Mapping[int, Sequence[JCR]],
    target_level: int,
    graph: JoinGraph,
    counters: SearchCounters | None = None,
) -> Iterator[tuple[JCR, JCR]]:
    """Yield each unordered survivor pair forming a level-``target_level`` set.

    Args:
        levels: Survivor JCRs keyed by level (size).
        target_level: The level being built (>= 2).
        graph: Join graph for connectivity tests.
        counters: If given, every yielded pair is charged as search work.
    """
    for small in range(1, target_level // 2 + 1):
        large = target_level - small
        small_list = levels.get(small, ())
        large_list = levels.get(large, ())
        if not small_list or not large_list:
            continue
        # A small JCR meeting the relations every large JCR holds overlaps
        # them all, so it is skipped without scanning the large list.
        common = -1
        for b in large_list:
            common &= b.mask
        same_size = small == large
        for a in small_list:
            a_mask = a.mask
            if a_mask & common:
                continue
            a_neighbors = graph.neighbors(a_mask)
            for b in large_list:
                b_mask = b.mask
                if a_mask & b_mask:
                    continue
                if same_size and a_mask > b_mask:
                    continue
                if not a_neighbors & b_mask:
                    continue
                if counters is not None:
                    counters.note_pairs()
                yield a, b
