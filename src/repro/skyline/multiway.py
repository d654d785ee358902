"""SDP's skyline pruning function over RCS feature vectors.

Section 2.1.5 defines two candidate pruning functions over the
``[Rows, Cost, Selectivity]`` vector, both the union of the skylines over
some projections of it (:func:`pairwise_union_skyline`):

* **Option 1** (the single projection ``(0, 1, 2)``): one skyline over the
  full 3-dimensional vector. High plan quality, weak pruning (most JCRs
  survive).
* **Option 2** (:data:`PAIRWISE_DIMENSIONS`): the *disjunctive multi-way*
  skyline — the union of the three pairwise skylines on (R,C), (C,S) and
  (R,S). A JCR is retained iff it survives in at least one pairwise
  skyline. The paper finds this keeps Option 1's plan quality while pruning
  roughly twice as hard (Table 2.3), and it is what SDP ships with.

Relationship between the options: in the absence of exact ties, dominance in
a projection implies dominance in the full space, so every pairwise survivor
also survives the full skyline — Option 2 retains a *subset* of Option 1,
which is exactly why it prunes harder.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.skyline.sfs import sfs_skyline

__all__ = ["pairwise_union_skyline", "PAIRWISE_DIMENSIONS"]

#: The paper's pairwise attribute combinations: RC, CS, RS.
PAIRWISE_DIMENSIONS: tuple[tuple[int, int], ...] = ((0, 1), (1, 2), (0, 2))


def pairwise_union_skyline(
    vectors: Sequence[Sequence[float]],
    dimensions: Sequence[Sequence[int]] = PAIRWISE_DIMENSIONS,
) -> set[int]:
    """The union of the skylines over projections (Option 2 by default).

    Args:
        vectors: Feature vectors (all dimensions minimized).
        dimensions: Index tuples to project on; defaults to the paper's
            RC/CS/RS pairs over 3-vectors. ``((0, 1, 2),)`` is Option 1.

    Returns:
        Indices surviving in at least one projection's
        :func:`~repro.skyline.sfs.sfs_skyline`.
    """
    survivors: set[int] = set()
    for dims in dimensions:
        if len(dims) == 2:
            a, b = dims
            projected = [(v[a], v[b]) for v in vectors]
        else:
            projected = [tuple(v[d] for d in dims) for v in vectors]
        survivors |= sfs_skyline(projected)
    return survivors
