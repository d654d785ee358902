"""Sort-Filter-Skyline (SFS).

Chomicki et al.'s SFS: process vectors in ascending order of a monotone
score (here the coordinate sum after per-dimension rank normalization is
overkill — the raw sum suffices, since any topological order of the
dominance relation works as long as no later vector can dominate an
earlier one). Each candidate is then compared only against the
already-accepted vectors.

In exact arithmetic a dominator has a strictly smaller sum. In floats it
has a smaller *or equal* one — rounding is monotone, but a sum can absorb
the coordinate that differs — and equal sums are processed by index. A
vector that precedes its dominator that way is accepted before the
dominator is seen, so SFS can keep a dominated vector that
:func:`~repro.skyline.naive.naive_skyline` drops (see :func:`sfs_skyline`).

The 2-D branch keeps the accepted vectors as a *staircase*: accepted
points sorted by x with y strictly decreasing, each point dropped once a
later one has x and y no larger. It holds exactly the prefix minima of y
over the accepted points, which is all a dominance test needs, so one
bisection replaces the scan of every accepted vector, with the same
survivors.

The paper assumes "fast techniques for computing skyline functions" [2];
this is the one SDP uses by default.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from repro.skyline.dominance import dominates

__all__ = ["sfs_skyline"]


def sfs_skyline(vectors: Sequence[Sequence[float]]) -> set[int]:
    """Indices of the vectors no *earlier-processed* vector dominates.

    Vectors are processed by ascending coordinate sum, ties by index. That
    equals ``naive_skyline`` unless a float sum absorbs the coordinate
    that makes one vector dominate another; then both are kept:

    >>> sorted(sfs_skyline([(1e20, 0.0), (1e20, -5.0)]))
    [0, 1]

    The 2- and 3-dimensional cases — the only ones SDP produces (pairwise
    projections and the full RCS vector) — run hand-inlined dominance
    tests (the 2-D one against a staircase); anything else falls back to
    the generic :func:`dominates` scan.

    >>> sorted(sfs_skyline([(1, 4), (2, 2), (3, 3), (4, 1)]))
    [0, 1, 3]
    """
    if not vectors:
        return set()
    accepted: list[int] = []
    dims = len(vectors[0])
    if dims == 2:
        sums = [vector[0] + vector[1] for vector in vectors]
        # The staircase: xs strictly increasing, ys strictly decreasing, so
        # ys[k - 1] is the least y among accepted points with x < xs[k].
        xs: list[float] = []
        ys: list[float] = []
        for i in sorted(range(len(vectors)), key=sums.__getitem__):
            candidate = vectors[i]
            cx = candidate[0]
            cy = candidate[1]
            k = bisect_left(xs, cx)
            # Dominated iff an accepted point has x < cx and y <= cy, or
            # x == cx (only xs[k] can) and y < cy.
            if k and ys[k - 1] <= cy:
                continue
            size = len(xs)
            if k < size and xs[k] == cx and ys[k] < cy:
                continue
            # Insert, dropping the points at or after it that it covers.
            end = k
            while end < size and ys[end] >= cy:
                end += 1
            xs[k:end] = (cx,)
            ys[k:end] = (cy,)
            accepted.append(i)
        return set(accepted)
    order = sorted(range(len(vectors)), key=lambda i: sum(vectors[i]))
    if dims == 3:
        kept: list[Sequence[float]] = []
        for i in order:
            candidate = vectors[i]
            cx = candidate[0]
            cy = candidate[1]
            cz = candidate[2]
            for kept_vector in kept:
                kx = kept_vector[0]
                ky = kept_vector[1]
                kz = kept_vector[2]
                if (
                    kx <= cx
                    and ky <= cy
                    and kz <= cz
                    and (kx < cx or ky < cy or kz < cz)
                ):
                    break
            else:
                accepted.append(i)
                kept.append(candidate)
        return set(accepted)
    for i in order:
        candidate = vectors[i]
        if not any(dominates(vectors[j], candidate) for j in accepted):
            accepted.append(i)
    return set(accepted)
