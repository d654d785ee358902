"""Skyline computation.

The skyline of a set of objects with feature vectors over ordered domains is
the subset not dominated by any other object (Börzsönyi et al. [1]); all
domains here are *minimized*. SDP prunes JCR partitions with a **disjunctive
multi-way skyline**: the union of the three pairwise skylines over the
``[Rows, Cost, Selectivity]`` feature vector (the paper's Option 2), with the
full three-dimensional skyline available as Option 1.

Algorithms:
    :func:`naive_skyline` — block-nested-loop, O(n²), any dimensionality.
    :func:`sfs_skyline` — sort-filter-skyline; sorts by a monotone score so
        each object needs comparing only against already-accepted skyline
        members (in 2-D, a staircase of them). Same output, except that a
        float sum tie can keep a dominated vector (see :mod:`.sfs`).
    :func:`pairwise_union_skyline` / :func:`full_skyline` — the two SDP
        pruning options over RCS vectors.
    :func:`k_dominant_skyline` — the "strong skyline" of the paper's
        future-work section (k-dominance), SDP's experimental Option 3.
"""

from repro.skyline.dominance import dominates
from repro.skyline.kdominant import k_dominant_skyline, k_dominates
from repro.skyline.multiway import full_skyline, pairwise_union_skyline
from repro.skyline.naive import naive_skyline
from repro.skyline.sfs import sfs_skyline

__all__ = [
    "dominates",
    "k_dominates",
    "k_dominant_skyline",
    "naive_skyline",
    "sfs_skyline",
    "pairwise_union_skyline",
    "full_skyline",
]
