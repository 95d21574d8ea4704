"""Agglomerative clustering with single/complete/average linkage.

Bottom-up: repeatedly merge the two closest clusters until the smallest
inter-cluster distance exceeds the threshold.  Merged distances follow the
Lance-Williams updates for the supported linkages, kept in the full N x N
matrix.  Ties break toward the pair with the lowest member indices (lower
slot first, then higher slot), and merged clusters keep the lower slot, so
slot order equals lowest-member order throughout.

In 1-D every cluster is a run of the sorted values, and under all three
linkages the closest pair of clusters is adjacent in that order: for runs
A < B < C, d(A, C) >= d(A, B).  So the search only reads the gaps between
neighbouring runs (Mullner 2011, arXiv:1109.2378, on merge searches that use
the geometry of the data): one argmin over a gap array, of which each merge
changes two entries.  Equal values are ordered by index, which keeps every
tie among equal values between neighbours.
"""

from __future__ import annotations

import math

import numpy as np

from ..validation import as_values, check_positive
from .result import from_labels

__all__ = ["agglomerative", "LINKAGES"]

LINKAGES = ("single", "complete", "average")


def agglomerative(data, distance_threshold: float, linkage: str = "average"):
    x = as_values(data, name="data")
    distance_threshold = check_positive(distance_threshold, "distance_threshold")
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    labels, _ = _merge(x, distance_threshold, linkage)
    return from_labels(x, labels)


def _merge(x: np.ndarray, distance_threshold: float, linkage: str):
    """Labels, each run numbered by its slot's rank, and the merges in order
    as (kept slot, merged-away slot, distance)."""
    n = x.size
    dist = np.abs(x[:, None] - x[None, :])
    order = np.argsort(x, kind="stable")
    # Boundary b lies between sorted positions b and b + 1: left[b] and
    # right[b] are the slots of the runs on either side, gap[b] their
    # distance (inf, and left[b] -1, once they have merged).
    left, right = order[:-1].copy(), order[1:].copy()
    gap = dist[left, right]
    first = np.empty(n, dtype=int)  # each slot's run: sorted positions first..last
    first[order] = np.arange(n)
    first = first.tolist()
    last = first.copy()
    alive = np.ones(n, dtype=bool)
    sizes = [1.0] * n
    merged, scratch = np.empty(n), np.empty(n)
    merges = []

    for _ in range(n - 1):
        b = int(gap.argmin())
        d = gap[b]
        if d > distance_threshold:
            break
        tied = np.flatnonzero(gap == d)
        if tied.size > 1:  # the lowest (lower slot, higher slot) pair
            tied = tied[left[tied] >= 0]  # an inf tie (overflow) takes in merged boundaries
            low = np.minimum(left[tied], right[tied])
            tied = tied[low == low.min()]
            b = int(tied[np.maximum(left[tied], right[tied]).argmin()])
        a, c = int(left[b]), int(right[b])  # a's run lies left of c's
        i, j = min(a, c), max(a, c)
        merges.append((i, j, float(d)))
        if linkage == "single":
            np.minimum(dist[i], dist[j], out=merged)
        elif linkage == "complete":
            np.maximum(dist[i], dist[j], out=merged)
        else:
            np.multiply(sizes[i], dist[i], out=merged)
            np.multiply(sizes[j], dist[j], out=scratch)
            merged += scratch
            merged /= sizes[i] + sizes[j]
        # Entries of merged-away slots go stale; only live pairs are read.
        dist[i] = merged
        dist[:, i] = merged
        sizes[i] += sizes[j]
        alive[j] = False
        gap[b], left[b] = math.inf, -1
        lo, hi = first[a], last[c]  # the merged run
        first[i], last[i] = lo, hi
        if lo > 0:
            right[lo - 1] = i
            gap[lo - 1] = merged[left[lo - 1]]
        if hi < n - 1:
            left[hi] = i
            gap[hi] = merged[right[hi]]

    labels = np.empty(n, dtype=int)
    for label, slot in enumerate(np.flatnonzero(alive)):
        labels[order[first[slot]:last[slot] + 1]] = label
    return labels, merges
