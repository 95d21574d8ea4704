"""Exact k-means over 1-D value sets by dynamic programming."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..validation import as_values, check_count
from .result import ClusterResult, from_labels

__all__ = ["kmeans"]

#: Columns per block of the dynamic program.  A block holds two cost
#: matrices of up to about BLOCK x BLOCK cells, and numpy buffers a broadcast
#: operand at the same size; at 24 the program's peak memory stays below the
#: silhouette scoring's at the 90-point training size.
BLOCK = 24


def kmeans(data, k: int, *, seed: int = 0) -> ClusterResult:
    """Optimal k-means partition of the values into k groups.

    In 1-D an optimal partition is contiguous in sorted order, so
    ``partitions`` finds it exactly: there is no initialization and no
    iteration cap, and equal values always share a label.  Data with fewer
    than k distinct values gives one cluster per distinct value.  Labels
    number the clusters in ascending order of value, and ``inertia_history``
    is ``(inertia,)``.  ``seed`` is unused: the fit draws no random numbers.
    """
    x = as_values(data, name="data")
    k = check_count(k, "k", minimum=1)
    if k > x.size:
        raise ValueError(f"k={k} exceeds the {x.size} data points")
    order = np.argsort(x, kind="stable")
    labels = np.empty(x.size, dtype=np.intp)
    labels[order] = partitions(x[order], k, k)[0]
    result = from_labels(x, labels)
    with np.errstate(over="ignore"):  # an inertia past the float range reads inf
        inertia = float(np.square(x - result.centroids[labels]).sum())
    return replace(result, inertia=inertia, inertia_history=(inertia,))


def partitions(xs: np.ndarray, k_lo: int, k_hi: int) -> np.ndarray:
    """Labels of the sorted values ``xs`` under an optimal k-means partition,
    one row for each k in [k_lo, k_hi]; a k above the number of distinct
    values gives one cluster per distinct value.

    The program runs over the m distinct values, each weighted by its
    multiplicity, so equal values share a cluster.  A cluster's cost, the
    squared deviation of its values y from their mean, is sum(w*y^2) - S^2/W
    with W = sum(w) and S = sum(w*y).  The first term sums to the same for
    every partition, so the program minimizes the sum of -S^2/W, from prefix
    sums of w and w*y.  y is shifted by the median value and scaled by a
    power of two to below 1 in magnitude: the scaling is exact, so the
    partition is that of the unscaled values, and S^2 neither overflows nor
    underflows at any scale of the data.  best_k[j], that least sum for k
    clusters over the first j values, is the least best_{k-1}[i] - S(i, j)^2 / W(i, j) over
    splits i < j; the least such i is kept.  That split never decreases with
    j (the cost is Monge), so each block of BLOCK columns solves its last
    column over all splits first, and its other columns need only the splits
    from the previous block's to that one.  Memory is one k x m split table
    plus one block; a small m is one dense block.
    """
    new = np.empty(xs.size, dtype=bool)
    new[0] = True
    np.not_equal(xs[1:], xs[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    m = starts.size
    k_top = min(k_hi, m)
    W, S = np.zeros((2, m + 1))
    W[1:m], W[m] = starts[1:], xs.size  # the points before each distinct value
    y = xs[starts] - xs[xs.size // 2]
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])  # |y| < 1
    np.cumsum((W[1:] - W[:-1]) * y, out=S[1:])
    split = np.zeros((k_top + 1, m + 1), dtype=np.intp)
    best = np.full(m + 1, np.inf)
    best[1:] = -S[1:] ** 2 / W[1:]
    with np.errstate(divide="ignore", invalid="ignore"):  # in the cells masked below
        for k in range(2, k_top + 1):
            lo = k - 1
            j0 = k if k < k_top else m  # the last level needs column m alone
            while j0 <= m:
                j1 = min(j0 + BLOCK - 1, m)
                ds = S[j1] - S[lo:j1]
                hi = split[k, j1] = lo + int((best[lo:j1] - ds * ds / (W[j1] - W[lo:j1])).argmin())
                # columns j0..j1-1 against splits lo..hi, one row per column
                dw = W[j0:j1, None] - W[lo : hi + 1]
                cost = S[j0:j1, None] - S[lo : hi + 1]
                np.square(cost, out=cost)
                cost /= dw
                np.subtract(best[lo : hi + 1], cost, out=cost)
                if hi >= j0:  # a split at or past a column leaves its last cluster empty
                    cost[dw <= 0] = np.inf
                np.add(cost.argmin(axis=1), lo, out=split[k, j0:j1])
                lo, j0 = hi, j1 + 1
            i = split[k, k:]
            ds = S[k:] - S[i]
            best[k:] = best[i] - ds * ds / (W[k:] - W[i])  # columns below k are not read again
    labels = np.zeros((k_hi - k_lo + 1, m), dtype=np.intp)
    for row, k in enumerate(range(k_lo, k_hi + 1)):
        j = m
        for level in range(min(k, k_top), 1, -1):
            j = split[level, j]
            labels[row, j] = 1  # a cluster starts at value j
    labels.cumsum(axis=1, out=labels)
    return labels[:, np.cumsum(new) - 1]
