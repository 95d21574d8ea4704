"""Silhouette scoring and silhouette-guided choice of cluster count."""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count
from .kmeans import from_partition, partitions
from .result import ClusterResult

__all__ = ["silhouette", "best_k_silhouette"]


def silhouette(data, labels) -> float:
    """Mean silhouette score in [-1, 1].

    Per point: a = mean distance to its own cluster, b = lowest mean distance
    to another cluster, score = (b - a) / max(a, b).  Singleton clusters
    contribute 0, as does the fully degenerate max(a, b) = 0 case.
    """
    x = as_values(data, name="data", min_len=2)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != x.shape:
        raise ValueError("labels must align with data")
    if labels.min() < 0:
        raise ValueError("silhouette is undefined for noise labels")
    _, inverse, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if sizes.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    order = np.argsort(x, kind="stable")
    return float(_silhouettes(x[order], order, inverse[order][None, :])[0])


def _silhouettes(xs: np.ndarray, order: np.ndarray, labelings: np.ndarray) -> np.ndarray:
    """Silhouette of each row of ``labelings``, a compact labeling of the
    sorted values ``xs = x[order]`` into at least 2 clusters.

    For any y, the sum of |y - v| over a cluster's sorted members v is
    y*(2*below - m) - 2*pre[below] + pre[m] with below = #(v < y) and pre the
    prefix sums of v.  Both sides are shifted by the cluster's median member
    first, so the prefix sums stay at cluster scale and the cancellation stays
    small.  The points are sorted once, so each cluster's prefix sums are a
    running sum over its member mask, and below for the point at position p
    is the number of members ahead of the first position whose shifted value
    equals p's: the shift is monotone, so that is #(v < y) exactly as a binary
    search over the members counts it.
    """
    n = xs.size
    pos = np.arange(n)
    scores = np.empty(len(labelings))
    unsorted = np.empty(n)
    after = pos + 1
    cells = pos + (n + 1) * np.arange(int(labelings.max()) + 1)[:, None]  # (cluster, point) in pre
    # The dels below keep at most four (k, n) arrays alive at once: this loop
    # and the k-means program set the search's peak memory.
    for i, own in enumerate(labelings):
        size = np.bincount(own)
        k = size.size
        grouped = own.argsort(kind="stable")  # members cluster by cluster, ascending
        starts = size.cumsum() - size
        y = np.subtract(xs, xs[grouped[starts + size // 2]][:, None])
        pre = np.zeros((k, n + 1))
        pre[own, after] = y[own, pos]
        pre.cumsum(axis=1, out=pre)
        # first: the cell of the first position in each row whose shifted
        # value equals this one's, so the members ahead of it are exactly
        # those below it.
        runs = np.empty((k, n), dtype=bool)
        np.not_equal(y.ravel()[1:], y.ravel()[:-1], out=runs.ravel()[1:])
        runs[:, 0] = True
        first = np.where(runs, cells[:k], 0)
        del runs
        np.maximum.accumulate(first, axis=1, out=first)
        twice_pre = pre.take(first)
        twice_pre *= 2  # 2 * pre[below]
        total = pre[:, n:].copy()  # pre[m]
        del pre
        # below: how many member cells (sorted, as the keys) lie ahead of first
        below = cells[own[grouped], grouped].searchsorted(first)
        del first
        below *= 2
        below -= (2 * starts + size)[:, None]  # 2 * below - m
        y *= below
        del below
        y -= twice_pre
        y += total  # y now holds the distance sums
        del twice_pre
        mine = size[own]
        a = y[own, pos] / np.maximum(mine - 1, 1)
        y /= size[:, None]
        y[own, pos] = np.inf
        b = y.min(axis=0)
        del y
        denom = np.maximum(a, b)
        b -= a
        score = np.divide(b, denom, out=np.zeros(n), where=(mine > 1) & (denom > 0))
        unsorted[order] = score  # sum in the callers' point order, as a per-point loop would
        scores[i] = unsorted.sum() / n
    return scores


def best_k_silhouette(data, k_min: int = 2, k_max: int = 8, *, seed: int = 0) -> int:
    """Cluster count maximizing the silhouette of the optimal k-means partition.

    Ties break toward the smaller k.  Data with fewer than 3 distinct values
    short-circuits to the number of distinct values (at least 1).  ``seed``
    is unused: the search draws no random numbers.
    """
    return _search(as_values(data, name="data"), k_min, k_max)[0]


def best_k_fit(data, k_min: int = 2, k_max: int = 8, *, seed: int = 0) -> tuple[int, ClusterResult]:
    """``best_k_silhouette`` and the fit ``kmeans(data, k)`` of the chosen k,
    taken from the search instead of fitted again.  ``seed`` is unused."""
    x = as_values(data, name="data")
    k, labels = _search(x, k_min, k_max)
    return k, from_partition(x, labels)


def _search(x: np.ndarray, k_min: int, k_max: int):
    """(best k, its k-means labels).

    One run of ``partitions`` gives every candidate's partition, and all of
    them are scored from one sort of the data.
    """
    check_count(k_min, "k_min", minimum=2)
    check_count(k_max, "k_max", minimum=2)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    distinct = 1 + int(np.count_nonzero(xs[1:] != xs[:-1]))
    lo = max(2, k_min)
    hi = min(k_max, x.size - 1, distinct)
    if distinct < 3 or hi < lo:  # a single candidate, left unscored
        lo = hi = min(lo, distinct)
    candidates = partitions(xs, lo, hi)
    best, best_score = 0, -2.0
    for c, score in enumerate(_silhouettes(xs, order, candidates).tolist() if hi > lo else ()):
        if score > best_score + 1e-12:
            best, best_score = c, score
    labels = np.empty(x.size, dtype=np.intp)
    labels[order] = candidates[best]
    return lo + best, labels
