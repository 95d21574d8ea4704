"""Silhouette scoring and silhouette-guided choice of cluster count."""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count
from .kmeans import kmeans

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

    # Per cluster, sort the members once and take prefix sums.  For any x the
    # sum of |x - v_j| over the sorted members v is then
    # x*(2*below - m) - 2*pre[below] + pre[m] with below = #(v < x).  Both
    # sides are shifted by a member near the cluster's median first, so the
    # prefix sums stay at cluster scale and the cancellation stays small.
    sums = np.empty((sizes.size, x.size))
    for c, m in enumerate(sizes):
        v = np.sort(x[inverse == c])
        centre = v[m // 2]
        v -= centre
        y = x - centre
        pre = np.concatenate(([0.0], np.cumsum(v)))
        below = np.searchsorted(v, y)
        sums[c] = y * (2 * below - m) - 2 * pre[below] + pre[m]

    own = sizes[inverse]
    idx = np.arange(x.size)
    a = sums[inverse, idx] / np.maximum(own - 1, 1)
    sums /= sizes[:, None]
    sums[inverse, idx] = np.inf
    b = sums.min(axis=0)
    denom = np.maximum(a, b)
    score = np.divide(b - a, denom, out=np.zeros(x.size), where=(own > 1) & (denom > 0))
    return float(score.sum() / x.size)


def best_k_silhouette(data, k_min: int = 2, k_max: int = 8, *, seed: int = 0) -> int:
    """Cluster count maximizing the silhouette of a seeded k-means fit.

    Ties break toward the smaller k.  Data with fewer than 3 distinct values
    short-circuits to the number of distinct values (at least 1).
    """
    x = as_values(data, name="data")
    check_count(k_min, "k_min", minimum=2)
    check_count(k_max, "k_max", minimum=2)
    distinct = int(np.unique(x).size)
    if distinct < 3:
        return max(1, distinct)
    lo = max(2, k_min)
    hi = min(k_max, x.size - 1, distinct)
    if hi < lo:
        return min(lo, distinct)
    best_k, best_score = lo, -2.0
    for k in range(lo, hi + 1):
        fit = kmeans(x, k, seed=seed)
        if fit.n_clusters < 2:
            continue
        score = silhouette(x, fit.labels)
        if score > best_score + 1e-12:
            best_k, best_score = k, score
    return best_k
