"""Silhouette scoring and silhouette-guided choice of cluster count.

``silhouette`` scores any labeling.  The search's candidates are optimal
k-means partitions, each a labeling of the sorted values into contiguous
runs, and ``_runs`` scores them all together.
"""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count
from .kmeans import partitions
from .result import from_labels

__all__ = ["silhouette", "best_k_silhouette"]


def silhouette(data, labels) -> float:
    """Mean silhouette score in [-1, 1].

    Per point: a = mean distance to its own cluster, b = lowest mean distance
    to another cluster, score = (b - a) / max(a, b).  Singleton clusters
    contribute 0, as does the fully degenerate max(a, b) = 0 case.

    For any y, the sum of |y - v| over a cluster's m sorted members v is
    y*(2*below - m) - 2*pre[below] + pre[m] with below = #(v < y) and pre the
    prefix sums of v.  Both sides are shifted by the cluster's median member
    first, so the prefix sums stay at cluster scale and the cancellation
    stays small.
    """
    x = as_values(data, name="data", min_len=2)
    raw = np.asarray(labels)
    if raw.dtype.kind == "f" and not (np.isfinite(raw) & (np.floor(raw) == raw)).all():
        raise ValueError("labels must be whole numbers")
    labels = raw.astype(int)
    if labels.shape != x.shape:
        raise ValueError("labels must align with data")
    if labels.min() < 0:
        raise ValueError("silhouette is undefined for noise labels")
    _, inverse, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if sizes.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    order = np.argsort(x, kind="stable")
    xs, own = x[order], inverse[order]
    a, b = np.zeros(x.size), np.full(x.size, np.inf)
    for j, m in enumerate(sizes.tolist()):
        mine = own == j
        y = xs - xs[mine][m // 2]
        members = y[mine]
        pre = np.concatenate(([0.0], members)).cumsum()
        below = members.searchsorted(y)
        dist = y * (2 * below - m) - 2 * pre[below] + pre[m]
        a = np.where(mine, dist / max(m - 1, 1), a)
        b = np.where(mine, b, np.minimum(b, dist / m))
    m = sizes[own]
    denom = np.maximum(a, b)
    score = np.divide(b - a, denom, out=np.zeros(x.size), where=(m > 1) & (denom > 0))
    unsorted = np.empty_like(score)
    unsorted[order] = score  # sum in the caller's point order
    return float(unsorted.sum() / x.size)


def _runs(xs: np.ndarray, labelings: np.ndarray) -> np.ndarray:
    """Silhouette of each row of ``labelings``, a labeling of the sorted
    values ``xs`` into at least 2 contiguous runs, numbered 0, 1, ... in
    order of value.

    Each run [s, e) is shifted by its median member, and ``pre`` is the one
    prefix sum of the shifted values y.  The point at position p then has
    distance sum y*(2p - s - e) - 2*pre[p] + pre[s] + pre[e] to its own run.
    Every other run lies wholly on one side of it, so the nearest one is a
    neighbouring run; its mean distance is a difference of means, from
    small (labeling, run) tables.  Rows with fewer runs than the most are
    padded with empty runs, which read +inf, as does the missing left
    neighbour of run 0.
    """
    n = xs.size
    k = int(labelings[:, -1].max()) + 1  # runs per row, padded to the most
    cells = labelings + k * np.arange(len(labelings))[:, None]  # each point's (row, run) cell
    size = np.bincount(cells.ravel(), minlength=k * len(labelings)).reshape(-1, k)
    end = size.cumsum(axis=1)
    start = end - size
    shift = xs.take(start + size // 2, mode="clip")
    y = xs - shift.take(cells)
    pre = np.zeros((len(labelings), n + 1))
    np.cumsum(y, axis=1, out=pre[:, 1:])
    pre_s, pre_e = np.take_along_axis(pre, start, axis=1), np.take_along_axis(pre, end, axis=1)
    own = y * (2 * np.arange(n) - (start + end).take(cells)) - 2 * pre[:, :-1] + (pre_s + pre_e).take(cells)
    mean = (pre_e - pre_s) / np.maximum(size, 1)
    gap = shift[:, 1:] - shift[:, :-1]
    left, right = np.full((2,) + size.shape, np.inf)
    left[:, 1:] = gap - mean[:, :-1]  # y + left: the mean distance to the run below
    right[:, :-1] = np.where(size[:, 1:] > 0, mean[:, 1:] + gap, np.inf)  # right - y: to the run above
    m = size.take(cells)
    a = own / np.maximum(m - 1, 1)
    b = np.minimum(y + left.take(cells), right.take(cells) - y)
    denom = np.maximum(a, b)
    score = np.divide(b - a, denom, out=np.zeros(a.shape), where=(m > 1) & (denom > 0))
    return score.sum(axis=1) / n


def best_k_silhouette(data, k_min: int = 2, k_max: int = 8, *, seed: int = 0) -> int:
    """Cluster count maximizing the silhouette of the optimal k-means partition.

    Ties break toward the smaller k.  Data with fewer than 3 distinct values
    short-circuits to the number of distinct values (at least 1).  ``seed``
    is unused: the search draws no random numbers.
    """
    x = as_values(data, name="data")
    k_min = check_count(k_min, "k_min", minimum=2)
    k_max = check_count(k_max, "k_max", minimum=2)
    return _search(x, k_min, k_max)[0]


def best_k_fit(x: np.ndarray, k_min: int, k_max: int) -> tuple[int, np.ndarray]:
    """``best_k_silhouette`` of the checked values ``x`` and the centroids of
    ``kmeans(x, k)`` for the chosen k, taken from the search instead of
    fitted again."""
    k, labels = _search(x, k_min, k_max)
    return k, from_labels(x, labels).centroids


def _search(x: np.ndarray, k_min: int, k_max: int):
    """(best k, its k-means labels).

    One run of ``partitions`` gives every candidate's partition, and
    ``_runs`` scores them all from one sort of the data.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    distinct = 1 + int(np.count_nonzero(xs[1:] != xs[:-1]))
    lo = max(2, k_min)
    hi = min(k_max, x.size - 1, distinct)
    if distinct < 3 or hi < lo:  # a single candidate, left unscored
        lo = hi = min(lo, distinct)
    candidates = partitions(xs, lo, hi)
    best, best_score = 0, -2.0
    for c, score in enumerate(_runs(xs, candidates).tolist() if hi > lo else ()):
        if score > best_score + 1e-12:
            best, best_score = c, score
    labels = np.empty(x.size, dtype=np.intp)
    labels[order] = candidates[best]
    return lo + best, labels
