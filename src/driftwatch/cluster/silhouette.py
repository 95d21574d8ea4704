"""Silhouette scoring and silhouette-guided choice of cluster count."""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count
from .kmeans import partitions
from .result import from_labels

__all__ = ["silhouette", "best_k_silhouette"]

#: (labeling, cluster, point) cells scored in one stacked pass.  The seven
#: candidates of an 18-point batch take 7 x 8 x 19 = 1,064 cells, so they are
#: scored in one pass.  From 90 points up a pass holds at most 12 cluster rows,
#: against 8 for the k = 8 candidate alone, so the scoring's memory stays
#: linear in n and near that of one candidate at a time.
CELLS = 1152


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
    return float(_stacked(x[order], order, inverse[order][None, :], sizes.size)[0])


def _silhouettes(xs: np.ndarray, order: np.ndarray, labelings: np.ndarray) -> np.ndarray:
    """Silhouette of each row of ``labelings``, a compact labeling of the
    sorted values ``xs = x[order]`` into at least 2 clusters.

    The labelings are scored in chunks of consecutive rows: each chunk has
    at most ``CELLS`` (labeling, cluster, point) cells, or is one labeling
    that alone has more.
    """
    n = xs.size
    chunks = []  # (first row, end row, clusters per labeling)
    for row, k in enumerate((labelings.max(axis=1) + 1).tolist()):
        if chunks and (row + 1 - chunks[-1][0]) * max(k, chunks[-1][2]) * (n + 1) <= CELLS:
            chunks[-1] = (chunks[-1][0], row + 1, max(k, chunks[-1][2]))
        else:
            chunks.append((row, row + 1, k))
    return np.concatenate([_stacked(xs, order, labelings[lo:hi], k) for lo, hi, k in chunks])


def _stacked(xs: np.ndarray, order: np.ndarray, labelings: np.ndarray, k: int) -> np.ndarray:
    """Silhouettes of the rows of ``labelings``, with labels below k, scored
    together: every step runs once on (labeling, cluster, point) arrays,
    flattened to one cluster row of cells per (labeling, cluster), with the
    same per-element operations and per-row sums as scoring one labeling at
    a time.

    For any y, the sum of |y - v| over a cluster's sorted members v is
    y*(2*below - m) - 2*pre[below] + pre[m] with below = #(v < y) and pre the
    prefix sums of v.  Both sides are shifted by the cluster's median member
    first, so the prefix sums stay at cluster scale and the cancellation stays
    small.  The points are sorted once, so each cluster's prefix sums are a
    running sum over its member mask, and below for the point at position p
    is the number of members ahead of the first position whose shifted value
    equals p's: the shift is monotone, so that is #(v < y) exactly as a binary
    search over the members counts it.  A labeling with fewer than k clusters
    leaves rows with no members; they get +inf before the nearest other
    cluster is taken.
    """
    n = xs.size
    rows = k * len(labelings)
    pos = np.arange(n)
    # The dels below keep at most four (rows, n) arrays alive at once: this
    # scoring and the k-means program set the search's peak memory.
    own = labelings + k * np.arange(len(labelings))[:, None]  # each point's cluster row
    # keys: the members' cells (cluster row, point) in pre, cluster row by cluster row
    keys = np.sort(own * (n + 1) + pos, axis=None, kind="stable")
    size = np.bincount(own.ravel(), minlength=rows)
    starts = size.cumsum() - size
    # shift each row by its median member (a row with no members, by the last member)
    y = np.subtract(xs, xs[keys.take(starts + size // 2, mode="clip") % (n + 1)][:, None])
    pre = np.zeros((rows, n + 1))
    pre[:, 1:][own, pos] = y[own, pos]
    pre.cumsum(axis=1, out=pre)
    # first: the cell of the first position in each row whose shifted value
    # equals this one's, so the members ahead of it are exactly those below it.
    runs = np.empty(y.shape, dtype=bool)
    np.not_equal(y.ravel()[1:], y.ravel()[:-1], out=runs.ravel()[1:])
    runs[:, 0] = True
    first = np.where(runs, pos, 0)
    del runs
    np.maximum.accumulate(first, axis=1, out=first)
    first += (n + 1) * np.arange(rows)[:, None]
    twice_pre = pre.take(first)
    twice_pre *= 2  # 2 * pre[below]
    total = pre[:, n:].copy()  # pre[m]
    del pre
    # below: how many member cells (sorted, as the keys) lie ahead of first
    below = keys.searchsorted(first)
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
    y /= np.maximum(size, 1)[:, None]
    y[size == 0] = np.inf
    y[own, pos] = np.inf
    b = y.reshape(len(labelings), k, n).min(axis=1)
    del y
    denom = np.maximum(a, b)
    b -= a
    score = np.divide(b, denom, out=np.zeros(b.shape), where=(mine > 1) & (denom > 0))
    unsorted = np.empty_like(score)
    unsorted[:, order] = score  # sum in the callers' point order, as a per-point loop would
    return unsorted.sum(axis=1) / n


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

    One run of ``partitions`` gives every candidate's partition, and all of
    them are scored from one sort of the data.
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
    for c, score in enumerate(_silhouettes(xs, order, candidates).tolist() if hi > lo else ()):
        if score > best_score + 1e-12:
            best, best_score = c, score
    labels = np.empty(x.size, dtype=np.intp)
    labels[order] = candidates[best]
    return lo + best, labels
