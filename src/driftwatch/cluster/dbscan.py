"""Density-based clustering over 1-D value sets.

Core point: at least ``min_pts`` points (itself included) within ``eps``.
Clusters are the connected components of core points; border points join the
cluster of their lowest-index core neighbor; the rest is noise.  Cluster ids
follow first-visit order, so results are deterministic for a fixed input
order.

In 1-D every eps-neighbourhood is a contiguous range of the sorted values,
and a component is a run of sorted core points whose gaps stay within eps.
So one sort and a few binary searches replace the pairwise distance matrix
(O(n log n) time, O(n) memory).
"""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count, check_positive
from .result import NOISE, from_labels

__all__ = ["dbscan"]


def dbscan(data, eps: float, min_pts: int):
    x = as_values(data, name="data")
    eps = check_positive(eps, "eps")
    min_pts = check_count(min_pts, "min_pts", minimum=1)
    n = x.size

    order = np.argsort(x, kind="stable")
    xs = x[order]
    start, end = _neighbourhoods(xs, eps)
    core = end - start >= min_pts
    labels = np.full(n, NOISE, dtype=int)
    cores = np.flatnonzero(core)
    if cores.size == 0:
        return from_labels(x, labels)

    # Components, numbered by their lowest input index (first-visit order).
    breaks = xs[cores[1:]] - xs[cores[:-1]] > eps
    component = np.concatenate(([0], np.cumsum(breaks)))
    first = np.minimum.reduceat(order[cores], np.flatnonzero(np.concatenate(([True], breaks))))
    labels[order[cores]] = np.argsort(np.argsort(first))[component]

    # Border points take the label of the lowest-index core point in range.
    key = np.append(np.where(core, order, n), n)
    nearest = np.minimum.reduceat(key, np.column_stack((start, end)).ravel())[::2]
    border = ~core & (nearest < n)
    labels[order[border]] = labels[nearest[border]]
    return from_labels(x, labels)


def _neighbourhoods(xs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per sorted point i, the range [start, end) of j with fl(|xs[j] - xs[i]|) <= eps.

    The rounded distance is monotone in j on either side of i, so the range is
    contiguous.  The binary-search guesses from ``xs -/+ eps`` can be off where
    that rounding differs from the rounded bound; each pass moves every edge
    by one run of equal values toward the exact predicate until none moves.
    """
    n = xs.size
    start = np.searchsorted(xs, xs - eps, "left")
    end = np.searchsorted(xs, xs + eps, "right")
    while True:
        below, first = xs[start - 1], xs[start]
        last, above = xs[end - 1], xs[np.minimum(end, n - 1)]
        grow_start = (start > 0) & (xs - below <= eps)
        shrink_start = xs - first > eps
        grow_end = (end < n) & (above - xs <= eps)
        shrink_end = last - xs > eps
        if not (grow_start | shrink_start | grow_end | shrink_end).any():
            return start, end
        start = np.where(grow_start, np.searchsorted(xs, below, "left"),
                         np.where(shrink_start, np.searchsorted(xs, first, "right"), start))
        end = np.where(grow_end, np.searchsorted(xs, above, "right"),
                       np.where(shrink_end, np.searchsorted(xs, last, "left"), end))
