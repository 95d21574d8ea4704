"""Density-based clustering over 1-D value sets.

Core point: at least ``min_pts`` points (itself included) within ``eps``.
Clusters are the connected components of core points; border points join the
cluster of their lowest-index core neighbor; the rest is noise.  Cluster ids
follow first-visit order, so results are deterministic for a fixed input
order.

In 1-D every eps-neighbourhood is a contiguous range of the sorted values,
and a component is a run of sorted core points whose gaps stay within eps.
:func:`dbscan` labels from one sort and a few binary searches in place of the
pairwise distance matrix (O(n log n) time, O(n) memory).  Only the range ends
need a search: fl(|a - b|) is symmetric, so j <= i is in range of i iff
i < end[j], and end is non-decreasing (rounded subtraction is monotone), so
start[i] is the first j with end[j] > i.  Border points never create or merge
a cluster, so :func:`dbscan_count` labels no point: the count is the number
of runs, 1 + #(gaps > eps between consecutive sorted core values), or 0.  It
takes them in one two-pointer sweep over the sorted Python floats: the same
predicate on the same doubles, and both range ends only move forward, as
rounded subtraction is monotone.  On an 18-point batch that pays none of
numpy's per-call overhead; from about a hundred points on the searches would
be faster.
"""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count, check_positive
from .result import NOISE, from_labels

__all__ = ["dbscan", "dbscan_count"]

_NAN = np.full(1, np.nan)  # the value past the end in _neighbourhoods
_NAN.flags.writeable = False


def dbscan(data, eps: float, min_pts: int):
    x = as_values(data, name="data")
    eps, min_pts = _checked(eps, min_pts)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    with np.errstate(over="ignore"):  # a distance that rounds to inf is beyond every finite eps
        start, end = _neighbourhoods(xs, eps)
        core = end - start >= min_pts
        cores = np.flatnonzero(core)
        breaks = xs[cores[1:]] - xs[cores[:-1]] > eps
    n = x.size
    labels = np.full(n, NOISE, dtype=int)
    if cores.size == 0:
        return from_labels(x, labels)

    # Components, numbered by their lowest input index (first-visit order).
    component = np.concatenate(([0], np.cumsum(breaks)))
    first = np.minimum.reduceat(order[cores], np.flatnonzero(np.concatenate(([True], breaks))))
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(first.size)
    labels[order[cores]] = rank[component]

    # Border points take the label of the lowest-index core point in range.
    key = np.append(np.where(core, order, n), n)
    nearest = np.minimum.reduceat(key, np.column_stack((start, end)).ravel())[::2]
    border = ~core & (nearest < n)
    labels[order[border]] = labels[nearest[border]]
    return from_labels(x, labels)


def dbscan_count(data, eps: float, min_pts: int) -> int:
    """``dbscan(data, eps, min_pts).n_clusters``, counted as runs of sorted core values."""
    return count_runs(as_values(data, name="data"), eps, min_pts)


def count_runs(x: np.ndarray, eps: float, min_pts: int) -> int:
    """:func:`dbscan_count` of ``x``, a finite 1-D float array as
    :func:`~driftwatch.validation.as_values` returns it; only ``eps`` and
    ``min_pts`` are checked here.  The count reads no order, so a plain sort
    serves."""
    eps, min_pts = _checked(eps, min_pts)
    xs = sorted(x.tolist())
    n = len(xs)
    runs = lo = 0
    hi = 1  # v's neighbourhood is xs[lo:hi]; both ends only move forward
    last = 0.0  # the last core value, read once runs > 0
    for v in xs:
        while v - xs[lo] > eps:
            lo += 1
        while hi < n and xs[hi] - v <= eps:
            hi += 1
        if hi - lo >= min_pts:
            if not runs or v - last > eps:
                runs += 1
            last = v
    return runs


def _checked(eps, min_pts) -> tuple[float, int]:
    return check_positive(eps, "eps"), check_count(min_pts, "min_pts", minimum=1)


def _neighbourhoods(xs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per sorted point i, the range [start, end) of j with fl(|xs[j] - xs[i]|) <= eps.

    The rounded distance is monotone in j on either side of i, so the range is
    contiguous.  The binary-search guess for ``end`` from ``xs + eps`` can be
    off where that rounding differs from the rounded bound; each pass moves
    every end by one run of equal values toward the exact predicate until none
    moves.  The NaN past the last value compares false, so no end grows past
    n, even for eps = inf.  ``start`` follows from ``end`` by symmetry.
    """
    beyond = np.concatenate((xs, _NAN))
    end = xs.searchsorted(xs + eps, "right")
    while True:
        last, above = xs[end - 1], beyond[end]
        grow, shrink = above - xs <= eps, last - xs > eps
        if not np.count_nonzero(grow | shrink):
            return end.searchsorted(np.arange(xs.size), "right"), end
        end = np.where(grow, xs.searchsorted(above, "right"),
                       np.where(shrink, xs.searchsorted(last, "left"), end))
