"""Density-based clustering over 1-D value sets.

Core point: at least ``min_pts`` points (itself included) within ``eps``.
Clusters are the connected components of core points; border points join the
cluster of their lowest-index core neighbor; the rest is noise.  Cluster ids
follow first-visit order, so results are deterministic for a fixed input
order.

In 1-D every eps-neighbourhood is a contiguous range of the sorted values,
and a component is a run of sorted core points whose gaps stay within eps, so
one sort and one two-pointer sweep over the sorted Python floats replace the
pairwise distance matrix (O(n log n) time, O(n) memory).  The sweep is exact:
it tests the same predicate, fl(|a - b|) <= eps, on the same doubles, and both
range ends only move forward because rounded subtraction is monotone.
:func:`dbscan` keeps each range end; fl(|a - b|) is symmetric, so j <= i is in
range of i iff i < end[j], and start[i] is the first j with end[j] > i.
Border points never create or merge a cluster, so :func:`dbscan_count` labels
no point: the count is the number of runs, 1 + #(gaps > eps between
consecutive sorted core values), or 0.
"""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count, check_positive
from .result import NOISE, from_labels

__all__ = ["dbscan", "dbscan_count"]


def dbscan(data, eps: float, min_pts: int):
    x = as_values(data, name="data")
    eps, min_pts = _checked(eps, min_pts)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = x.size
    end = np.array(_sweep(xs.tolist(), eps, min_pts)[1])
    start = end.searchsorted(np.arange(n), "right")
    core = end - start >= min_pts
    cores = np.flatnonzero(core)
    with np.errstate(over="ignore"):  # a distance that rounds to inf is beyond every finite eps
        breaks = xs[cores[1:]] - xs[cores[:-1]] > eps
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
    return _sweep(sorted(x.tolist()), eps, min_pts)[0]


def _checked(eps, min_pts) -> tuple[float, int]:
    return check_positive(eps, "eps"), check_count(min_pts, "min_pts", minimum=1)


def _sweep(xs: list[float], eps: float, min_pts: int) -> tuple[int, list[int]]:
    """Over the sorted values ``xs``: the number of runs of core values, and
    per value the end of its neighbourhood range."""
    n = len(xs)
    runs = lo = 0
    hi = 1  # v's neighbourhood is xs[lo:hi]; both ends only move forward
    last = 0.0  # the last core value, read once runs > 0
    end = []
    for v in xs:
        while v - xs[lo] > eps:
            lo += 1
        while hi < n and xs[hi] - v <= eps:
            hi += 1
        end.append(hi)
        if hi - lo >= min_pts:
            if not runs or v - last > eps:
                runs += 1
            last = v
    return runs, end
