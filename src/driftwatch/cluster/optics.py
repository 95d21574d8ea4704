"""Ordering-based density clustering with a reachability-cut extraction.

Points are visited in density order; each gets a reachability distance (how
hard it was to reach from the already-visited region, +inf for region
leaders).  Clusters are maximal runs of the ordering whose reachability stays
at or below a quantile cut of the finite reachability values; runs shorter
than ``min_cluster_size`` and everything above the cut are noise.

No N x N array is held.  A point's core distance is its ``min_samples``-th
smallest distance (itself included), read from a window of its
``min_samples - 1`` sorted neighbours on each side, padded with -inf/+inf.
The window holds that distance exactly: a - b rounds monotonically, so
fl(|a - b|) never decreases as b moves away from a in sorted rank on either
side, and the ``min_samples`` smallest distances take at most
``min_samples - 1`` points from each side.  Each visit computes its own
distance row, the same subtraction the full matrix would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..validation import as_values, check_count, check_positive
from .result import NOISE, ClusterResult, from_labels

__all__ = ["ReachabilityProfile", "optics"]


@dataclass(frozen=True, eq=False)
class ReachabilityProfile:
    """Visit order plus per-point (input-indexed) reachability distances."""

    ordering: np.ndarray
    reachability: np.ndarray


def optics(
    data,
    min_samples: int = 3,
    max_eps: float = math.inf,
    min_cluster_size: int = 3,
    *,
    cut_quantile: float = 0.75,
) -> tuple[ReachabilityProfile, ClusterResult]:
    x = as_values(data, name="data")
    min_samples = check_count(min_samples, "min_samples", minimum=2)
    min_cluster_size = check_count(min_cluster_size, "min_cluster_size", minimum=2)
    check_positive(max_eps, "max_eps")
    if not 0 < cut_quantile < 1:
        raise ValueError(f"cut_quantile must be in (0, 1), got {cut_quantile}")
    n = x.size
    if min_samples > n:
        raise ValueError(f"min_samples={min_samples} exceeds the {n} data points")

    rank = np.argsort(x)
    pad = np.full(min_samples - 1, math.inf)
    window = np.concatenate([-pad, x[rank], pad])[np.arange(n)[:, None] + np.arange(2 * min_samples - 1)]
    kth = np.partition(np.abs(window - x[rank, None]), min_samples - 1, axis=1)[:, min_samples - 1]
    core = np.empty(n)
    core[rank] = np.where(kth <= max_eps, kth, math.inf)

    # frontier: reachability of the unvisited points, inf once visited
    reach = np.full(n, math.inf)
    frontier = reach.copy()
    unvisited = np.ones(n, dtype=bool)
    ordering = np.empty(n, dtype=int)
    for i in range(n):
        p = int(frontier.argmin())  # argmin ties break low
        if frontier[p] == math.inf:  # region finished: the lowest unvisited index leads the next
            p = int(unvisited.argmax())
        ordering[i] = p
        reach[p] = frontier[p]
        frontier[p] = math.inf
        unvisited[p] = False
        dist = np.abs(x[p] - x)
        np.minimum(frontier, np.maximum(dist, core[p]), out=frontier, where=unvisited & (dist <= max_eps))

    profile = ReachabilityProfile(ordering, reach)
    return profile, _extract(x, profile, min_cluster_size, cut_quantile)


def _extract(
    x: np.ndarray, profile: ReachabilityProfile, min_cluster_size: int, cut_quantile: float
) -> ClusterResult:
    finite = profile.reachability[np.isfinite(profile.reachability)]
    labels = np.full(x.size, NOISE, dtype=int)
    if finite.size == 0:
        return from_labels(x, labels)
    cut = float(np.quantile(finite, cut_quantile))

    below = profile.reachability[profile.ordering] <= cut
    runs = np.flatnonzero(np.diff(below, prepend=False, append=False)).reshape(-1, 2)
    for k, (start, stop) in enumerate(runs[runs[:, 1] - runs[:, 0] >= min_cluster_size]):
        labels[profile.ordering[start:stop]] = k
    return from_labels(x, labels)
