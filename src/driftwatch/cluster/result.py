"""Shared clustering result type."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Label for points not assigned to any cluster.
NOISE = -1


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Per-point labels (NOISE = -1), cluster count, and optional centroids.

    Non-noise labels are always the compact range [0, n_clusters).  K-means
    additionally reports its inertia; ``inertia_history`` is ``(inertia,)``
    because the fit is exact, not iterative.
    """

    labels: np.ndarray
    n_clusters: int
    centroids: np.ndarray | None = None
    inertia: float | None = None
    inertia_history: tuple[float, ...] = ()


def from_labels(data: np.ndarray, labels: np.ndarray, **extra) -> ClusterResult:
    """Build a result from compact labels, computing per-cluster mean centroids."""
    labels = np.asarray(labels, dtype=int)
    assigned = labels[labels != NOISE]
    n_clusters = int(assigned.max()) + 1 if assigned.size else 0
    if assigned.size and not np.array_equal(np.unique(assigned), np.arange(n_clusters)):
        raise ValueError("cluster labels must form a compact range")
    with np.errstate(over="ignore", invalid="ignore"):
        centroids = np.array([data[labels == j].mean() for j in range(n_clusters)])
    for j in np.flatnonzero(~np.isfinite(centroids)):  # the sum overflowed: sum v / n
        v = data[labels == j]
        centroids[j] = (v / v.size).sum()
    return ClusterResult(labels=labels, n_clusters=n_clusters, centroids=centroids, **extra)
