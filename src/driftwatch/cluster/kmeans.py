"""Lloyd's k-means over 1-D value sets with seeded k-means++ initialization."""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count
from .result import ClusterResult

__all__ = ["kmeans"]


def kmeans(data, k: int, *, max_iter: int = 100, tol: float = 1e-9, seed: int = 0) -> ClusterResult:
    """Cluster values into k groups; deterministic per seed.

    Iterates assignment/update until the assignment stops changing, the
    largest centroid shift falls below ``tol`` (relative to the data range),
    or ``max_iter`` is hit.  The recorded inertia trace is non-increasing.
    Clusters left empty by duplicate-heavy data are dropped, so the result
    may report fewer than k clusters.
    """
    x = as_values(data, name="data")
    n = x.size
    k = check_count(k, "k", minimum=1)
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} data points")
    max_iter = check_count(max_iter, "max_iter", minimum=1)

    rng = np.random.default_rng(seed)
    centers = _plus_plus_init(x, k, rng)
    scale = max(float(np.ptp(x)), 1e-300)
    idx = np.arange(n)
    history: list[float] = []
    labels = np.zeros(n, dtype=int)
    prev_labels: np.ndarray | None = None

    for _ in range(max_iter):
        d2 = (x[:, None] - centers[None, :]) ** 2
        labels = d2.argmin(axis=1)
        # Re-seat any empty cluster on the currently worst-assigned point and
        # claim that point, so exact ties cannot leave the cluster empty again.
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                worst = int(d2[idx, labels].argmax())
                centers[j] = x[worst]
                d2[:, j] = (x - centers[j]) ** 2
                labels = d2.argmin(axis=1)
                labels[worst] = j
                counts = np.bincount(labels, minlength=k)
        history.append(float(d2[idx, labels].sum()))
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        sums = np.bincount(labels, weights=x, minlength=k)
        new_centers = np.where(counts > 0, sums / np.maximum(counts, 1), centers)
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift <= tol * scale:
            d2 = (x[:, None] - centers[None, :]) ** 2
            labels = d2.argmin(axis=1)
            history.append(float(d2[idx, labels].sum()))
            break

    # Compact away empty clusters (possible only on duplicate-heavy data).
    # The final centroids are per-cluster means: the gap rule reads them.
    present, labels = np.unique(labels, return_inverse=True)
    centroids = np.array([x[labels == j].mean() for j in range(len(present))])
    return ClusterResult(
        labels=labels,
        n_clusters=len(present),
        centroids=centroids,
        inertia=history[-1],
        inertia_history=tuple(history),
    )


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn proportional to squared distance."""
    centers = np.empty(k)
    centers[0] = x[rng.integers(x.size)]
    d2 = (x - centers[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = rng.choice(x.size, p=d2 / total)
        else:
            pick = rng.integers(x.size)
        centers[j] = x[pick]
        np.minimum(d2, (x - centers[j]) ** 2, out=d2)
    return centers
