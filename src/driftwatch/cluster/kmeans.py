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
    labels, histories = lloyd(x, [k], max_iter=max_iter, tol=tol, seed=seed)
    return fit_result(x, labels[0], histories[0])


def lloyd(x: np.ndarray, ks, *, max_iter: int = 100, tol: float = 1e-9, seed: int = 0):
    """Run ``kmeans(x, k, seed=seed)`` for every k in ``ks`` at once.

    Returns the raw (uncompacted) labels, one row per k, and each k's inertia
    trace.  The k-means++ seeds are drawn once for the largest k: the draws do
    not depend on how many seeds follow, so the seeds for a smaller k are the
    first k of them.  All centres sit in one flat array, candidate after
    candidate, and labels are kept as slots in it, so one ``bincount`` gives
    every count, another every sum, and the update and the convergence tests
    run on all candidates at once.  Distances, assignment and inertia are
    taken one candidate at a time in one reused n x largest-k buffer: a
    buffer for all candidates, plus the copy numpy makes of each broadcast
    ufunc operand, would more than double the search's peak memory.  A
    candidate leaves the loop once it converges, with exactly the labels and
    trace a fit of its k alone gives.
    """
    ks = [int(k) for k in ks]
    n = x.size
    seeds = _plus_plus_init(x, max(ks), np.random.default_rng(seed))
    centers = np.concatenate([seeds[:k] for k in ks])
    first = np.cumsum([0] + ks[:-1])  # each candidate's first slot
    limit = tol * max(float(np.ptp(x)), 1e-300)
    scratch = np.empty(n * max(ks))
    views = [scratch[: n * k].reshape(n, k) for k in ks]
    column = x[:, None]
    weights = np.tile(x, len(ks))  # x once per candidate row
    idx = np.arange(n)
    labels: list = [None] * len(ks)
    histories: list[list[float]] = [[] for _ in ks]
    active = np.arange(len(ks))
    prev: np.ndarray | None = None

    def distances(c: int) -> np.ndarray:
        d2 = views[c]
        np.subtract(column, centers[first[c] : first[c] + ks[c]], out=d2)
        return np.square(d2, out=d2)

    def assign(cand: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Label every point of each candidate and record its inertia."""
        slots = np.empty((cand.size, n), dtype=np.intp)
        for c, row in zip(cand.tolist(), slots):
            d2 = distances(c)
            d2.argmin(axis=1, out=row)
            histories[c].append(float(d2[idx, row].sum()))
        slots += heads[:, None]
        return slots

    def finish(cand: np.ndarray, slots: np.ndarray) -> None:
        for c, row in zip(cand.tolist(), slots):
            labels[c] = row - first[c]

    heads = first  # first slot of each active candidate
    for _ in range(max_iter):
        lab = assign(active, heads)
        flat = lab.ravel()
        counts = np.bincount(flat, minlength=centers.size)
        sums = np.bincount(flat, weights=weights[: flat.size], minlength=centers.size)
        if np.count_nonzero(counts) < sum(ks[c] for c in active.tolist()):
            # Re-seat any empty cluster on the currently worst-assigned point
            # and claim that point, so exact ties cannot leave it empty again.
            for r, c in enumerate(active.tolist()):
                k, s = ks[c], first[c]
                count = counts[s : s + k]
                if count.all():
                    continue
                d2, row = distances(c), lab[r] - s
                for j in range(k):
                    if count[j] == 0:
                        worst = int(d2[idx, row].argmax())
                        centers[s + j] = x[worst]
                        d2[:, j] = (x - centers[s + j]) ** 2
                        row = d2.argmin(axis=1)
                        row[worst] = j
                        count[:] = np.bincount(row, minlength=k)
                sums[s : s + k] = np.bincount(row, weights=x, minlength=k)
                lab[r] = row + s
                histories[c][-1] = float(d2[idx, row].sum())
        if prev is not None:
            done = (lab == prev).all(axis=1)
            if done.any():
                finish(active[done], lab[done])
                active, heads, lab = active[~done], heads[~done], lab[~done]
                if not active.size:
                    break
        prev = lab
        # Slots of finished candidates get no members, so they keep their centres.
        moved = centers
        centers = centers.copy()
        np.divide(sums, counts, out=centers, where=counts > 0)
        settled = np.maximum.reduceat(np.abs(centers - moved), heads) <= limit
        if settled.any():
            done = active[settled]
            lab = assign(done, heads[settled])
            finish(done, lab)
            active, heads, prev = active[~settled], heads[~settled], prev[~settled]
            if not active.size:
                break
    else:
        finish(active, prev)
    return np.array(labels), histories


def fit_result(x: np.ndarray, labels: np.ndarray, history: list[float]) -> ClusterResult:
    """The ClusterResult of one fit from its raw labels and inertia trace."""
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
