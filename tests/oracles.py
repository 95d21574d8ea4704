"""Independent reference implementations used to cross-check the engines.

Everything here is deliberately written by a different route than the
package code: brute force, exhaustive enumeration, and plain loops.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

NOISE = -1


def canonical(labels) -> tuple[int, ...]:
    """Relabel clusters by first appearance so partitions compare equal."""
    labels = list(int(v) for v in labels)
    remap: dict[int, int] = {}
    out = []
    for v in labels:
        if v == NOISE:
            out.append(NOISE)
            continue
        if v not in remap:
            remap[v] = len(remap)
        out.append(remap[v])
    return tuple(out)


def dbscan_reference(x, eps: float, min_pts: int) -> np.ndarray:
    """Brute-force density clustering via boolean transitive closure."""
    x = np.asarray(x, dtype=float)
    n = x.size
    within = np.abs(x[:, None] - x[None, :]) <= eps
    core = within.sum(axis=1) >= min_pts

    # density-connectivity among core points: closure of core-to-core edges
    edges = within & core[:, None] & core[None, :]
    closure = edges.copy()
    while True:
        grown = closure | (closure @ closure)
        if np.array_equal(grown, closure):
            break
        closure = grown

    labels = np.full(n, NOISE, dtype=int)
    k = 0
    for i in range(n):
        if core[i] and labels[i] == NOISE:
            comp = np.nonzero(closure[i])[0]
            labels[comp] = k
            labels[i] = k
            k += 1
    for i in range(n):
        if not core[i]:
            near_cores = [j for j in range(n) if core[j] and within[i, j]]
            if near_cores:
                labels[i] = labels[near_cores[0]]
    return labels


def optics_reference(
    x, min_samples: int, max_eps: float = math.inf, min_cluster_size: int = 3, cut_quantile: float = 0.75
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OPTICS with a scalar reachability update per neighbour and a loop-based
    reachability cut; returns (ordering, reachability, labels)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    dist = np.abs(x[:, None] - x[None, :])
    within = dist <= max_eps
    core_dist = [
        float(np.sort(dist[p])[min_samples - 1]) if within[p].sum() >= min_samples else math.inf
        for p in range(n)
    ]
    reach = np.full(n, math.inf)
    processed = [False] * n
    order: list[int] = []

    def visit(p: int) -> None:
        processed[p] = True
        order.append(p)
        if math.isinf(core_dist[p]):
            return
        for q in range(n):
            if within[p, q] and not processed[q]:
                reach[q] = min(reach[q], max(core_dist[p], dist[p, q]))

    for i in range(n):
        if processed[i]:
            continue
        visit(i)
        while True:
            pending = [q for q in range(n) if not processed[q] and math.isfinite(reach[q])]
            if not pending:
                break
            visit(min(pending, key=lambda q: reach[q]))  # ties go to the lowest index

    labels = np.full(n, NOISE, dtype=int)
    finite = reach[np.isfinite(reach)]
    if finite.size:
        cut = float(np.quantile(finite, cut_quantile))
        k = 0
        run: list[int] = []
        for p in order + [None]:
            if p is not None and reach[p] <= cut:
                run.append(p)
                continue
            if len(run) >= min_cluster_size:
                labels[run] = k
                k += 1
            run = []
    return np.array(order), reach, labels


def kmeans_brute_force(x, k: int) -> tuple[float, np.ndarray]:
    """Least k-means cost over every way to cut the sorted points into k
    contiguous runs, each cost summed directly around its run's mean.
    Returns (cost, labels of the sorted points)."""
    xs = sorted(float(v) for v in x)
    n = len(xs)
    best, best_cuts = math.inf, ()
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        cost = 0.0
        for a, b in zip(bounds, bounds[1:]):
            mu = sum(xs[a:b]) / (b - a)
            cost += sum((v - mu) ** 2 for v in xs[a:b])
        if cost < best:
            best, best_cuts = cost, cuts
    labels = np.zeros(n, dtype=int)
    for cut in best_cuts:
        labels[cut:] += 1
    return best, labels


def kmeans_dense_dp(x, k_max: int) -> tuple[list[float], list[np.ndarray]]:
    """Optimal k-means costs and partitions for k = 1..k_max by the dense
    O(k n^2) program over the sorted points (not the distinct values).
    Each run's cost is taken around that run's own first point, so no
    shared shift or weighting is involved.  Returns (costs, labels of the
    sorted points), one entry per k."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    cost = np.full((n + 1, n + 1), np.inf)  # cost[i, j]: the run xs[i:j]
    for i in range(n):
        d = xs[i:] - xs[i]
        m = np.arange(1, n - i + 1)
        s1, s2 = np.cumsum(d), np.cumsum(d * d)
        cost[i, i + 1 :] = np.maximum(s2 - s1 * s1 / m, 0.0)
    best = cost[0].copy()
    splits = [np.zeros(n + 1, dtype=int)]
    costs = [float(best[n])]
    for _ in range(2, k_max + 1):
        total = best[:, None] + cost
        splits.append(total.argmin(axis=0))
        best = total.min(axis=0)
        costs.append(float(best[n]))
    partitions = []
    for k in range(1, k_max + 1):
        labels = np.zeros(n, dtype=int)
        j = n
        for level in range(k, 1, -1):
            j = int(splits[level - 1][j])
            labels[j:] += 1
        partitions.append(labels)
    return costs, partitions


def silhouette_reference(x, labels) -> float:
    """Direct per-point silhouette formula with plain loops."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=int)
    clusters = sorted(set(labels.tolist()))
    total = 0.0
    for i in range(x.size):
        own = labels[i]
        mine = [j for j in range(x.size) if labels[j] == own and j != i]
        if not mine:
            continue
        a = sum(abs(x[i] - x[j]) for j in mine) / len(mine)
        b = math.inf
        for c in clusters:
            if c == own:
                continue
            others = [j for j in range(x.size) if labels[j] == c]
            b = min(b, sum(abs(x[i] - x[j]) for j in others) / len(others))
        denom = max(a, b)
        total += 0.0 if denom == 0 else (b - a) / denom
    return total / x.size


def best_two_partition(x) -> tuple[float, list[float]]:
    """Optimal 2-cluster inertia by enumerating every bipartition."""
    x = np.asarray(x, dtype=float)
    n = x.size
    best = math.inf
    best_centers: list[float] = []
    for mask_bits in range(1, 2**n - 1):
        left = [x[i] for i in range(n) if mask_bits & (1 << i)]
        right = [x[i] for i in range(n) if not mask_bits & (1 << i)]
        inertia = 0.0
        centers = []
        for side in (left, right):
            mu = sum(side) / len(side)
            centers.append(mu)
            inertia += sum((v - mu) ** 2 for v in side)
        if inertia < best:
            best = inertia
            best_centers = sorted(centers)
    return best, best_centers


def agglomerative_reference(x, threshold: float, linkage: str) -> tuple[int, ...]:
    """Naive agglomerative clustering recomputing all distances per step."""
    x = np.asarray(x, dtype=float)
    clusters: list[list[int]] = [[i] for i in range(x.size)]

    def link(a: list[int], b: list[int]) -> float:
        dists = [abs(x[i] - x[j]) for i in a for j in b]
        if linkage == "single":
            return min(dists)
        if linkage == "complete":
            return max(dists)
        return sum(dists) / len(dists)

    while len(clusters) > 1:
        best = math.inf
        pick = None
        for a, b in itertools.combinations(range(len(clusters)), 2):
            d = link(clusters[a], clusters[b])
            key = (d, min(clusters[a] + clusters[b]), min(clusters[b] + clusters[a]))
            if pick is None or d < best - 1e-15 or (abs(d - best) <= 1e-15 and key < pick[0]):
                best = d
                pick = (key, a, b)
        if best > threshold:
            break
        _, a, b = pick
        merged = sorted(clusters[a] + clusters[b])
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)]
        clusters.append(merged)

    clusters.sort(key=min)
    labels = [0] * x.size
    for ci, members in enumerate(clusters):
        for i in members:
            labels[i] = ci
    return tuple(labels)


def affinity_reference(
    x, preference: float, damping: float = 0.9, max_iter: int = 500, convergence_iter: int = 15
):
    """Scalar-loop affinity propagation; returns canonical labels or None."""
    x = np.asarray(x, dtype=float)
    n = x.size
    s = [[-((x[i] - x[j]) ** 2) for j in range(n)] for i in range(n)]
    scale = max(1.0, max(abs(s[i][j]) for i in range(n) for j in range(n)), abs(preference))
    for i in range(n):
        s[i][i] = preference - i * 1e-9 * scale
    r = [[0.0] * n for _ in range(n)]
    a = [[0.0] * n for _ in range(n)]
    stable = 0
    exemplars: set[int] = set()
    converged = False

    for _ in range(max_iter):
        for i in range(n):
            ranked = sorted((a[i][k] + s[i][k], k) for k in range(n))
            first_val, first_k = ranked[-1]
            second_val = ranked[-2][0] if n > 1 else -math.inf
            for k in range(n):
                challenger = second_val if k == first_k else first_val
                r[i][k] = damping * r[i][k] + (1 - damping) * (s[i][k] - challenger)
        for k in range(n):
            pos = [max(0.0, r[i][k]) for i in range(n)]
            for i in range(n):
                if i == k:
                    new = sum(pos[j] for j in range(n) if j != k)
                else:
                    new = min(0.0, r[k][k] + sum(pos[j] for j in range(n) if j not in (i, k)))
                a[i][k] = damping * a[i][k] + (1 - damping) * new
        current = {k for k in range(n) if r[k][k] + a[k][k] > 0}
        if current == exemplars:
            stable += 1
            if stable >= convergence_iter and current:
                converged = True
                break
        else:
            stable = 0
            exemplars = current

    if not converged or not exemplars:
        return None
    centers = sorted(exemplars)
    labels = []
    for i in range(n):
        if i in exemplars:
            labels.append(centers.index(i))
        else:
            labels.append(min(range(len(centers)), key=lambda c: abs(x[i] - x[centers[c]])))
    return canonical(labels)


def mixture_data(rng: np.random.Generator, n: int, max_modes: int = 3) -> np.ndarray:
    """Random 1-D mixture used across randomized tests."""
    modes = rng.integers(1, max_modes + 1)
    centers = rng.uniform(0.0, 100.0, modes)
    spread = rng.uniform(0.2, 5.0)
    return centers[rng.integers(0, modes, n)] + rng.normal(0.0, spread, n)
