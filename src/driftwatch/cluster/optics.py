"""Ordering-based density clustering with a reachability-cut extraction.

Points are visited in density order; each gets a reachability distance (how
hard it was to reach from the already-visited region, +inf for region
leaders).  Clusters are maximal runs of the ordering whose reachability stays
at or below a quantile cut of the finite reachability values; runs shorter
than ``min_cluster_size`` and everything above the cut are noise.
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

    dist = np.abs(x[:, None] - x[None, :])
    within = dist <= max_eps
    counts = within.sum(axis=1)
    sorted_rows = np.sort(dist, axis=1)
    core_dist = np.where(
        counts >= min_samples, sorted_rows[:, min_samples - 1], math.inf
    )

    reach = np.full(n, math.inf)
    processed = np.zeros(n, dtype=bool)
    order: list[int] = []

    def update_from(p: int) -> None:
        if not math.isfinite(core_dist[p]):
            return
        q = within[p] & ~processed
        reach[q] = np.minimum(reach[q], np.maximum(core_dist[p], dist[p, q]))

    for i in range(n):
        if processed[i]:
            continue
        processed[i] = True
        order.append(i)
        update_from(i)
        while True:
            pending = np.nonzero(~processed & np.isfinite(reach))[0]
            if pending.size == 0:
                break
            nxt = int(pending[reach[pending].argmin()])  # argmin ties break low
            processed[nxt] = True
            order.append(nxt)
            update_from(nxt)

    profile = ReachabilityProfile(np.array(order), reach)
    return profile, _extract(x, profile, min_cluster_size, cut_quantile)


def _extract(
    x: np.ndarray, profile: ReachabilityProfile, min_cluster_size: int, cut_quantile: float
) -> ClusterResult:
    finite = profile.reachability[np.isfinite(profile.reachability)]
    labels = np.full(x.size, NOISE, dtype=int)
    if finite.size == 0:
        return from_labels(x, labels)
    cut = float(np.quantile(finite, cut_quantile))

    k = 0
    run: list[int] = []

    def flush() -> None:
        nonlocal k
        if len(run) >= min_cluster_size:
            for p in run:
                labels[p] = k
            k += 1
        run.clear()

    for p in profile.ordering:
        if profile.reachability[p] <= cut:
            run.append(int(p))
        else:
            flush()
    flush()
    return from_labels(x, labels)
