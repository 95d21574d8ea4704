"""Gaussian mixture fitting by expectation-maximization on 1-D data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..validation import as_values, check_count, check_positive, squared_range
from .kmeans import kmeans
from .result import ClusterResult

__all__ = ["GmmModel", "gmm_fit", "gmm_assign", "gmm_responsibilities"]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class GmmModel:
    """Fitted mixture: weights summing to 1, component means/variances, and
    the per-iteration log-likelihood trace."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: tuple[float, ...]

    @property
    def n_components(self) -> int:
        return int(self.means.size)


def gmm_fit(data, n_components: int, *, max_iter: int = 200, tol: float = 1e-7, seed: int = 0) -> GmmModel:
    """EM fit initialized from the centroids of ``kmeans(data, n_components)``.

    The log-likelihood trace is non-decreasing (within float tolerance) and
    iteration stops once it moves by less than ``tol``.  Variances are
    floored at 1e-6 * range^2 + 1e-12 so near-constant data cannot collapse
    a component.  ``seed`` is unused: the fit draws no random numbers.
    """
    x = as_values(data, name="data")
    m = check_count(n_components, "n_components", minimum=1)
    if m > x.size:
        raise ValueError(f"n_components={m} exceeds the {x.size} data points")
    max_iter = check_count(max_iter, "max_iter", minimum=1)
    tol = check_positive(tol, "tol", finite=True, zero=True)
    return gmm_em(x, m, kmeans(x, m).centroids, max_iter=max_iter, tol=tol)


def gmm_em(x: np.ndarray, m: int, centroids, *, max_iter: int = 200, tol: float = 1e-7) -> GmmModel:
    """``gmm_fit``'s EM on checked values ``x``, from the centroids of ``kmeans(x, m)``."""
    n = x.size
    means = np.sort(np.resize(centroids, m))  # pad (rarely) by repetition
    floor = 1e-6 * squared_range(x, "gmm") + 1e-12
    assign = np.abs(x[:, None] - means[None, :]).argmin(axis=1)
    weights = np.maximum(np.bincount(assign, minlength=m) / n, 1e-3)
    weights /= weights.sum()
    variances = np.empty(m)
    for j in range(m):
        mine = x[assign == j]
        variances[j] = max(float(((mine - means[j]) ** 2).mean()) if mine.size else 0.0, floor)

    history: list[float] = []
    for _ in range(max_iter):
        log_joint = _log_joint(x, weights, means, variances)
        norm = _logsumexp_rows(log_joint)
        history.append(float(norm.sum()))
        if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
            break
        resp = np.exp(log_joint - norm[:, None])
        nk = np.maximum(resp.sum(axis=0), 1e-300)
        weights = nk / n
        weights = weights / weights.sum()
        means = (resp * x[:, None]).sum(axis=0) / nk
        variances = np.maximum((resp * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / nk, floor)

    return GmmModel(weights, means, variances, tuple(history))


def gmm_responsibilities(model: GmmModel, data) -> np.ndarray:
    """Posterior component probabilities, one row per point (rows sum to 1)."""
    x = as_values(data, name="data")
    log_joint = _log_joint(x, model.weights, model.means, model.variances)
    return np.exp(log_joint - _logsumexp_rows(log_joint)[:, None])


def gmm_assign(model: GmmModel, data) -> ClusterResult:
    """Label each point with its max-responsibility component (ties to the
    lower index); centroids are the used components' means."""
    x = as_values(data, name="data")
    picks = gmm_responsibilities(model, x).argmax(axis=1)
    present, labels = np.unique(picks, return_inverse=True)
    return ClusterResult(
        labels=labels,
        n_clusters=int(present.size),
        centroids=model.means[present].copy(),
    )


def _log_joint(x: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """log(weight_j * N(x_i | mean_j, variance_j)), one row per point."""
    return (
        np.log(weights)[None, :]
        - 0.5 * (_LOG_2PI + np.log(variances))[None, :]
        - (x[:, None] - means[None, :]) ** 2 / (2.0 * variances[None, :])
    )


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    mx = a.max(axis=1)
    return mx + np.log(np.exp(a - mx[:, None]).sum(axis=1))
