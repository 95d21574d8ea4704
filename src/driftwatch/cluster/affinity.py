"""Affinity propagation: exemplar election by message passing.

Similarity is negative squared distance; a point's self-similarity (the
preference) controls how readily it becomes an exemplar.  Responsibility and
availability messages are exchanged with damping until the exemplar set
stays unchanged for ``convergence_iter`` sweeps.  A run that never
stabilizes on at least one exemplar reports zero clusters with every point
marked noise rather than inventing a partition.
"""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count
from .result import NOISE, from_labels

__all__ = ["affinity_propagation"]


def affinity_propagation(
    data,
    preference: float | None = None,
    damping: float = 0.9,
    max_iter: int = 500,
    convergence_iter: int = 15,
):
    x = as_values(data, name="data")
    if not 0.5 <= damping < 1:
        raise ValueError(f"damping must be in [0.5, 1), got {damping}")
    check_count(max_iter, "max_iter", minimum=1)
    check_count(convergence_iter, "convergence_iter", minimum=1)
    n = x.size
    if n == 1:
        return from_labels(x, np.zeros(1, dtype=int))

    S = -((x[:, None] - x[None, :]) ** 2)
    if preference is None:
        off = ~np.eye(n, dtype=bool)
        preference = float(S[off].min())
    diag = np.arange(n)
    S[diag, diag] = preference
    # Deterministic degeneracy breaker: earlier points get an infinitesimally
    # higher self-preference, so exact ties elect the lowest index.
    S[diag, diag] -= diag * 1e-9 * max(1.0, float(np.abs(S).max()))

    # Messages are updated in place; T is the one scratch N x N buffer.
    R = np.zeros((n, n))
    A = np.zeros((n, n))
    T = np.empty((n, n))
    stable = 0
    exemplars = np.zeros(n, dtype=bool)
    converged = False

    for _ in range(max_iter):
        np.add(A, S, out=T)
        top = T.argmax(axis=1)
        first = T[diag, top]
        T[diag, top] = -np.inf
        second = T.max(axis=1)
        np.subtract(S, first[:, None], out=T)
        T[diag, top] = S[diag, top] - second
        _damp(R, T, damping)

        np.maximum(R, 0.0, out=T)
        T[diag, diag] = R[diag, diag]
        colsum = T.sum(axis=0)
        np.subtract(colsum[None, :], T, out=T)
        np.minimum(0.0, T, out=T)
        T[diag, diag] = colsum - R[diag, diag]
        _damp(A, T, damping)

        current = A[diag, diag] + R[diag, diag] > 0
        if np.array_equal(current, exemplars):
            stable += 1
            if stable >= convergence_iter and current.any():
                converged = True
                break
        else:
            stable = 0
            exemplars = current

    if not converged or not exemplars.any():
        return from_labels(x, np.full(n, NOISE, dtype=int))

    centers = np.nonzero(exemplars)[0]
    labels = np.abs(x[:, None] - x[centers][None, :]).argmin(axis=1)
    labels[centers] = np.arange(centers.size)
    return from_labels(x, labels)


def _damp(M: np.ndarray, new: np.ndarray, damping: float) -> None:
    """M <- damping * M + (1 - damping) * new, in place; ``new`` is clobbered."""
    M *= damping
    new *= 1.0 - damping
    M += new
