"""Affinity propagation: exemplar election by message passing.

Similarity is negative squared distance; a point's self-similarity (the
preference) controls how readily it becomes an exemplar.  Responsibility and
availability messages are exchanged with damping until the exemplar set
stays unchanged for ``convergence_iter`` sweeps.  A run that never
stabilizes on at least one exemplar reports zero clusters with every point
marked noise rather than inventing a partition.

The messages live in four N x N matrices: similarity S, responsibility R,
availability A and one scratch buffer T.  Both updates work row by row
except for the column sums of T, so each pass walks blocks of ``BLOCK``
entries (whole rows) and does all its work on a block while the block's rows
of S, R, A and T are in cache.  One pass finishes one iteration's
availabilities and starts the next iteration's responsibilities on the same
block; the column sums between them are one ``T.sum(axis=0)`` over the whole
of T (numpy adds its rows in order; summing per block would round
differently).  Blocking changes no value: every entry goes through the same
float operations in the same order as in an unblocked sweep.
"""

from __future__ import annotations

import numpy as np

from ..validation import as_values, check_count
from .result import NOISE, from_labels

__all__ = ["affinity_propagation"]

#: Matrix entries per block of rows: 256 KiB a matrix, 1 MiB for the four.
BLOCK = 32_768


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
    if preference is not None and not np.isfinite(preference):
        raise ValueError(f"preference must be finite, got {preference}")
    n = x.size
    if n == 1:
        return from_labels(x, np.zeros(1, dtype=int))

    exemplars, _ = _pass_messages(_similarity(x, preference), damping, max_iter, convergence_iter)
    if exemplars is None:
        return from_labels(x, np.full(n, NOISE, dtype=int))

    centers = np.nonzero(exemplars)[0]
    labels = np.abs(x[:, None] - x[centers][None, :]).argmin(axis=1)
    labels[centers] = np.arange(centers.size)
    return from_labels(x, labels)


def _similarity(x: np.ndarray, preference: float | None) -> np.ndarray:
    """S: negative squared distances, the preference on the diagonal."""
    n = x.size
    S = -((x[:, None] - x[None, :]) ** 2)
    # The largest off-diagonal |S| is the squared range: rounding a
    # difference and squaring it are both monotone.
    spread = float(np.ptp(x)) ** 2
    if preference is None:
        preference = -spread  # the lowest off-diagonal similarity
    # Deterministic degeneracy breaker: earlier points get an infinitesimally
    # higher self-preference, so exact ties elect the lowest index.
    scale = max(1.0, spread, abs(preference))
    diag = np.arange(n)
    S.reshape(-1)[diag * (n + 1)] = preference - diag * 1e-9 * scale
    return S


def _pass_messages(S: np.ndarray, damping: float, max_iter: int, convergence_iter: int):
    """Exchange messages on S.  Returns the exemplar mask once it has held
    for ``convergence_iter`` iterations with at least one exemplar (None if
    it never does within ``max_iter``), and the last availabilities."""
    n = S.shape[0]
    flat_diag = np.arange(n) * (n + 1)
    R = np.zeros((n, n))
    A = np.zeros((n, n))
    T = np.empty((n, n))
    height = max(1, BLOCK // n)
    # Per block: its rows of S, R, A and T, flat views of them, the rows, each
    # row's first entry in the flat views and the rows' diagonal entries there.
    blocks = []
    for lo in range(0, n, height):
        rows = slice(lo, min(lo + height, n))
        h = rows.stop - lo
        views = [M[rows] for M in (S, R, A, T)]
        blocks.append((*views, *(v.reshape(-1) for v in views), rows,
                       np.arange(0, h * n, n), flat_diag[:h] + lo))
    keep = 1.0 - damping
    votes = np.empty(n)  # A + R on the diagonal; positive marks an exemplar
    colsum = None
    stable = 0
    seen = bytes(n)  # the exemplar mask as bytes: none yet

    # Pass p completes iteration p's availabilities (p >= 1) and computes
    # iteration p + 1's responsibilities (p < max_iter).
    for sweep in range(max_iter + 1):
        for Sb, Rb, Ab, Tb, Sf, Rf, Af, Tf, rows, starts, own in blocks:
            if colsum is not None:
                # T holds max(R, 0) with R's own diagonal; A <- damped
                # min(0, colsum - T), the diagonal colsum - R.
                np.subtract(colsum, Tb, out=Tb)
                np.minimum(0.0, Tb, out=Tb)
                Tf[own] = colsum[rows] - Rf[own]
                Ab *= damping
                Tb *= keep
                Ab += Tb
                votes[rows] = Af[own] + Rf[own]
            if sweep == max_iter:
                continue
            # R <- damped S minus the best rival A + S in the row: the row's
            # top entry, except at the top itself, which faces the runner-up.
            np.add(Ab, Sb, out=Tb)
            top = Tb.argmax(axis=1)
            top += starts
            first = Tf[top]
            Tf[top] = -np.inf
            second = Tb.max(axis=1)
            np.subtract(Sb, first[:, None], out=Tb)
            Tf[top] = Sf[top] - second
            Rb *= damping
            Tb *= keep
            Rb += Tb
            np.maximum(Rb, 0.0, out=Tb)
            Tf[own] = Rf[own]
        if colsum is not None:
            current = votes > 0
            key = current.tobytes()
            if key == seen:
                stable += 1
                if stable >= convergence_iter and current.any():
                    return current, A
            else:
                stable = 0
                seen = key
        colsum = T.sum(axis=0)
    return None, A
