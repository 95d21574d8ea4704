"""One-class SVM trained by pairwise coordinate ascent on the RBF dual.

Solves min 1/2 a'Qa subject to 0 <= a_i <= 1/(nu*n) and sum(a) = 1, where
Q is the RBF kernel matrix.  Each step picks the most violating pair and
moves mass between them, which preserves the simplex constraint exactly.
The offset rho makes the decision value zero on margin support vectors, so
nu upper-bounds the training outlier fraction and lower-bounds the support
vector fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..validation import as_values, check_count, check_positive

__all__ = ["OcsvmModel", "ocsvm_train", "ocsvm_predict"]

# Margin support vectors score zero only up to the solver's KKT tolerance;
# decisions inside that band count as inliers.  RBF decisions are O(1)
# regardless of data scale (sum of alphas is 1, kernel values are <= 1),
# so an absolute band matching the default training tolerance is safe.
DECISION_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class OcsvmModel:
    """Support-vector expansion of the trained boundary."""

    alphas: np.ndarray          # dual coefficients of the support vectors
    support_values: np.ndarray  # training points with alpha > 0
    rho: float
    gamma: float
    nu: float


def ocsvm_train(data, nu: float = 0.1, gamma: float = 1.0, *, tol: float = 1e-4,
                max_iter: int | None = None) -> OcsvmModel:
    x = as_values(data, name="data", min_len=2)
    nu = float(nu)
    if not 0 < nu <= 1:
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    gamma = check_positive(gamma, "gamma", finite=True)
    n = x.size
    cap = 1.0 / (nu * n)
    max_iter = check_count(max(2000, 200 * n) if max_iter is None else max_iter, "max_iter", minimum=1)
    tol = check_positive(tol, "tol", finite=True, zero=True)

    Q = np.exp(-gamma * (x[:, None] - x[None, :]) ** 2)
    alpha = np.full(n, 1.0 / n)
    grad = Q @ alpha
    bound_tol = cap * 1e-12
    top = cap - bound_tol
    # up / dn: grad where alpha can rise / fall and +inf / -inf elsewhere, so
    # the pair is up.argmin() / dn.argmax() and an empty side ends the loop
    # with an infinite gap.  Each step adds the same delta to all three and
    # re-masks only the pair.
    up = np.where(alpha < top, grad, np.inf)
    dn = np.where(alpha > bound_tol, grad, -np.inf)
    rows, a = list(Q), alpha.tolist()
    delta = np.empty(n)
    for _ in range(max_iter):
        i, j = int(up.argmin()), int(dn.argmax())
        gap = dn.item(j) - up.item(i)
        if gap <= tol:
            break
        curv = max(Q.item(i, i) + Q.item(j, j) - 2.0 * Q.item(i, j), 1e-12)
        step = min(gap / curv, cap - a[i], a[j])
        a[i] += step
        a[j] -= step
        np.subtract(rows[i], rows[j], out=delta)  # rows: Q is exactly symmetric
        delta *= step
        grad += delta
        up += delta
        dn += delta
        for k in (i, j):
            g = grad.item(k)
            up[k] = g if a[k] < top else np.inf
            dn[k] = g if a[k] > bound_tol else -np.inf
    alpha = np.array(a)

    margin_tol = cap * 1e-7
    free = (alpha > margin_tol) & (alpha < cap - margin_tol)
    if free.any():
        rho = float(grad[free].mean())
    else:
        at_cap = alpha >= cap - margin_tol
        at_zero = alpha <= margin_tol
        lo = float(grad[at_cap].max()) if at_cap.any() else None
        hi = float(grad[at_zero].min()) if at_zero.any() else None
        if lo is not None and hi is not None:
            rho = 0.5 * (lo + hi)
        else:
            rho = lo if lo is not None else float(hi)

    sv = alpha > bound_tol
    return OcsvmModel(alpha[sv].copy(), x[sv].copy(), rho, gamma, nu)


def ocsvm_predict(model: OcsvmModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (inlier, decision value).

    Inlier iff the decision value is non-negative, judged with the
    :data:`DECISION_TOL` band so margin support vectors do not flip sign on
    solver round-off.
    """
    x = as_values(data, name="data")
    K = np.exp(-model.gamma * (x[:, None] - model.support_values[None, :]) ** 2)
    decision = K @ model.alphas - model.rho
    return decision >= -DECISION_TOL, decision
