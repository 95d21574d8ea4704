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

from ..validation import as_values, check_positive, check_unit_fraction

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
    nu = check_unit_fraction(nu, "nu")
    gamma = check_positive(gamma, "gamma")
    n = x.size
    cap = 1.0 / (nu * n)
    if max_iter is None:
        max_iter = max(2000, 200 * n)

    Q = np.exp(-gamma * (x[:, None] - x[None, :]) ** 2)
    alpha = np.full(n, 1.0 / n)
    grad = Q @ alpha
    bound_tol = cap * 1e-12

    for _ in range(max_iter):
        can_up = alpha < cap - bound_tol
        can_dn = alpha > bound_tol
        if not can_up.any() or not can_dn.any():
            break
        i = int(np.where(can_up, grad, np.inf).argmin())
        j = int(np.where(can_dn, grad, -np.inf).argmax())
        if grad[j] - grad[i] <= tol:
            break
        curv = max(Q[i, i] + Q[j, j] - 2.0 * Q[i, j], 1e-12)
        step = min((grad[j] - grad[i]) / curv, cap - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
        grad += step * (Q[i] - Q[j])  # rows: Q is exactly symmetric

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
