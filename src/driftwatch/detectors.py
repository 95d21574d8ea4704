"""Drift detectors: learn a reference on a training batch, judge new batches.

:class:`DriftDetector` is a scikit-learn style estimator: constructor
arguments are stored verbatim as hyperparameters (``get_params`` /
``set_params`` round-trip them), ``fit`` learns the reference state from the
training window, and ``evaluate``/``predict`` judge a fresh batch.  Eight
models are supported; each pairs an engine with its own decision rule:

* ``affinity`` / ``dbscan`` / ``hierarchical`` / ``optics`` — recluster the
  test batch with parameters derived from training and flag drift when the
  cluster count rises.
* ``kmeans`` / ``gmm`` — compare the largest gap between sorted
  centroids/component means against a multiple of the training-time gap.
* ``ocsvm`` — flag drift when the trained one-class boundary marks any test
  point an outlier.
* ``greedy`` — flag drift when the test maximum beats the training maximum
  by more than the configured margin.
"""

from __future__ import annotations

import enum
import inspect
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .cluster import (
    GmmModel,
    OcsvmModel,
    affinity_propagation,
    agglomerative,
    best_k_silhouette,
    dbscan,
    gmm_fit,
    greedy_max,
    ocsvm_predict,
    ocsvm_train,
    optics,
)
from .cluster.silhouette import best_k_fit
from .validation import (
    as_values,
    check_count,
    check_non_negative,
    check_positive,
    check_unit_fraction,
)

__all__ = [
    "ModelType",
    "MODEL_NAMES",
    "DetectorState",
    "DriftVerdict",
    "DriftDetector",
    "detect",
    "verdict_record",
]


class ModelType(enum.Enum):
    AFFINITY_PROPAGATION = "affinity"
    DBSCAN = "dbscan"
    GMM = "gmm"
    HIERARCHICAL = "hierarchical"
    KMEANS = "kmeans"
    OPTICS = "optics"
    ONE_CLASS_SVM = "ocsvm"
    GREEDY = "greedy"

    @classmethod
    def coerce(cls, value: "ModelType | str") -> "ModelType":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown model {value!r}; expected one of: {names}") from None


MODEL_NAMES = tuple(m.value for m in ModelType)

#: Models whose decision rule is a cluster-count comparison.
_COUNT_MODELS = frozenset(
    {
        ModelType.AFFINITY_PROPAGATION,
        ModelType.DBSCAN,
        ModelType.HIERARCHICAL,
        ModelType.OPTICS,
    }
)


@dataclass(frozen=True, eq=False)
class DetectorState:
    """Reference statistics saved by ``fit``; exactly what the model's
    decision rule needs, nothing more."""

    model: ModelType
    n_train: int
    k_train: int | None = None
    old_max_gap: float | None = None
    gap_floor: float | None = None
    monitoring_max: float | None = None
    eps: float | None = None
    preference: float | None = None
    distance_threshold: float | None = None
    gamma: float | None = None
    svm: OcsvmModel | None = None
    mixture: GmmModel | None = None


@dataclass(frozen=True)
class DriftVerdict:
    """Boolean outcome plus the evidence that produced it."""

    drift: bool
    score: float
    detail: str


class DriftDetector:
    """Estimator wrapping one drift-detection model.

    Parameters mirror the knobs of all eight models; each model reads only
    the ones it needs.  Defaults: ``multiplier`` 2.0 (kmeans/gmm gap rule),
    ``margin`` 0.25 (greedy), ``min_pts`` 4 and ``eps_factor`` 1.0 (dbscan,
    eps = eps_factor * train std), ``threshold_fraction`` 0.1 of the train
    mean (hierarchical), ``k_max`` 8 capping the silhouette search.
    ``gamma_override`` replaces the automatic 1/(2*var) RBF width.
    ``ap_multiplier`` scales the affinity-propagation cluster-count rule
    (drift iff k_test > ceil(ap_multiplier * k_train)), and
    ``ap_preference_override`` replaces the automatic preference (the lowest
    pairwise similarity of the training batch, i.e. -(train range)^2).
    """

    def __init__(
        self,
        model: ModelType | str = "dbscan",
        *,
        multiplier: float = 2.0,
        margin: float = 0.25,
        min_pts: int = 4,
        eps_factor: float = 1.0,
        threshold_fraction: float = 0.1,
        linkage: str = "average",
        min_samples: int = 3,
        min_cluster_size: int = 3,
        max_eps: float = math.inf,
        cut_quantile: float = 0.75,
        nu: float = 0.1,
        gamma_override: float | None = None,
        damping: float = 0.9,
        ap_multiplier: float = 1.0,
        ap_preference_override: float | None = None,
        ap_max_iter: int = 500,
        ap_convergence_iter: int = 15,
        k_max: int = 8,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.multiplier = multiplier
        self.margin = margin
        self.min_pts = min_pts
        self.eps_factor = eps_factor
        self.threshold_fraction = threshold_fraction
        self.linkage = linkage
        self.min_samples = min_samples
        self.min_cluster_size = min_cluster_size
        self.max_eps = max_eps
        self.cut_quantile = cut_quantile
        self.nu = nu
        self.gamma_override = gamma_override
        self.damping = damping
        self.ap_multiplier = ap_multiplier
        self.ap_preference_override = ap_preference_override
        self.ap_max_iter = ap_max_iter
        self.ap_convergence_iter = ap_convergence_iter
        self.k_max = k_max
        self.seed = seed

    _PARAM_NAMES: tuple[str, ...] = ()  # filled in right after the class body

    # -- scikit-learn estimator plumbing ------------------------------------

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params: Any) -> "DriftDetector":
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r} for DriftDetector")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"DriftDetector({shown})"

    # -- core contract -------------------------------------------------------

    def fit(self, X) -> "DriftDetector":
        """Learn the reference state from a training batch."""
        model = ModelType.coerce(self.model)
        min_len = 1 if model is ModelType.GREEDY else 2
        x = as_values(X, name="x_train", min_len=min_len)
        self.state_ = self._fit_state(model, x)
        return self

    def evaluate(self, X) -> DriftVerdict:
        """Judge a test batch against the fitted reference."""
        state = getattr(self, "state_", None)
        if state is None:
            raise RuntimeError("detector is not fitted; call fit() first")
        model = ModelType.coerce(self.model)
        if model is not state.model:
            raise ValueError(
                f"state was fitted for {state.model.value!r} but detector is {model.value!r}"
            )
        x = as_values(X, name="x_test", min_len=1)
        return self._verdict(state, x)

    def predict(self, X) -> bool:
        return self.evaluate(X).drift

    # -- per-model fitting ----------------------------------------------------

    def _fit_state(self, model: ModelType, x: np.ndarray) -> DetectorState:
        n = x.size
        if model is ModelType.GREEDY:
            check_non_negative(self.margin, "margin")
            return DetectorState(model, n, monitoring_max=greedy_max(x))

        if model is ModelType.AFFINITY_PROPAGATION:
            check_positive(self.ap_multiplier, "ap_multiplier")
            if self.ap_preference_override is not None:
                preference = float(self.ap_preference_override)
            else:
                preference = -float(np.ptp(x)) ** 2  # lowest pairwise similarity
            k = self._ap(x, preference).n_clusters
            return DetectorState(model, n, k_train=k, preference=preference)

        if model is ModelType.DBSCAN:
            check_positive(self.eps_factor, "eps_factor")
            check_count(self.min_pts, "min_pts", minimum=1)
            eps = max(self.eps_factor * float(x.std()), 1e-9)
            k = dbscan(x, eps, self.min_pts).n_clusters
            return DetectorState(model, n, k_train=k, eps=eps)

        if model is ModelType.HIERARCHICAL:
            check_positive(self.threshold_fraction, "threshold_fraction")
            threshold = max(self.threshold_fraction * float(x.mean()), 1e-9)
            k = agglomerative(x, threshold, self.linkage).n_clusters
            return DetectorState(model, n, k_train=k, distance_threshold=threshold)

        if model is ModelType.OPTICS:
            _, res = self._optics(x)
            return DetectorState(model, n, k_train=res.n_clusters)

        if model is ModelType.KMEANS:
            check_positive(self.multiplier, "multiplier")
            k, fit = best_k_fit(x, 2, self._k_max(x), seed=self.seed)
            return DetectorState(
                model,
                n,
                k_train=k,
                old_max_gap=_max_gap(fit.centroids),
                gap_floor=1e-6 * float(x.mean()),
            )

        if model is ModelType.GMM:
            check_positive(self.multiplier, "multiplier")
            k = best_k_silhouette(x, 2, self._k_max(x), seed=self.seed)
            mixture = gmm_fit(x, k, seed=self.seed)
            return DetectorState(
                model,
                n,
                k_train=k,
                old_max_gap=_max_gap(mixture.means),
                gap_floor=1e-6 * float(x.mean()),
                mixture=mixture,
            )

        if model is ModelType.ONE_CLASS_SVM:
            check_unit_fraction(self.nu, "nu")
            gamma = self.gamma_override
            if gamma is None:
                var = float(x.var())
                gamma = 1.0 / (2.0 * var) if var > 1e-12 else 1.0
            svm = ocsvm_train(x, self.nu, gamma)
            return DetectorState(model, n, gamma=gamma, svm=svm)

        raise AssertionError(f"unhandled model {model}")

    # -- per-model evaluation ---------------------------------------------------

    def _verdict(self, state: DetectorState, x: np.ndarray) -> DriftVerdict:
        model = state.model

        if model in _COUNT_MODELS:
            if model is ModelType.AFFINITY_PROPAGATION:
                k_test = self._ap(x, state.preference).n_clusters
                threshold_k = math.ceil(self.ap_multiplier * state.k_train)
                params = f"preference={state.preference:.6g}"
            elif model is ModelType.DBSCAN:
                k_test = dbscan(x, state.eps, self.min_pts).n_clusters
                threshold_k = state.k_train
                params = f"eps={state.eps:.6g}, min_pts={self.min_pts}"
            elif model is ModelType.HIERARCHICAL:
                k_test = agglomerative(x, state.distance_threshold, self.linkage).n_clusters
                threshold_k = state.k_train
                params = f"threshold={state.distance_threshold:.6g}, linkage={self.linkage}"
            else:
                _, res = self._optics(x)
                k_test = res.n_clusters
                threshold_k = state.k_train
                params = f"min_samples={self.min_samples}, min_cluster_size={self.min_cluster_size}"
            score = float(k_test - threshold_k)
            return DriftVerdict(
                drift=score > 0,
                score=score,
                detail=f"{model.value}: k_test={k_test} vs k_train={state.k_train} "
                f"(drift when > {threshold_k}; {params})",
            )

        if model in (ModelType.KMEANS, ModelType.GMM):
            if model is ModelType.KMEANS:
                k_test, fit = best_k_fit(x, 2, self._k_max(x), seed=self.seed)
                centers = fit.centroids
            else:
                k_test = best_k_silhouette(x, 2, self._k_max(x), seed=self.seed)
                centers = gmm_fit(x, k_test, seed=self.seed).means
            new_gap = _max_gap(centers)
            if state.old_max_gap > 0:
                threshold = self.multiplier * state.old_max_gap
            else:
                threshold = state.gap_floor
            if threshold > 0:
                score = new_gap / threshold - 1.0
            else:
                score = 1.0 if new_gap > 0 else 0.0
            return DriftVerdict(
                drift=score > 0,
                score=score,
                detail=f"{model.value}: max centroid gap {new_gap:.6g} vs "
                f"threshold {threshold:.6g} (k_test={k_test}, "
                f"old_gap={state.old_max_gap:.6g}, multiplier={self.multiplier})",
            )

        if model is ModelType.ONE_CLASS_SVM:
            inliers, _ = ocsvm_predict(state.svm, x)
            fraction = float(1.0 - inliers.mean())
            return DriftVerdict(
                drift=fraction > 0,
                score=fraction,
                detail=f"ocsvm: outlier fraction {fraction:.4f} on {x.size} points "
                f"(nu={self.nu}, gamma={state.gamma:.6g})",
            )

        if model is ModelType.GREEDY:
            peak = float(x.max())
            limit = state.monitoring_max * (1.0 + self.margin)
            if limit > 0:
                score = peak / limit - 1.0
            else:
                score = 1.0 if peak > 0 else 0.0
            return DriftVerdict(
                drift=score > 0,
                score=score,
                detail=f"greedy: max {peak:.6g} vs limit {limit:.6g} "
                f"(monitoring_max={state.monitoring_max:.6g}, margin={self.margin})",
            )

        raise AssertionError(f"unhandled model {model}")

    # -- engine adapters -------------------------------------------------------

    def _k_max(self, x: np.ndarray) -> int:
        """Largest k the silhouette search tries on x."""
        check_count(self.k_max, "k_max", minimum=2)
        return max(2, min(self.k_max, x.size - 1))

    def _ap(self, x: np.ndarray, preference: float | None):
        return affinity_propagation(
            x,
            preference=preference,
            damping=self.damping,
            max_iter=self.ap_max_iter,
            convergence_iter=self.ap_convergence_iter,
        )

    def _optics(self, x: np.ndarray):
        return optics(
            x,
            min_samples=self.min_samples,
            max_eps=self.max_eps,
            min_cluster_size=self.min_cluster_size,
            cut_quantile=self.cut_quantile,
        )


DriftDetector._PARAM_NAMES = tuple(
    name
    for name in inspect.signature(DriftDetector.__init__).parameters
    if name != "self"
)


def _max_gap(centers: np.ndarray) -> float:
    """Largest difference between neighboring sorted centers (0 for a single one)."""
    ordered = np.sort(np.asarray(centers, dtype=float))
    return float(np.diff(ordered).max()) if ordered.size >= 2 else 0.0


def detect(x_train, x_test, *, model: ModelType | str = "dbscan", **params: Any) -> DriftVerdict:
    """One-shot convenience: fit on the training batch, judge the test batch."""
    return DriftDetector(model=model, **params).fit(x_train).evaluate(x_test)


def verdict_record(
    model: ModelType | str,
    verdict: DriftVerdict,
    *,
    t_start: float | None = None,
    t_end: float | None = None,
    elapsed_ms: float | None = None,
) -> dict[str, Any]:
    """The JSON wire form of one evaluation."""
    return {
        "model": ModelType.coerce(model).value,
        "drift": verdict.drift,
        "score": verdict.score,
        "detail": verdict.detail,
        "t_start": t_start,
        "t_end": t_end,
        "elapsed_ms": elapsed_ms,
    }
