"""Drift detectors: learn a reference on a training batch, judge new batches.

:class:`DriftDetector` is a scikit-learn style estimator: constructor
arguments are stored verbatim as hyperparameters (``get_params`` /
``set_params`` round-trip them), ``fit`` learns the reference state from the
training window, and ``evaluate``/``predict`` judge a fresh batch.  Every
model follows one contract: ``fit`` keeps the reference values its rule
reads, and ``evaluate`` computes one statistic on the batch and flags drift
when it passes a threshold.  :data:`RULES` holds each model's rule:

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
import math
from dataclasses import KW_ONLY, dataclass, fields
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from .cluster import (
    affinity_propagation,
    agglomerative,
    greedy_max,
    ocsvm_predict,
    ocsvm_train,
    optics,
)
from .cluster.dbscan import count_runs
from .cluster.gmm import gmm_em
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
    "RULES",
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
        model = _MODELS.get(str(value).lower())
        if model is None:
            raise ValueError(f"unknown model {value!r}; expected one of: {', '.join(_MODELS)}")
        return model


_MODELS = {m.value: m for m in ModelType}  # a dict lookup is faster than ModelType(name)
MODEL_NAMES = tuple(_MODELS)


class DetectorState(SimpleNamespace):
    """What ``fit`` saved: ``model``, ``n_train`` and exactly the named
    reference values the model's rule reads (``k_train``, ``eps``, ...)."""


@dataclass(frozen=True, slots=True)
class DriftVerdict:
    """Boolean outcome plus the evidence that produced it."""

    drift: bool
    score: float
    detail: str


@dataclass(eq=False)
class DriftDetector:
    """Estimator wrapping one drift-detection model.

    Parameters mirror the knobs of all eight models; each model reads only
    the ones it needs: kmeans and gmm ``multiplier`` (gap rule) and
    ``k_max`` (silhouette search cap); greedy ``margin``; dbscan ``min_pts``
    and ``eps_factor`` (eps = eps_factor * train std); hierarchical
    ``threshold_fraction`` (of the train mean) and ``linkage``; optics
    ``min_samples``, ``min_cluster_size``, ``max_eps`` and ``cut_quantile``;
    ocsvm ``nu`` and ``gamma_override`` (replaces the automatic 1/(2*var)
    RBF width); affinity ``damping``, ``ap_max_iter``,
    ``ap_convergence_iter``, ``ap_multiplier`` (drift iff k_test >
    ceil(ap_multiplier * k_train)) and ``ap_preference_override`` (replaces
    the automatic preference, the lowest pairwise training similarity).
    ``seed`` is kept with the other parameters, but no model draws random
    numbers: every fit and verdict is a function of the data.  Equality is
    identity, as for any estimator.
    """

    model: ModelType | str = "dbscan"
    _: KW_ONLY
    multiplier: float = 2.0
    margin: float = 0.25
    min_pts: int = 4
    eps_factor: float = 1.0
    threshold_fraction: float = 0.1
    linkage: str = "average"
    min_samples: int = 3
    min_cluster_size: int = 3
    max_eps: float = math.inf
    cut_quantile: float = 0.75
    nu: float = 0.1
    gamma_override: float | None = None
    damping: float = 0.9
    ap_multiplier: float = 1.0
    ap_preference_override: float | None = None
    ap_max_iter: int = 500
    ap_convergence_iter: int = 15
    k_max: int = 8
    seed: int = 0

    # -- scikit-learn estimator plumbing ------------------------------------

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params: Any) -> "DriftDetector":
        for name, value in params.items():
            if name not in self.__dataclass_fields__:
                raise ValueError(f"unknown parameter {name!r} for DriftDetector")
            setattr(self, name, value)
        return self

    # -- core contract -------------------------------------------------------

    def fit(self, X) -> "DriftDetector":
        """Learn the reference state from a training batch."""
        model = ModelType.coerce(self.model)
        rule = RULES[model]
        x = as_values(X, name="x_train", min_len=rule.min_train)
        self.state_ = DetectorState(model=model, n_train=x.size, **rule.fit(self, x))
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
        rule = RULES[model]
        stat, threshold, evidence = rule.test(self, vars(state), x)
        score = rule.score(stat, threshold)
        return DriftVerdict(drift=score > 0, score=score, detail=f"{model.value}: {evidence}")

    def predict(self, X) -> bool:
        return self.evaluate(X).drift


# -- the rule table: the one place a model's rule lives ------------------------

class Rule(NamedTuple):
    """One model's drift rule: ``fit(det, x)`` returns the named reference
    values ``ref`` the rule reads, ``test(det, ref, x)`` returns (statistic,
    threshold, evidence text), and ``score(statistic, threshold)`` is the
    verdict score, drift when > 0.  ``memory`` = (c, p) estimates the engine's
    working set on n points as c * 8 * n**p bytes, c from a traced n = 500 fit."""

    fit: Callable[..., dict[str, Any]]
    test: Callable[..., tuple[float, float, str]]
    score: Callable[[float, float], float]
    memory: tuple[float, int]
    min_train: int = 2


def _excess(stat: float, threshold: float) -> float:
    """Score of a rule that flags any excess over the threshold."""
    return float(stat - threshold)


def _ratio(stat: float, threshold: float) -> float:
    """Score of a rule that flags a relative excess (the sign alone if threshold <= 0)."""
    if threshold > 0:
        return stat / threshold - 1.0
    return 1.0 if stat > 0 else 0.0


def _count_rule(derive, count, params, memory, limit=lambda det, k_train: k_train) -> Rule:
    """Recluster the batch with the engine parameters ``derive`` took from
    training; ``count`` returns the cluster count, and drift is when the test
    count exceeds ``limit(k_train)``.
    ``params(det, ref)`` formats the engine parameters for the evidence."""

    def fit(det, x):
        ref = derive(det, x)
        return {**ref, "k_train": count(det, ref, x)}

    def test(det, ref, x):
        k_test, k_limit = count(det, ref, x), limit(det, ref["k_train"])
        return k_test, k_limit, (f"k_test={k_test} vs k_train={ref['k_train']} "
                                 f"(drift when > {k_limit}; {params(det, ref)})")

    return Rule(fit, test, _excess, memory)


def _gap_rule(centres, memory) -> Rule:
    """Compare the largest gap between sorted centres with ``multiplier`` times
    the training gap, or with a floor when that is 0.  ``centres(x, k,
    centroids)`` takes them from the k-means fit of the silhouette search's k."""

    def max_gap(det, x):
        check_count(det.k_max, "k_max", minimum=2)
        k, fit = best_k_fit(x, 2, max(2, min(det.k_max, x.size - 1)))
        ordered = np.sort(centres(x, k, fit.centroids))
        return k, (float(np.diff(ordered).max()) if ordered.size >= 2 else 0.0)

    def fit(det, x):
        check_positive(det.multiplier, "multiplier")
        k, gap = max_gap(det, x)
        return {"k_train": k, "old_max_gap": gap, "gap_floor": 1e-6 * float(x.mean())}

    def test(det, ref, x):
        k_test, gap = max_gap(det, x)
        old = ref["old_max_gap"]
        threshold = det.multiplier * old if old > 0 else ref["gap_floor"]
        return gap, threshold, (f"max centroid gap {gap:.6g} vs threshold {threshold:.6g} "
                                f"(k_test={k_test}, old_gap={old:.6g}, multiplier={det.multiplier})")

    return Rule(fit, test, _ratio, memory)


def _ap_preference(det, x):
    check_positive(det.ap_multiplier, "ap_multiplier")
    override = det.ap_preference_override  # default: the lowest pairwise similarity
    return {"preference": -float(np.ptp(x)) ** 2 if override is None else float(override)}


def _dbscan_eps(det, x):
    check_positive(det.eps_factor, "eps_factor")
    check_count(det.min_pts, "min_pts", minimum=1)
    return {"eps": max(det.eps_factor * float(x.std()), 1e-9)}


def _hierarchical_threshold(det, x):
    check_positive(det.threshold_fraction, "threshold_fraction")
    return {"distance_threshold": max(det.threshold_fraction * float(x.mean()), 1e-9)}


def _ocsvm_fit(det, x):
    check_unit_fraction(det.nu, "nu")
    gamma = det.gamma_override
    if gamma is None:
        var = float(x.var())
        gamma = 1.0 / (2.0 * var) if var > 1e-12 else 1.0
    return {"gamma": gamma, "svm": ocsvm_train(x, det.nu, gamma)}


def _ocsvm_test(det, ref, x):
    fraction = float(1.0 - ocsvm_predict(ref["svm"], x)[0].mean())
    return fraction, 0.0, (f"outlier fraction {fraction:.4f} on {x.size} points "
                           f"(nu={det.nu}, gamma={ref['gamma']:.6g})")


def _greedy_fit(det, x):
    check_non_negative(det.margin, "margin")
    return {"monitoring_max": greedy_max(x)}


def _greedy_test(det, ref, x):
    peak, limit = float(x.max()), ref["monitoring_max"] * (1.0 + det.margin)
    return peak, limit, (f"max {peak:.6g} vs limit {limit:.6g} "
                         f"(monitoring_max={ref['monitoring_max']:.6g}, margin={det.margin})")


#: Every model's rule.  Memory: affinity propagation holds four N x N matrices
#: (similarity, responsibility, availability, scratch), hierarchical and ocsvm
#: about two; dbscan, optics, kmeans and gmm stay linear in n (dbscan's count
#: holds the values as Python floats and their sorted list, optics
#: n x (2 * min_samples - 1) core-distance windows, kmeans and gmm the
#: silhouette search's k_max x n tables); greedy a running maximum.
RULES: dict[ModelType, Rule] = {
    ModelType.AFFINITY_PROPAGATION: _count_rule(
        _ap_preference,
        lambda det, ref, x: affinity_propagation(
            x, preference=ref["preference"], damping=det.damping,
            max_iter=det.ap_max_iter, convergence_iter=det.ap_convergence_iter).n_clusters,
        lambda det, ref: f"preference={ref['preference']:.6g}", memory=(4, 2),
        limit=lambda det, k_train: math.ceil(det.ap_multiplier * k_train),
    ),
    ModelType.DBSCAN: _count_rule(
        _dbscan_eps, lambda det, ref, x: count_runs(x, ref["eps"], det.min_pts),
        lambda det, ref: f"eps={ref['eps']:.6g}, min_pts={det.min_pts}", memory=(4.5, 1),
    ),
    ModelType.HIERARCHICAL: _count_rule(
        _hierarchical_threshold,
        lambda det, ref, x: agglomerative(x, ref["distance_threshold"], det.linkage).n_clusters,
        lambda det, ref: f"threshold={ref['distance_threshold']:.6g}, linkage={det.linkage}",
        memory=(2, 2),
    ),
    ModelType.OPTICS: _count_rule(
        lambda det, x: {},
        lambda det, ref, x: optics(
            x, min_samples=det.min_samples, max_eps=det.max_eps,
            min_cluster_size=det.min_cluster_size, cut_quantile=det.cut_quantile)[1].n_clusters,
        lambda det, ref: f"min_samples={det.min_samples}, min_cluster_size={det.min_cluster_size}",
        memory=(21.5, 1),
    ),
    ModelType.KMEANS: _gap_rule(lambda x, k, centroids: centroids, memory=(61, 1)),
    ModelType.GMM: _gap_rule(lambda x, k, centroids: gmm_em(x, k, centroids).means, memory=(61, 1)),
    ModelType.ONE_CLASS_SVM: Rule(_ocsvm_fit, _ocsvm_test, _excess, memory=(2, 2)),
    ModelType.GREEDY: Rule(_greedy_fit, _greedy_test, _ratio, memory=(8, 0), min_train=1),
}


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
