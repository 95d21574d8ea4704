"""Drift detectors: learn a reference on a training batch, judge new batches.

:class:`DriftDetector` is a scikit-learn style estimator: constructor
arguments are stored verbatim as hyperparameters (``get_params`` /
``set_params`` round-trip them), ``fit`` learns the reference state from the
training window, and ``evaluate`` judges a fresh batch.  Every
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
from dataclasses import KW_ONLY, dataclass, field, fields
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from .cluster import (
    affinity_propagation,
    agglomerative,
    ocsvm_predict,
    ocsvm_train,
    optics,
)
from .cluster.dbscan import count_runs
from .cluster.gmm import gmm_em
from .cluster.silhouette import best_k_fit
from .validation import as_values, check_count, check_positive, squared_range

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


# The domains of the knobs the detector turns into a threshold or an engine
# parameter itself.  Plain functions, not partials: evaluate runs them per call.

def _positive(value: float, name: str) -> None:
    check_positive(value, name, finite=True)


def _non_negative(value: float, name: str) -> None:
    check_positive(value, name, finite=True, zero=True)


def _k_max(value: int, name: str) -> None:
    check_count(value, name, minimum=2)


def _knob(default: Any, models: str, help: str, *,
          check: Callable[[Any, str], Any] | None = None, flag: str | None = None) -> Any:
    """A detector knob: a field whose metadata holds the ``models`` that read
    it (given as "kmeans/gmm"), its ``help`` text, the ``check`` of its domain
    when the detector computes with it or its engine calls it by another name
    (any other knob goes verbatim to an engine that checks it under its own
    name), and its CLI ``flag`` where that is not ``--<name with dashes>``."""
    return field(default=default, metadata={
        "models": tuple(map(ModelType, models.split("/"))), "help": help, "check": check,
        "flag": flag})


@dataclass(eq=False)
class DriftDetector:
    """Estimator wrapping one drift-detection model.

    Each field between ``model`` and ``seed`` is a knob, read by the models
    its ``models`` metadata names.  ``seed`` is kept with the other parameters,
    but no model draws random numbers: every fit and verdict is a function
    of the data.  Equality is identity, as for any estimator.
    """

    model: ModelType | str = "dbscan"
    _: KW_ONLY
    multiplier: float = _knob(2.0, "kmeans/gmm", "gap multiplier", check=_positive)
    margin: float = _knob(0.25, "greedy", "headroom margin", check=_non_negative)
    min_pts: int = _knob(4, "dbscan", "neighborhood population")
    eps_factor: float = _knob(1.0, "dbscan", "eps = factor * train std", check=_positive)
    threshold_fraction: float = _knob(
        0.1, "hierarchical", "threshold as a fraction of the train mean", check=_positive)
    linkage: str = _knob("average", "hierarchical", "linkage: single|complete|average")
    min_samples: int = _knob(3, "optics", "minimum samples")
    min_cluster_size: int = _knob(3, "optics", "minimum cluster size")
    max_eps: float = _knob(math.inf, "optics", "neighborhood cap")
    cut_quantile: float = _knob(0.75, "optics", "reachability cut quantile")
    nu: float = _knob(0.1, "ocsvm", "nu in (0, 1]")
    gamma_override: float | None = _knob(
        None, "ocsvm", "RBF gamma (default 1/(2*train var))", flag="--gamma")
    damping: float = _knob(0.9, "affinity", "propagation damping")
    ap_multiplier: float = _knob(
        1.0, "affinity", "cluster-count multiplier m: drift when k_test > ceil(m * k_train)",
        check=_positive)
    ap_preference_override: float | None = _knob(
        None, "affinity", "preference (default: lowest pairwise train similarity)",
        flag="--ap-preference")
    ap_max_iter: int = _knob(500, "affinity", "message-passing iteration cap", check=check_count)
    ap_convergence_iter: int = _knob(
        15, "affinity", "sweeps with a stable exemplar set before convergence", check=check_count)
    k_max: int = _knob(8, "kmeans/gmm", "silhouette search upper bound", check=_k_max)
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
        self._check_knobs(model)
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
        self._check_knobs(model)
        x = as_values(X, name="x_test", min_len=1)
        rule = RULES[model]
        stat, threshold, evidence = rule.test(self, vars(state), x)
        score = rule.score(stat, threshold)
        return DriftVerdict(drift=score > 0, score=score, detail=f"{model.value}: {evidence}")

    def _check_knobs(self, model: ModelType) -> None:
        """Check each knob of model's that has a ``check``; run by ``fit`` and
        ``evaluate``, as ``set_params`` may change a knob between them."""
        for name, check in _CHECKS[model]:
            check(getattr(self, name), name)


#: Per model, the (name, check) of each knob it reads that has a check.
_CHECKS = {model: tuple((f.name, f.metadata["check"]) for f in fields(DriftDetector)
                        if model in f.metadata.get("models", ()) and f.metadata["check"])
           for model in ModelType}


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
        k, centroids = best_k_fit(x, 2, max(2, min(det.k_max, x.size - 1)))
        ordered = np.sort(centres(x, k, centroids))
        return k, (float(np.diff(ordered).max()) if ordered.size >= 2 else 0.0)

    def fit(det, x):
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
    override = det.ap_preference_override  # default: the lowest pairwise similarity
    return {"preference": -squared_range(x, "affinity") if override is None else float(override)}


def _dbscan_eps(det, x):
    squared_range(x, "dbscan")  # x.std() squares the deviations
    return {"eps": max(det.eps_factor * float(x.std()), 1e-9)}


def _hierarchical_threshold(det, x):
    return {"distance_threshold": max(det.threshold_fraction * float(x.mean()), 1e-9)}


def _ocsvm_fit(det, x):
    squared_range(x, "ocsvm")  # x.var() and the RBF kernel square differences
    gamma = det.gamma_override
    if gamma is None:
        var = float(x.var())
        gamma = 1.0 / (2.0 * var) if var > 1e-12 else 1.0
    return {"gamma": gamma, "svm": ocsvm_train(x, det.nu, gamma)}


def _ocsvm_test(det, ref, x):
    fraction = float(1.0 - ocsvm_predict(ref["svm"], x)[0].mean())
    return fraction, 0.0, (f"outlier fraction {fraction:.4f} on {x.size} points "
                           f"(nu={det.nu}, gamma={ref['gamma']:.6g})")


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
    ModelType.GREEDY: Rule(lambda det, x: {"monitoring_max": float(x.max())}, _greedy_test,
                           _ratio, memory=(8, 0), min_train=1),
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
