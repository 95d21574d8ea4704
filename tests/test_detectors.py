import inspect
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from driftwatch.detectors import (
    MODEL_NAMES,
    DriftDetector,
    ModelType,
    detect,
    verdict_record,
)
from driftwatch.telemetry import Batch
from driftwatch.validation import squared_range

from oracles import dbscan_reference, mixture_data

COUNT_MODELS = ("affinity", "dbscan", "hierarchical", "optics")
# every keyword-only hyperparameter with its default, in declaration order
PARAM_DEFAULTS = (
    ("multiplier", 2.0), ("margin", 0.25), ("min_pts", 4), ("eps_factor", 1.0),
    ("threshold_fraction", 0.1), ("linkage", "average"), ("min_samples", 3),
    ("min_cluster_size", 3), ("max_eps", math.inf), ("cut_quantile", 0.75), ("nu", 0.1),
    ("gamma_override", None), ("damping", 0.9), ("ap_multiplier", 1.0),
    ("ap_preference_override", None), ("ap_max_iter", 500), ("ap_convergence_iter", 15),
    ("k_max", 8), ("seed", 0),
)


def batch_of(values, start=0.0):
    values = list(values)
    return Batch(start, start + len(values), tuple(values))


class TestEstimatorApi:
    def test_get_set_params_round_trip(self):
        det = DriftDetector("kmeans", multiplier=3.0, seed=11)
        params = det.get_params()
        assert params["model"] == "kmeans"
        assert params["multiplier"] == 3.0
        clone = DriftDetector(**params)
        assert clone.get_params() == params

    def test_signature_repr_and_param_order_are_pinned(self):
        sig = inspect.signature(DriftDetector)
        assert [(p.name, p.kind, p.default) for p in sig.parameters.values()] == [
            ("model", inspect.Parameter.POSITIONAL_OR_KEYWORD, "dbscan"),
            *((name, inspect.Parameter.KEYWORD_ONLY, default) for name, default in PARAM_DEFAULTS),
        ]
        det = DriftDetector()
        assert list(det.get_params()) == ["model", *(name for name, _ in PARAM_DEFAULTS)]
        assert repr(det) == (
            "DriftDetector(model='dbscan', multiplier=2.0, margin=0.25, min_pts=4, "
            "eps_factor=1.0, threshold_fraction=0.1, linkage='average', min_samples=3, "
            "min_cluster_size=3, max_eps=inf, cut_quantile=0.75, nu=0.1, gamma_override=None, "
            "damping=0.9, ap_multiplier=1.0, ap_preference_override=None, ap_max_iter=500, "
            "ap_convergence_iter=15, k_max=8, seed=0)"
        )
        with pytest.raises(TypeError):
            DriftDetector("kmeans", 3.0)  # every hyperparameter is keyword-only

    def test_equality_is_identity_and_detectors_hash(self):
        a, b = DriftDetector(), DriftDetector()
        assert a != b and a == a
        assert len({a, b, a}) == 2
        assert a in {a: 1}

    def test_set_params_chains_and_validates(self):
        det = DriftDetector()
        assert det.set_params(min_pts=6).min_pts == 6
        with pytest.raises(ValueError):
            det.set_params(nonsense=1)

    def test_evaluate_checks_what_it_reads(self):
        det = DriftDetector("dbscan").fit([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="x_test"):
            det.evaluate([1.0, np.inf])
        det.set_params(min_pts=0)  # after fit: only evaluate sees it
        with pytest.raises(ValueError, match="min_pts"):
            det.evaluate([1.0, 2.0])

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        det = DriftDetector("greedy", margin=0.5)
        clone = sklearn_base.clone(det)
        assert clone.get_params() == det.get_params()

    def test_evaluate_requires_fit(self):
        with pytest.raises(RuntimeError):
            DriftDetector("dbscan").evaluate([1, 2, 3])

    def test_model_state_mismatch_rejected(self):
        det = DriftDetector("greedy").fit([1, 2, 3])
        det.model = "dbscan"
        with pytest.raises(ValueError, match="state"):
            det.evaluate([1, 2, 3])

    def test_accepts_batches_and_arrays(self):
        det = DriftDetector("greedy").fit(batch_of([1, 2, 3]))
        assert det.evaluate(np.array([1.0, 2.0])).drift is False

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            DriftDetector("svm").fit([1, 2])


class TestFitState:
    def test_greedy_monitoring_max(self):
        det = DriftDetector("greedy").fit([100, 120, 90])
        assert det.state_.monitoring_max == 120.0

    def test_dbscan_eps_from_train_std(self):
        # population std of alternating 90/110 is exactly 10
        train = [90.0, 110.0] * 6
        det = DriftDetector("dbscan", eps_factor=3.0).fit(train)
        assert det.state_.eps == 30.0
        assert det.state_.k_train == 1

    def test_kmeans_two_blob_gap(self):
        train = [1.0, 2.0, 9.0, 10.0, 11.0]
        det = DriftDetector("kmeans").fit(train)
        assert det.state_.k_train == 2
        assert det.state_.old_max_gap == pytest.approx(8.5)

    def test_hierarchical_threshold_from_mean(self):
        det = DriftDetector("hierarchical", threshold_fraction=0.5).fit([10.0, 30.0])
        assert det.state_.distance_threshold == pytest.approx(10.0)

    def test_affinity_preference_is_min_similarity(self):
        det = DriftDetector("affinity").fit([0.0, 1.0, 10.0])
        assert det.state_.preference == -100.0

    def test_affinity_preference_override(self):
        det = DriftDetector("affinity", ap_preference_override=-4.0).fit([0.0, 1.0, 10.0])
        assert det.state_.preference == -4.0

    def test_ocsvm_auto_gamma(self):
        rng = np.random.default_rng(0)
        train = rng.normal(50, 4, 40)
        det = DriftDetector("ocsvm").fit(train)
        assert det.state_.gamma == pytest.approx(1.0 / (2.0 * train.var()))

    def test_min_train_sizes(self):
        DriftDetector("greedy").fit([5.0])  # greedy accepts one value
        with pytest.raises(ValueError):
            DriftDetector("dbscan").fit([5.0])


class TestDecisionRules:
    def test_greedy_margin_rule(self):
        verdict = detect([100.0, 80.0], [150.0], model="greedy", margin=0.2)
        assert verdict.drift is True
        verdict = detect([100.0, 80.0], [119.0], model="greedy", margin=0.2)
        assert verdict.drift is False

    @pytest.mark.parametrize("model", ["greedy", "kmeans", "gmm"])
    def test_a_zero_threshold_flags_any_positive_statistic(self, model):
        # all-zero training gives a threshold of 0, so the ratio score is the sign alone
        det = DriftDetector(model).fit(np.zeros(90))
        for batch, expected in [(np.zeros(18), (False, 0.0)), (np.r_[np.zeros(17), 50.0], (True, 1.0))]:
            verdict = det.evaluate(batch)
            assert (verdict.drift, verdict.score) == expected

    @pytest.mark.parametrize("model, params, reason", [
        ("greedy", {"margin": math.nan}, "margin must be >= 0"),
        ("affinity", {"ap_preference_override": math.nan}, "preference must be finite"),
        ("affinity", {"ap_preference_override": math.inf}, "preference must be finite"),
        ("affinity", {"ap_preference_override": -math.inf}, "preference must be finite"),
        ("affinity", {"ap_multiplier": math.inf}, "ap_multiplier must be finite"),
        ("ocsvm", {"gamma_override": math.inf}, "gamma must be finite"),
    ])
    def test_a_knob_that_is_not_a_number_is_refused(self, model, params, reason):
        # a NaN margin once gave drift (limit nan), a NaN preference no drift (k = 0)
        train = [100.0, 101.0, 102.0, 200.0, 201.0, 202.0]
        with pytest.raises(ValueError, match=reason):
            detect(train, [50.0, 51.0, 100.0, 101.0, 200.0, 201.0], model=model, **params)

    def test_dbscan_unimodal_to_bimodal(self):
        rng = np.random.default_rng(1)
        train = rng.normal(100, 5, 30)
        test = np.concatenate([rng.normal(100, 1, 12), rng.normal(200, 1, 12)])
        det = DriftDetector("dbscan").fit(train)
        verdict = det.evaluate(test)
        assert verdict.drift is True
        # the oracle sees the same two clusters with the trained eps
        labels = dbscan_reference(test, det.state_.eps, det.min_pts)
        k_oracle = len(set(labels[labels >= 0].tolist()))
        assert k_oracle == 2 > det.state_.k_train

    def test_kmeans_gap_multiplier_rule(self):
        rng = np.random.default_rng(2)
        train = np.concatenate([rng.normal(0, 0.3, 10), rng.normal(10, 0.3, 10)])
        spread = np.concatenate([rng.normal(0, 0.3, 10), rng.normal(50, 0.3, 10)])
        det = DriftDetector("kmeans", multiplier=2.0).fit(train)
        assert det.evaluate(spread).drift is True
        assert det.evaluate(train).drift is False

    def test_ocsvm_outlier_fraction_score(self):
        rng = np.random.default_rng(3)
        train = rng.normal(100, 3, 50)
        det = DriftDetector("ocsvm").fit(train)
        verdict = det.evaluate(np.full(10, 500.0))
        assert verdict.drift is True
        assert verdict.score == 1.0

    def test_count_models_score_sign_matches_drift(self):
        rng = np.random.default_rng(4)
        for model in COUNT_MODELS:
            for trial in range(8):
                train = mixture_data(rng, 30)
                test = mixture_data(rng, 15)
                verdict = DriftDetector(model).fit(train).evaluate(test)
                assert (verdict.score > 0) == verdict.drift

    def test_verdict_detail_mentions_model(self):
        verdict = detect([1.0, 2.0], [1.0, 2.0], model="hierarchical")
        assert "hierarchical" in verdict.detail

    def test_detect_is_fit_then_evaluate(self):
        rng = np.random.default_rng(9)
        train = mixture_data(rng, 20)
        test = mixture_data(rng, 12)
        for model in MODEL_NAMES:
            assert detect(train, test, model=model) == (
                DriftDetector(model).fit(train).evaluate(test)
            )


#: (model, knob, a finite value outside its domain) for every model and every
#: knob it reads that the detector checks itself.  Affinity's engine calls
#: its counts max_iter and convergence_iter, so the detector checks them too.
CHECKED_KNOBS = [
    ("kmeans", "multiplier", 0.0), ("gmm", "multiplier", -1.0), ("greedy", "margin", -0.5),
    ("dbscan", "eps_factor", 0.0), ("hierarchical", "threshold_fraction", -0.1),
    ("affinity", "ap_multiplier", 0.0), ("kmeans", "k_max", 1), ("gmm", "k_max", 2.5),
    ("affinity", "ap_max_iter", 0), ("affinity", "ap_convergence_iter", 0),
]


class TestKnobChecks:
    @pytest.mark.parametrize("model, knob, bad", [
        (model, knob, value) for model, knob, finite in CHECKED_KNOBS
        for value in (math.nan, math.inf, finite)
    ])
    def test_a_knob_outside_its_domain_is_refused_by_fit_and_evaluate(self, model, knob, bad):
        # an infinite knob once blinded its rule (a limit or eps of inf)
        train = [100.0, 101.0, 102.0, 200.0, 201.0, 202.0]
        with pytest.raises(ValueError, match=f"^{knob} must be "):
            DriftDetector(model, **{knob: bad}).fit(train)
        det = DriftDetector(model).fit(train).set_params(**{knob: bad})
        with pytest.raises(ValueError, match=f"^{knob} must be "):
            det.evaluate(train)

    def test_each_knob_declares_its_models_and_the_computed_ones_a_check(self):
        knobs = [f for f in fields(DriftDetector) if "models" in f.metadata]
        assert [f.name for f in knobs] == [name for name, _ in PARAM_DEFAULTS[:-1]]
        for f in knobs:
            models = {m.value for m in f.metadata["models"]}
            assert models and models <= set(MODEL_NAMES), f.name
        assert {f.name for f in knobs if f.metadata["check"]} == {
            "multiplier", "margin", "eps_factor", "threshold_fraction", "ap_multiplier", "k_max",
            "ap_max_iter", "ap_convergence_iter"}
        assert {(m.value, f.name) for f in knobs if f.metadata["check"]
                for m in f.metadata["models"]} == {(m, k) for m, k, _ in CHECKED_KNOBS}

    @pytest.mark.parametrize("model, knob", [
        ("dbscan", "min_pts"), ("optics", "min_samples"), ("optics", "min_cluster_size"),
        ("affinity", "ap_max_iter"), ("affinity", "ap_convergence_iter"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True])
    def test_an_engine_count_that_is_not_a_count_is_a_value_error(self, model, knob, bad):
        # an infinite count once raised OverflowError, a NaN one an unnamed
        # ValueError, and True passed as 1
        with pytest.raises(ValueError, match=r"must be an integer >= \d, got "):
            DriftDetector(model, **{knob: bad}).fit([100.0, 101.0, 102.0, 200.0, 201.0, 202.0])

    def test_a_knob_the_model_does_not_read_is_not_checked(self):
        det = DriftDetector("dbscan", nu=5, margin=math.inf).fit([1.0, 2.0, 3.0])
        assert det.evaluate([2.0]).drift is False


class TestDetectorInvariants:
    @pytest.mark.parametrize("model", [m for m in MODEL_NAMES if m != "ocsvm"])
    def test_identical_batches_no_drift(self, model):
        rng = np.random.default_rng(5)
        for trial in range(10):
            values = mixture_data(rng, int(rng.integers(5, 30)))
            verdict = detect(values, values, model=model)
            assert verdict.drift is False, f"{model} flagged identical batches: {verdict}"

    def test_identical_batches_ocsvm_bounded(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            values = mixture_data(rng, 40)
            verdict = detect(values, values, model="ocsvm", nu=0.1)
            assert verdict.score <= 0.1 + 0.05

    @pytest.mark.parametrize("model", ["greedy", "kmeans", "gmm", "dbscan"])
    def test_scale_invariance(self, model):
        rng = np.random.default_rng(7)
        for trial in range(6):
            train = mixture_data(rng, 24)
            test = mixture_data(rng, 18)
            base = detect(train, test, model=model).drift
            for c in (0.5, 4.0):  # exact powers of two keep float scaling exact
                scaled = detect(train * c, test * c, model=model).drift
                assert scaled == base

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_deterministic(self, model):
        rng = np.random.default_rng(8)
        train = mixture_data(rng, 30)
        test = mixture_data(rng, 12)
        a = detect(train, test, model=model)
        b = detect(train, test, model=model)
        assert a == b


def golden_pair():
    """TestGoldenVerdicts' 90-point training set and 18-point batch."""
    rng = np.random.default_rng(2024)
    train = rng.normal(1200.0, 60.0, 90)
    return train, np.concatenate([rng.normal(1250.0, 40.0, 12), rng.normal(1900.0, 40.0, 6)])


class TestGoldenVerdicts:
    """Exact verdicts, detail text included, for every model on one seeded pair."""

    GOLDEN = [
        ("affinity", False, 0.0,
         "affinity: k_test=2 vs k_train=2 (drift when > 2; preference=-59685)"),
        ("dbscan", False, 0.0,
         "dbscan: k_test=1 vs k_train=1 (drift when > 1; eps=52.4038, min_pts=4)"),
        ("gmm", True, 2.850721210249263,
         "gmm: max centroid gap 624.021 vs threshold 162.053 (k_test=2, old_gap=81.0265, "
         "multiplier=2.0)"),
        ("hierarchical", True, 1.0,
         "hierarchical: k_test=3 vs k_train=2 (drift when > 2; threshold=120.45, linkage=average)"),
        ("kmeans", True, 2.569213005651688,
         "kmeans: max centroid gap 624.021 vs threshold 174.834 (k_test=2, old_gap=87.4172, "
         "multiplier=2.0)"),
        ("optics", False, -6.0,
         "optics: k_test=1 vs k_train=7 (drift when > 7; min_samples=3, min_cluster_size=3)"),
        ("ocsvm", True, 0.38888888888888884,
         "ocsvm: outlier fraction 0.3889 on 18 points (nu=0.1, gamma=0.000182072)"),
        ("greedy", True, 0.20921966085486643,
         "greedy: max 1992.81 vs limit 1648.02 (monitoring_max=1318.41, margin=0.25)"),
    ]

    @pytest.mark.parametrize("model, drift, score, detail", GOLDEN)
    def test_verdict_is_pinned(self, model, drift, score, detail):
        train, test = golden_pair()
        verdict = DriftDetector(model).fit(train).evaluate(test)
        assert (verdict.drift, verdict.score, verdict.detail) == (drift, score, detail)
        assert type(verdict.drift) is bool and type(verdict.score) is float

    def test_every_model_is_pinned(self):
        assert sorted(m for m, *_ in self.GOLDEN) == sorted(MODEL_NAMES)


def golden_verdicts():
    """{model: (drift, score)} on the golden pair."""
    return {model: (drift, score) for model, drift, score, _ in TestGoldenVerdicts.GOLDEN}


#: A power of two keeps every value exact, but squared differences overflow.
HUGE = 2.0 ** 600
#: The models whose engines or reference statistics square differences.
SQUARING = ("affinity", "dbscan", "gmm", "ocsvm")


def too_wide(model, x):
    """The error of a squaring model on values x, as a pattern."""
    return re.escape(f"{model}: the data's range {float(np.ptp(x)):.6g} is too wide")


class TestTopOfTheFloatRange:
    """At 2**600 times the golden pair, a model that squares differences
    refuses the data with one ValueError naming the model and the range; the
    others give the golden verdict."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_fit_refuses_or_keeps_the_golden_verdict(self, model):
        train, test = golden_pair()
        det = DriftDetector(model)
        if model in SQUARING:
            with pytest.raises(ValueError, match="^" + too_wide(model, train * HUGE)):
                det.fit(train * HUGE)
            return
        verdict = det.fit(train * HUGE).evaluate(test * HUGE)
        assert (verdict.drift, verdict.score) == golden_verdicts()[model]

    def test_the_widest_range_that_squares_is_exact(self):
        widest = math.sqrt(np.finfo(float).max)
        assert squared_range(np.array([0.0, widest]), "m") == widest ** 2
        for x in ([0.0, math.nextafter(widest, math.inf)], [-1e308, 1e308]):  # 1e308 - -1e308 = inf
            with pytest.raises(ValueError, match="^m: the data's range"):
                squared_range(np.array(x), "m")

    @pytest.mark.parametrize("model", ["affinity", "gmm"])
    def test_an_engine_refuses_a_batch_it_cannot_square(self, model):
        train, test = golden_pair()
        det = DriftDetector(model).fit(train)
        with pytest.raises(ValueError, match="^" + too_wide(model, test * HUGE)):
            det.evaluate(test * HUGE)


class TestVerdictRecord:
    def test_wire_format_fields(self):
        verdict = detect([1.0, 2.0], [10.0, 20.0], model="greedy")
        record = verdict_record("greedy", verdict, t_start=0.0, t_end=9.0, elapsed_ms=1.5)
        assert set(record) == {
            "model", "drift", "score", "detail", "t_start", "t_end", "elapsed_ms",
        }
        assert record["model"] == "greedy"
        assert record["drift"] is True

    def test_model_type_round_trip(self):
        for name in MODEL_NAMES:
            assert ModelType.coerce(name).value == name
        assert ModelType.coerce(ModelType.DBSCAN) is ModelType.DBSCAN
