import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from driftwatch.bench import (
    MEMORY_SUBSET,
    BenchProtocol,
    BenchReport,
    ProtocolError,
    RunRecord,
    _measure,
    _run_scenario,
    accuracy,
    compare_models,
    compute_time_stats,
    detection_delay,
    emit_report,
    false_positive_rate,
    memory_estimate,
    run_scenario,
    training_window,
)
from driftwatch.cluster import affinity_propagation
from driftwatch.detectors import DriftDetector, DriftVerdict, ModelType
from driftwatch.scenario import (
    PhaseKind,
    PhaseSpec,
    ScenarioSpec,
    generate,
    preset_qos,
)
from driftwatch.telemetry import batchify, concat_values


def lifecycle_spec(seed=0):
    return ScenarioSpec(
        "test-lifecycle",
        (
            PhaseSpec(PhaseKind.NORMAL, 36, 1000, noise_std=50),
            PhaseSpec(PhaseKind.FULFILLMENT, 90, 500, noise_std=25),
            PhaseSpec(PhaseKind.DRIFT, 36, 500, end_level=560, noise_std=18, fluctuation_amp=110),
            PhaseSpec(PhaseKind.FAILURE, 27, 1000, noise_std=20, fluctuation_amp=240),
        ),
        sample_period=0.5,
        seed=seed,
    )


def drift_free_spec(seed=0):
    return ScenarioSpec(
        "no-drift",
        (
            PhaseSpec(PhaseKind.NORMAL, 36, 1000, noise_std=50),
            PhaseSpec(PhaseKind.FULFILLMENT, 90, 500, noise_std=25),
        ),
        sample_period=0.5,
        seed=seed,
    )


def record(drift, truth, *, end_t=9.0, model=ModelType.DBSCAN, index=0):
    return RunRecord(
        model=model,
        batch_index=index,
        batch_start_t=end_t - 9.0,
        batch_end_t=end_t,
        verdict=DriftVerdict(drift=drift, score=1.0 if drift else 0.0, detail=""),
        truth=truth,
        compute_time=0.001,
        allocated_bytes=100,
    )


class TestRunScenario:
    def test_drift_free_all_truth_false(self):
        records = run_scenario(drift_free_spec(), DriftDetector("greedy"))
        assert records
        assert all(r.truth is False for r in records)

    def test_record_count_arithmetic(self):
        spec = drift_free_spec()
        protocol = BenchProtocol(train_window_batches=5)
        records = run_scenario(spec, DriftDetector("greedy"), protocol)
        series, truth = generate(spec)
        batches = batchify(series, 9.0, 9.0)
        pre_fulfillment = training_window(batches, truth, 1)[0]
        assert len(records) == len(batches) - pre_fulfillment - 5

    def test_qos_dbscan_detects_drift(self):
        spec = preset_qos()
        records = run_scenario(spec, DriftDetector("dbscan"))
        _, truth = generate(spec)
        drift_start = truth.drift_onsets()[0]
        failure_start = next(
            b.start_t for b in truth.boundaries if b.kind is PhaseKind.FAILURE
        )
        hits = [
            r
            for r in records
            if r.verdict.drift and r.truth and drift_start <= 0.5 * (r.batch_start_t + r.batch_end_t) < failure_start
        ]
        assert hits  # a positive verdict inside the drift phase itself

    def test_fulfillment_too_short_raises(self):
        spec = ScenarioSpec(
            "short",
            (
                PhaseSpec(PhaseKind.FULFILLMENT, 18, 500, noise_std=10),
                PhaseSpec(PhaseKind.DRIFT, 36, 500, end_level=600, noise_std=10),
            ),
            sample_period=1.0,
        )
        with pytest.raises(ProtocolError, match="fulfillment"):
            run_scenario(spec, DriftDetector("greedy"), BenchProtocol(train_window_batches=5))

    def test_no_fulfillment_phase_raises(self):
        spec = ScenarioSpec(
            "none", (PhaseSpec(PhaseKind.NORMAL, 90, 500, noise_std=10),), sample_period=1.0
        )
        with pytest.raises(ProtocolError, match="no fulfillment"):
            run_scenario(spec, DriftDetector("greedy"))

    def test_no_batch_after_the_window_raises_before_scoring(self):
        spec = ScenarioSpec(
            "fulfillment-last",
            (
                PhaseSpec(PhaseKind.NORMAL, 36, 1000, noise_std=50),
                PhaseSpec(PhaseKind.FULFILLMENT, 45, 500, noise_std=25),
            ),
            sample_period=0.5,
        )
        with pytest.raises(ProtocolError, match="no batch follows the 5-batch training window"):
            compare_models({"short": spec}, [DriftDetector("greedy")])

    def test_training_window_without_truth_is_the_first_batches(self):
        series, _ = generate(drift_free_spec())
        batches = batchify(series, 9.0, 9.0)
        assert training_window(batches, None, 3) == [0, 1, 2]
        assert training_window(batches, None, len(batches) - 1) == list(range(len(batches) - 1))
        with pytest.raises(ProtocolError, match="no batch follows"):
            training_window(batches, None, len(batches))
        with pytest.raises(ProtocolError, match=f"capture holds only {len(batches)} full batches"):
            training_window(batches, None, len(batches) + 1)

    def test_negative_refit_every_rejected(self):
        with pytest.raises(ValueError, match="refit_every must be an integer >= 0, got -1"):
            BenchProtocol(refit_every=-1)

    def test_refit_every_changes_reference(self):
        spec = lifecycle_spec()
        fixed = run_scenario(spec, DriftDetector("greedy"), BenchProtocol(refit_every=0))
        sliding = run_scenario(spec, DriftDetector("greedy"), BenchProtocol(refit_every=1))
        assert len(fixed) == len(sliding)
        # a sliding greedy reference adapts to the drift ramp, so verdicts differ
        assert [r.verdict.drift for r in fixed] != [r.verdict.drift for r in sliding]

    def test_compute_time_and_memory_recorded(self):
        records = run_scenario(drift_free_spec(), DriftDetector("dbscan"))
        assert all(r.compute_time >= 0 for r in records)
        assert all(r.allocated_bytes >= 0 for r in records)
        # the first record carries the training fit cost
        assert records[0].allocated_bytes > records[1].allocated_bytes


class TestMetrics:
    def test_accuracy_all_and_none(self):
        assert accuracy([record(True, True), record(False, False)]) == 1.0
        assert accuracy([record(True, False), record(False, True)]) == 0.0

    def test_accuracy_eleven_of_thirteen(self):
        records = [record(True, True) for _ in range(11)]
        records += [record(False, True), record(True, False)]
        assert accuracy(records) == pytest.approx(11 / 13)
        assert round(accuracy(records), 3) == 0.846

    def test_accuracy_plus_error_is_one(self):
        rng = np.random.default_rng(0)
        records = [record(bool(rng.integers(2)), bool(rng.integers(2))) for _ in range(37)]
        errors = sum(1 for r in records if r.verdict.drift != r.truth) / len(records)
        assert accuracy(records) + errors == 1.0

    def test_accuracy_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy([])

    def test_false_positive_rate_only_negatives(self):
        records = [record(True, False), record(False, False), record(True, True)]
        assert false_positive_rate(records) == 0.5
        assert false_positive_rate([record(True, True)]) == 0.0

    def test_detection_delay_first_batch(self):
        truth = generate(lifecycle_spec())[1]
        onset = truth.drift_onsets()[0]
        records = [
            record(False, False, end_t=onset - 9),
            record(True, True, end_t=onset + 9),
            record(True, True, end_t=onset + 18),
        ]
        assert detection_delay(records, truth) == pytest.approx(9.0)

    def test_detection_delay_third_batch(self):
        truth = generate(lifecycle_spec())[1]
        onset = truth.drift_onsets()[0]
        records = [
            record(False, True, end_t=onset + 9),
            record(False, True, end_t=onset + 18),
            record(True, True, end_t=onset + 27),
        ]
        assert detection_delay(records, truth) == pytest.approx(27.0)

    def test_detection_delay_never_detected(self):
        truth = generate(lifecycle_spec())[1]
        records = [record(False, True, end_t=200.0)]
        assert math.isinf(detection_delay(records, truth))

    def test_detection_delay_requires_drift_phase(self):
        truth = generate(drift_free_spec())[1]
        with pytest.raises(ValueError):
            detection_delay([record(True, True)], truth)

    def test_compute_time_stats(self):
        records = [record(False, False) for _ in range(3)]
        stats = compute_time_stats(records)
        assert stats.mean == pytest.approx(0.001)
        assert stats.max == pytest.approx(0.001)
        with pytest.raises(ValueError):
            compute_time_stats([])


class TestMemoryAccounting:
    def test_affinity_measured_allocation_covers_matrices(self):
        n = 200
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 100, n)
        _, _, peak, basis = _measure(lambda: affinity_propagation(data, max_iter=30))
        assert basis == "measured"
        assert peak >= 3 * n * n * 8  # similarity, responsibility, availability

    def test_greedy_constant_auxiliary_memory(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 100, 512)
        det = DriftDetector("greedy")
        _, _, fit_peak, _ = _measure(lambda: det.fit(data))
        _, _, eval_peak, _ = _measure(lambda: det.evaluate(data))
        assert max(fit_peak, eval_peak) < 100_000  # input copies only, no matrices

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="allocation tracing is on for the whole process")
    def test_compare_models_times_untraced_and_traces_only_the_subset(self):
        calls = []

        class TracingProbe(DriftDetector):
            def fit(self, X):
                calls.append(("fit", tracemalloc.is_tracing()))
                return super().fit(X)

            def evaluate(self, X):
                calls.append(("evaluate", tracemalloc.is_tracing()))
                return super().evaluate(X)

        scenarios = {"a": lifecycle_spec(), "b": drift_free_spec()}
        report = compare_models(scenarios, {"greedy": TracingProbe("greedy")}, repetitions=2)
        evaluated = sum(
            len(run_scenario(spec.with_seed(rep), DriftDetector("greedy")))
            for spec in scenarios.values()
            for rep in range(2)
        )
        untraced = Counter(kind for kind, tracing in calls if not tracing)
        traced = Counter(kind for kind, tracing in calls if tracing)
        # every protocol call is timed, and not one of them ran under the tracer
        assert untraced == {"fit": 2 * 2, "evaluate": evaluated}
        # tracing covers the fit and first evaluate of repetition 0 per scenario
        assert traced == {"fit": 2, "evaluate": 2}
        stats = report.per_model["greedy"]
        assert stats.memory_basis == f"measured: {MEMORY_SUBSET}"
        assert stats.peak_memory_bytes > 0

    def test_estimates_rank_matrix_engines_highest(self):
        n = 512
        assert memory_estimate("affinity", n) > memory_estimate("kmeans", n)
        assert memory_estimate("hierarchical", n) > memory_estimate("greedy", n)
        assert memory_estimate("affinity", n) == 4 * 8 * n * n

    @pytest.mark.parametrize("model", [m.value for m in ModelType if m is not ModelType.GREEDY])
    def test_engine_estimate_is_within_2x_of_a_traced_fit(self, model):
        n = 500
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(1000.0, 40.0, n // 2), rng.normal(1600.0, 40.0, n - n // 2)])
        det = DriftDetector(model)
        det.fit(x)  # first call pays one-off lazy imports
        _, _, peak, basis = _measure(lambda: det.fit(x))
        assert basis == "measured"
        assert 0.5 <= peak / memory_estimate(model, n) <= 2.0, (peak, memory_estimate(model, n))

    def test_capture_scale_optics_fit_is_within_2x_of_the_estimate(self):
        # a linear estimate must hold at n = 2000 too, where an N x N working set is 16x its n = 500 size
        n = 2000
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(1000.0, 40.0, n // 2), rng.normal(1600.0, 40.0, n - n // 2)])
        det = DriftDetector("optics")
        det.fit(x)  # first call pays one-off lazy imports
        _, _, peak, basis = _measure(lambda: det.fit(x))
        assert basis == "measured"
        assert 0.5 <= peak / memory_estimate("optics", n) <= 2.0, (peak, memory_estimate("optics", n))

    @pytest.mark.parametrize("model", ["kmeans", "gmm"])
    def test_training_window_fit_is_within_2x_of_the_estimate(self, model):
        # the bench's training shape: five 18-point batches of one fulfillment mode
        series, truth = generate(preset_qos())
        batches = batchify(series, 9.0, 9.0)
        x = concat_values(batches[i] for i in training_window(batches, truth, 5))
        assert x.size == 90
        det = DriftDetector(model)
        _, _, peak, basis = _measure(lambda: det.fit(x))
        assert basis == "measured"
        assert peak <= 2 * memory_estimate(model, x.size), (peak, memory_estimate(model, x.size))


class TestCompareModels:
    def test_single_run_report(self):
        report = compare_models(
            {"lifecycle": lifecycle_spec()}, {"greedy": DriftDetector("greedy")}, repetitions=1
        )
        assert report.total_runs == 1
        assert set(report.per_model) == {"greedy"}
        assert report.repetitions == 1

    def test_total_runs_arithmetic(self):
        report = compare_models(
            {"a": lifecycle_spec(), "b": drift_free_spec()},
            {"greedy": DriftDetector("greedy"), "dbscan": DriftDetector("dbscan")},
            repetitions=3,
        )
        assert report.total_runs == 2 * 3 * 2

    def test_deterministic_accuracy_and_delay(self):
        kwargs = dict(
            scenarios={"lifecycle": lifecycle_spec()},
            detectors={"dbscan": DriftDetector("dbscan")},
            repetitions=3,
            seed_base=42,
        )
        a = compare_models(**kwargs)
        b = compare_models(**kwargs)
        assert a.per_model["dbscan"].accuracy == b.per_model["dbscan"].accuracy
        assert a.per_model["dbscan"].avg_detection_delay == b.per_model["dbscan"].avg_detection_delay

    def test_aggregation_is_plain_mean(self):
        scenarios = {"lifecycle": lifecycle_spec()}
        detector = {"dbscan": DriftDetector("dbscan")}
        per_run = []
        for rep in range(3):
            by_model, _, truth, _ = _run_scenario(
                lifecycle_spec().with_seed(rep), detector, BenchProtocol()
            )
            per_run.append(accuracy(by_model["dbscan"]))
        report = compare_models(scenarios, detector, repetitions=3, seed_base=0)
        assert report.per_model["dbscan"].accuracy == pytest.approx(np.mean(per_run))

    def test_rankings_cover_all_models(self):
        report = compare_models(
            {"lifecycle": lifecycle_spec()},
            {"greedy": DriftDetector("greedy"), "dbscan": DriftDetector("dbscan")},
            repetitions=2,
        )
        for metric, order in report.rankings.items():
            assert sorted(order) == ["dbscan", "greedy"]

    def test_calibration_warning_when_dbscan_trails(self):
        # cripple dbscan (min_pts exceeds any batch population) so the
        # greedy baseline out-scores it; the report must say so
        report = compare_models(
            {"lifecycle": lifecycle_spec()},
            {
                "dbscan": DriftDetector("dbscan", min_pts=50),
                "greedy": DriftDetector("greedy"),
            },
            repetitions=2,
        )
        assert report.per_model["dbscan"].accuracy < report.per_model["greedy"].accuracy
        assert any("calibration" in w and "greedy" in w for w in report.calibration_warnings)


class TestEmitReport:
    @pytest.fixture()
    def report(self):
        return compare_models(
            {"lifecycle": lifecycle_spec()},
            {"greedy": DriftDetector("greedy"), "dbscan": DriftDetector("dbscan")},
            repetitions=1,
        )

    def test_writes_expected_files(self, tmp_path, report):
        paths = emit_report(report, tmp_path)
        names = {p.name for p in paths}
        assert {"report.json", "report.csv", "timeline_greedy.csv", "timeline_dbscan.csv"} <= names

    def test_report_json_round_trips(self, tmp_path, report):
        emit_report(report, tmp_path)
        text = (tmp_path / "report.json").read_text()
        assert BenchReport.from_json(text) == report

    def test_csv_header_fixed(self, tmp_path, report):
        emit_report(report, tmp_path)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "model,metric,value"
        assert any(line.startswith("dbscan,accuracy,") for line in lines)

    def test_timeline_one_row_per_sample(self, tmp_path, report):
        emit_report(report, tmp_path)
        series, _ = generate(lifecycle_spec().with_seed(0))
        lines = (tmp_path / "timeline_dbscan.csv").read_text().splitlines()
        assert lines[0] == "t,value,truth,verdict"
        assert len(lines) - 1 == len(series)

    def test_unwritable_sink_raises(self, tmp_path, report):
        target = tmp_path / "taken"
        target.write_text("a file, not a directory")
        with pytest.raises(OSError):
            emit_report(report, target)

    def test_infinite_delay_serializes_as_null(self, tmp_path):
        report = compare_models(
            {"lifecycle": lifecycle_spec()},
            {"affinity": DriftDetector("affinity", ap_max_iter=2)},  # never converges: no detections
            repetitions=1,
        )
        if math.isinf(report.per_model["affinity"].avg_detection_delay):
            doc = json.loads(report.to_json())
            assert doc["per_model"]["affinity"]["avg_detection_delay"] is None
            assert BenchReport.from_json(report.to_json()) == report
