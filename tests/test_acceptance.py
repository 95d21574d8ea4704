"""Acceptance gate: one test per release criterion, printed pass-by-pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 6, 7, and 10 share one set of 30 preset runs via a module
fixture; criterion 9 drives the installed CLI end to end.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from driftwatch.bench import (
    BenchProtocol,
    _run_scenario,
    _traced,
    accuracy,
    detection_delay,
    false_positive_rate,
    memory_estimate,
)
from driftwatch.cluster import dbscan, gmm_fit, gmm_responsibilities, kmeans, ocsvm_predict, ocsvm_train
from driftwatch.detectors import MODEL_NAMES, DriftDetector, detect
from driftwatch.scenario import preset_qos, preset_security

from oracles import best_two_partition, canonical, dbscan_reference, mixture_data

SEEDS_PER_PRESET = 15
PRESETS = {"security": preset_security, "qos": preset_qos}


def _preset_sweep(models):
    """Per-(preset, model) run metrics over the standard 15 seeds."""
    detectors = {m: DriftDetector(m) for m in models}
    protocol = BenchProtocol()
    out = {(preset, m): [] for preset in PRESETS for m in models}
    for preset_name, factory in PRESETS.items():
        spec = factory()
        for seed in range(SEEDS_PER_PRESET):
            by_model, _, truth = _run_scenario(spec.with_seed(seed), detectors, protocol, 0)
            for model, records in by_model.items():
                out[(preset_name, model)].append(
                    {
                        "accuracy": accuracy(records),
                        "fpr": false_positive_rate(records),
                        "delay": detection_delay(records, truth),
                    }
                )
    return out


@pytest.fixture(scope="module")
def preset_runs():
    return _preset_sweep(("dbscan", "affinity", "greedy"))


def test_criterion_1_dbscan_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 65))
        data = mixture_data(rng, n)
        eps = float(rng.uniform(0.2, 10.0))
        min_pts = int(rng.integers(1, 6))
        mine = dbscan(data, eps, min_pts)
        ref = dbscan_reference(data, eps, min_pts)
        assert canonical(mine.labels) == canonical(ref)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS: dbscan matches the density oracle on 500 datasets ({elapsed:.1f}s)")


def test_criterion_2_em_correctness():
    rng = np.random.default_rng(2002)
    for trial in range(100):
        data = mixture_data(rng, 200)
        components = int(rng.integers(1, 4))
        model = gmm_fit(data, components, seed=trial)
        ll = np.array(model.log_likelihood)
        assert np.all(np.diff(ll) >= -1e-9), f"log-likelihood decreased on trial {trial}"
        rows = gmm_responsibilities(model, data).sum(axis=1)
        assert np.allclose(rows, 1.0, atol=1e-9)
    print("ACCEPTANCE 2 PASS: 100 EM fits monotone in log-likelihood with unit responsibility rows")


def test_criterion_3_kmeans_correctness():
    rng = np.random.default_rng(3003)
    for trial in range(100):
        data = mixture_data(rng, int(rng.integers(4, 80)))
        k = int(rng.integers(1, min(6, data.size) + 1))
        res = kmeans(data, k, seed=trial)
        hist = np.array(res.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9 * max(1.0, hist[0]))

    optimal = 0
    trials = 100
    for trial in range(trials):
        data = mixture_data(rng, int(rng.integers(2, 11)))
        best, _ = best_two_partition(data)
        res = kmeans(data, 2, seed=trial)
        if res.inertia <= best + 1e-9 * max(1.0, best):
            optimal += 1
    assert optimal >= 0.9 * trials, f"only {optimal}/{trials} runs reached the optimal 2-partition"
    print(f"ACCEPTANCE 3 PASS: inertia monotone on 100 runs; {optimal}/100 small runs optimal")


def test_criterion_4_ocsvm_nu_property():
    rng = np.random.default_rng(4004)
    for nu in (0.05, 0.1, 0.2):
        for _ in range(20):
            data = mixture_data(rng, 200)
            gamma = 1.0 / (2.0 * data.var())
            model = ocsvm_train(data, nu=nu, gamma=gamma)
            inliers, _ = ocsvm_predict(model, data)
            outlier_fraction = 1.0 - float(inliers.mean())
            sv_fraction = model.support_values.size / data.size
            assert outlier_fraction <= nu + 0.05, f"nu={nu}: outliers {outlier_fraction:.3f}"
            assert sv_fraction >= nu - 0.05, f"nu={nu}: SVs {sv_fraction:.3f}"
    print("ACCEPTANCE 4 PASS: nu bounds hold for nu in {0.05, 0.1, 0.2} across 20 seeds each")


def test_criterion_5_detector_sanity_identical_batches():
    rng = np.random.default_rng(5005)
    for trial in range(50):
        values = mixture_data(rng, int(rng.integers(5, 40)))
        for model in MODEL_NAMES:
            verdict = detect(values, values, model=model)
            if model == "ocsvm":
                assert verdict.score <= 0.1 + 0.05, f"ocsvm outliers {verdict.score:.3f}"
            else:
                assert verdict.drift is False, f"{model} drifted on identical batches"
    print("ACCEPTANCE 5 PASS: no model flags identical train/test batches (50 random batches)")


def test_criterion_6_scenario_pipeline(preset_runs):
    for preset in PRESETS:
        runs = preset_runs[(preset, "dbscan")]
        acc = float(np.mean([r["accuracy"] for r in runs]))
        fpr = float(np.mean([r["fpr"] for r in runs]))
        delay = float(np.mean([r["delay"] for r in runs]))
        assert acc >= 0.80, f"{preset}: dbscan accuracy {acc:.3f} < 0.80"
        assert fpr <= 0.05, f"{preset}: false-positive rate {fpr:.3f} > 0.05"
        assert delay <= 27.0, f"{preset}: detection delay {delay:.1f}s > 27s"
        print(
            f"ACCEPTANCE 6 PASS [{preset}]: dbscan accuracy {acc:.3f}, "
            f"fpr {fpr:.4f}, delay {delay:.1f}s over {SEEDS_PER_PRESET} seeds"
        )


def test_criterion_7_ranking_reproduction(preset_runs):
    pooled = {}
    for model in ("dbscan", "affinity", "greedy"):
        values = [r["accuracy"] for preset in PRESETS for r in preset_runs[(preset, model)]]
        pooled[model] = float(np.mean(values))
    assert pooled["dbscan"] >= pooled["affinity"], pooled
    assert pooled["dbscan"] >= pooled["greedy"], pooled
    print(
        "ACCEPTANCE 7 PASS: mean accuracy dbscan "
        f"{pooled['dbscan']:.3f} >= affinity {pooled['affinity']:.3f} "
        f"and greedy {pooled['greedy']:.3f}"
    )


def test_criterion_8_memory_ordering():
    rng = np.random.default_rng(8008)
    batch = np.concatenate([rng.normal(100, 2, 256), rng.normal(500, 2, 256)])
    peaks = {}
    detectors = {
        "affinity": DriftDetector("affinity", ap_max_iter=40),  # peak is iteration-independent
        "hierarchical": DriftDetector("hierarchical"),
        "kmeans": DriftDetector("kmeans"),
        "greedy": DriftDetector("greedy"),
    }
    for name, det in detectors.items():
        _, fit_peak = _traced(lambda: det.fit(batch))
        _, eval_peak = _traced(lambda: det.evaluate(batch))
        peaks[name] = max(fit_peak, eval_peak)
    matrix_low = min(peaks["affinity"], peaks["hierarchical"])
    linear_high = max(peaks["kmeans"], peaks["greedy"])
    assert matrix_low > linear_high, peaks
    estimates = {name: memory_estimate(name, batch.size) for name in detectors}
    assert min(estimates["affinity"], estimates["hierarchical"]) > max(
        estimates["kmeans"], estimates["greedy"]
    )
    print(
        "ACCEPTANCE 8 PASS: n=512 peak bytes "
        + ", ".join(f"{k}={v}" for k, v in sorted(peaks.items(), key=lambda kv: -kv[1]))
    )


def test_criterion_9_end_to_end_budget(tmp_path):
    out_dir = tmp_path / "bench"
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "driftwatch", "bench",
            "--models", "all", "--presets", "all",
            "--reps", "15", "--seed", "0", "--out", str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0, f"bench took {elapsed:.1f}s"

    stdout_lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    (event,) = [l for l in stdout_lines if l.get("event") == "report"]
    assert event["total_runs"] == 8 * 2 * 15

    doc = json.loads((out_dir / "report.json").read_text())
    assert set(doc) == {
        "scenarios", "configs", "protocol", "repetitions", "seed_base",
        "total_runs", "per_model", "rankings", "calibration_warnings",
    }
    assert set(doc["per_model"]) == set(MODEL_NAMES)
    for stats in doc["per_model"].values():
        assert set(stats) == {
            "accuracy", "false_positive_rate", "avg_detection_delay",
            "avg_compute_time", "peak_memory_bytes", "memory_basis",
        }
        assert 0.0 <= stats["accuracy"] <= 1.0
    csv_lines = (out_dir / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "model,metric,value"
    assert len(csv_lines) == 1 + 6 * len(MODEL_NAMES)
    print(f"ACCEPTANCE 9 PASS: full 240-run bench in {elapsed:.1f}s with schema-valid reports")


def test_criterion_10_determinism(preset_runs):
    rerun = _preset_sweep(("dbscan",))
    for preset in PRESETS:
        first = preset_runs[(preset, "dbscan")]
        second = rerun[(preset, "dbscan")]
        assert [r["accuracy"] for r in first] == [r["accuracy"] for r in second]
        assert [r["delay"] for r in first] == [r["delay"] for r in second]
    print("ACCEPTANCE 10 PASS: repeated preset sweeps are bit-identical in accuracy and delay")
