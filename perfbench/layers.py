"""The traced run: every workload's pass with spans, a cluster scaling sweep
and an allocation pass, reduced to the per-layer metrics.

Each traced run records the same probes, whatever workload it was started
for, so every per-layer metric has one basis:

* ``probe.compare`` - the compare pass (one span around ``cli.main``) and
  the same protocol replayed through the public functions (n = 90 fits,
  n = 18 evaluates, both presets, 2 repetitions);
* ``probe.capture`` - the capture pass (one span per ``detect``), then for
  its first capture pair ``ingest_csv`` / ``fit`` / ``evaluate`` and a second
  ``detect`` on the same files;
* ``probe.replay`` - one replay pass over the 24 h capture;
* ``probe.sweep`` - each cluster engine called directly at n = 18, 90, 500
  and 2000 on slices of a fulfillment capture, with the parameters a
  default ``DriftDetector`` derives;
* an allocation pass under ``tracemalloc`` with no clock reads, separate
  from every timed pass.
"""

from __future__ import annotations

import math
import statistics
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from driftwatch import (
    MODEL_NAMES,
    DriftDetector,
    ScenarioSpec,
    affinity_propagation,
    agglomerative,
    best_k_silhouette,
    dbscan,
    generate,
    gmm_fit,
    ingest_csv,
    kmeans,
    ocsvm_train,
    optics,
    preset_qos,
    silhouette,
)

from spans import NO_TRACE, Tracer
from workloads import WORKLOADS, Ledger

SWEEP_SIZES = (18, 90, 500, 2000)
SWEEP_REPEATS = {18: 7, 90: 5, 500: 1, 2000: 1}  # median over repeats at small n
ENGINES = ("kmeans", "silhouette", "best_k_silhouette", "gmm_fit", "dbscan", "optics",
           "agglomerative", "affinity_propagation", "ocsvm_train")


def traced_run(workload: str, seed: int, workdir: Path, run_id: str):
    """Return (per-layer metrics as {name: (value, unit[, basis])}, ledger, tracer)."""
    ledger = Ledger()
    tracer = Tracer(run_id)
    probes = {}
    # The selected workload's probe runs last, straight before its untraced
    # twin, so that both passes see a warmed-up process (allocator, caches).
    for name in sorted(WORKLOADS, key=lambda w: w == workload):
        probe = WORKLOADS[name](seed, workdir / name)
        with tracer.span(f"probe.{name}"):
            probe.setup(tracer)
            result = probe.run_pass(tracer, ledger, 0)
            probe.verify([result], tracer, ledger)
        probes[name] = (probe, result)
    probe, traced = probes[workload]
    untraced = probe.run_pass(NO_TRACE, ledger, 1)
    with tracer.span("probe.sweep"):
        _sweep(_sweep_values(seed), tracer)
    alloc, basis = _allocation_pass(probes["capture"][0])

    metrics = _layer_metrics(tracer, probes, ledger)
    metrics.update({name: (kib, "KiB", basis) for name, kib in alloc.items()})
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics, ledger, tracer


def sweep_seed(seed: int) -> int:
    return 1000 * seed + 999  # apart from the capture pair seeds 1000 * seed + i


def _sweep_values(seed: int) -> np.ndarray:
    fulfillment = preset_qos().phases[1]
    n_max = max(SWEEP_SIZES)
    spec = ScenarioSpec("sweep", (replace(fulfillment, duration=n_max * 0.5),),
                        sample_period=0.5, seed=sweep_seed(seed))
    series, _ = generate(spec)
    return series.values()[:n_max]


def _sweep(values: np.ndarray, tr) -> None:
    det = DriftDetector()  # default parameters, as a detector derives them
    for n in SWEEP_SIZES:
        x = values[:n]
        var = float(x.var())
        for _ in range(SWEEP_REPEATS[n]):
            with tr.span(f"cluster.best_k_silhouette.n{n}"):
                k = best_k_silhouette(x, 2, max(2, min(det.k_max, n - 1)), seed=det.seed)
            with tr.span(f"cluster.kmeans.n{n}"):
                fit = kmeans(x, k, seed=det.seed)
            with tr.span(f"cluster.silhouette.n{n}"):
                silhouette(x, fit.labels)
            with tr.span(f"cluster.gmm_fit.n{n}"):
                gmm_fit(x, k, seed=det.seed)
            with tr.span(f"cluster.dbscan.n{n}"):
                dbscan(x, max(det.eps_factor * float(x.std()), 1e-9), det.min_pts)
            with tr.span(f"cluster.optics.n{n}"):
                optics(x, min_samples=det.min_samples, max_eps=det.max_eps,
                       min_cluster_size=det.min_cluster_size, cut_quantile=det.cut_quantile)
            with tr.span(f"cluster.agglomerative.n{n}"):
                agglomerative(x, max(det.threshold_fraction * float(x.mean()), 1e-9), det.linkage)
            with tr.span(f"cluster.affinity_propagation.n{n}"):
                affinity_propagation(x, preference=-float(np.ptp(x)) ** 2, damping=det.damping,
                                     max_iter=det.ap_max_iter,
                                     convergence_iter=det.ap_convergence_iter)
            with tr.span(f"cluster.ocsvm_train.n{n}"):
                ocsvm_train(x, det.nu, 1.0 / (2.0 * var) if var > 1e-12 else 1.0)


def _allocation_pass(capture) -> tuple[dict[str, float], str]:
    train_csv, test_csv, _, _ = capture.pairs[0]
    with train_csv.open("rb") as fh:
        train = ingest_csv(fh).values()
    with test_csv.open("rb") as fh:
        test = ingest_csv(fh).values()
    peaks = {}
    tracemalloc.start()
    try:
        for model in MODEL_NAMES:
            det = DriftDetector(model=model, seed=0)
            peaks[f"detectors.fit.{model}.peak_kib"] = _peak_kib(lambda: det.fit(train))
            peaks[f"detectors.evaluate.{model}.peak_kib"] = _peak_kib(lambda: det.evaluate(test))
    finally:
        tracemalloc.stop()
    basis = (f"tracemalloc peak over the size traced before the call; one fit on n = "
             f"{train.size}, one evaluate on n = {test.size}; untimed pass")
    return peaks, basis


def _peak_kib(fn) -> float:
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    fn()
    return (tracemalloc.get_traced_memory()[1] - base) / 1024.0


def _layer_metrics(tr: Tracer, probes, ledger: Ledger) -> dict[str, tuple]:
    spans = tr.durations()

    def times(root: str, name: str) -> list[float]:
        found = spans.get((f"probe.{root}", name), [])
        ledger.check(bool(found), f"no {name} span under probe.{root}")
        return found or [math.nan]

    def ms(root, name, q=50.0):
        return float(np.percentile(times(root, name), q)) * 1e3

    m: dict[str, tuple[float, str]] = {
        "scenario.generate.ms": (ms("compare", "scenario.generate"), "ms"),
        "scenario.label_batch.us": (ms("compare", "scenario.label_batch") * 1e3, "us"),
        "telemetry.ingest_csv.ms": (ms("replay", "telemetry.ingest_csv"), "ms"),
        "telemetry.ingest_csv.rows": (probes["replay"][1].outcome.get("rows", 0), "count"),
        "telemetry.batchify.ms": (ms("replay", "telemetry.batchify"), "ms"),
        "telemetry.render_csv.ms": (ms("replay", "telemetry.render_csv"), "ms"),
        "telemetry.concat_values.us": (ms("compare", "telemetry.concat_values") * 1e3, "us"),
    }
    for model in MODEL_NAMES:
        m[f"detectors.fit.{model}.ms"] = (ms("compare", f"detectors.fit.{model}"), "ms")
        m[f"detectors.fit.{model}.capture.ms"] = (ms("capture", f"detectors.fit.{model}"), "ms")
        for q in (50, 90):
            m[f"detectors.evaluate.{model}.ms_p{q}"] = (
                ms("compare", f"detectors.evaluate.{model}", q), "ms")
    for q in (50, 99):
        m[f"detectors.evaluate.dbscan.replay.ms_p{q}"] = (
            ms("replay", "detectors.evaluate.dbscan", q), "ms")
    m["detectors.fit.calls"] = (
        sum(len(v) for (_, n), v in spans.items() if n.startswith("detectors.fit.")), "count")
    m["detectors.evaluate.calls"] = (
        sum(len(v) for (_, n), v in spans.items() if n.startswith("detectors.evaluate.")), "count")
    for engine in ENGINES:
        for n in SWEEP_SIZES:
            m[f"cluster.{engine}.n{n}.ms"] = (ms("sweep", f"cluster.{engine}.n{n}"), "ms")
    cli_s = times("compare", "cli.main.bench")[0]
    replay_s = times("compare", "compare.replay")[0]
    m["bench.compare_models.self_s"] = (cli_s - replay_s, "s")
    m["bench.scoring.ms"] = (ms("compare", "bench.scoring"), "ms")
    m["bench.emit_report.ms"] = (ms("compare", "bench.emit_report"), "ms")
    overheads = []
    for model in MODEL_NAMES:
        detect_s = times("capture", f"capture.redetect.{model}")[0]
        parts = tr.children_total(f"capture.decompose.{model}", "probe.capture") or [math.nan]
        overheads.append(detect_s - parts[0])
    m["cli.detect.overhead_ms"] = (statistics.median(overheads) * 1e3, "ms")
    return m
