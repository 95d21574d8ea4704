"""Benchmark harness: run detectors over scenarios and compare them.

Protocol: generate the scenario, cut 9 s batches, fit each detector once on
the first ``train_window_batches`` batches that lie fully inside the
fulfillment phase, then evaluate every subsequent batch.  Each evaluation
yields one :class:`RunRecord` carrying the verdict, the ground-truth label,
wall time, and peak allocated bytes.  :func:`protocol_steps` is the one
driver of that fit-then-evaluate loop: the bench and ``driftwatch replay``
both consume it, and :func:`score_run` scores the runs of either.

Latency is reported as two separate metrics because a single "latency"
number conflates them: ``detection_delay`` (scenario seconds from drift
onset to the first positive verdict) and ``compute_time`` (wall seconds per
fit-plus-evaluate).  Compute time is read with allocation tracing off, since
the tracer slows Python-level allocation several-fold.  Memory is measured
apart from it: a fresh clone of the detector replays the protocol steps,
untimed, under the interpreter's allocation-tracing hook.  ``run_scenario``
traces every step; ``compare_models`` traces only :data:`MEMORY_SUBSET` and
names it in ``memory_basis``.  If tracing is unavailable the per-engine
analytic estimate below is used and the basis says so.  Verdicts always come
from the timed, untraced calls.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .detectors import RULES, DriftDetector, DriftVerdict, ModelType
from .scenario import GroundTruth, PhaseKind, ScenarioSpec, generate, label_batch
from .telemetry import Batch, Series, batchify, concat_values
from .validation import Document, check_count, to_doc

try:
    import tracemalloc
except ImportError:  # pragma: no cover - tracemalloc ships with CPython
    tracemalloc = None

__all__ = [
    "ProtocolError",
    "BenchProtocol",
    "RunRecord",
    "ModelStats",
    "BenchReport",
    "run_scenario",
    "accuracy",
    "false_positive_rate",
    "detection_delay",
    "memory_estimate",
    "MEMORY_SUBSET",
    "compare_models",
    "emit_report",
]


class ProtocolError(ValueError):
    """Scenario/protocol mismatch (e.g. fulfillment too short to train on)."""


@dataclass(frozen=True)
class BenchProtocol:
    """Sliding train/test policy: window size, optional refit cadence, batch length."""

    train_window_batches: int = 5
    refit_every: int = 0  # 0: fit once, never refit
    batch_len: float = 9.0

    def __post_init__(self) -> None:
        check_count(self.refit_every, "refit_every", minimum=0)


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One evaluated batch: verdict vs truth plus resource readings.

    ``compute_time`` is the untraced wall time of the evaluate plus any fit
    folded into this record; ``allocated_bytes`` is their traced peak, or 0
    when the record lies outside the traced subset.
    """

    model: ModelType
    batch_index: int
    batch_start_t: float
    batch_end_t: float
    verdict: DriftVerdict
    truth: bool
    compute_time: float
    allocated_bytes: int


@dataclass
class ModelStats:
    """One model's row of the comparison.  The fields, in this order, are its
    keys in report.json and its rows in report.csv."""

    accuracy: float
    false_positive_rate: float
    avg_detection_delay: float  # seconds; +inf when never detected
    avg_compute_time: float
    peak_memory_bytes: int
    memory_basis: str  # "measured: <traced subset>" | "estimated: <traced subset>"


@dataclass
class BenchReport(Document, what="report", error=ValueError):
    """Aggregated comparison across scenarios, models, and repetition seeds."""

    scenarios: dict[str, dict[str, Any]]
    configs: dict[str, dict[str, Any]]
    protocol: dict[str, Any]
    repetitions: int
    seed_base: int
    total_runs: int
    per_model: dict[str, ModelStats]
    rankings: dict[str, list[str]]
    calibration_warnings: list[str]
    # Outside equality and report.json: emit_report writes one CSV per model.
    timelines: dict[str, list[tuple]] = field(default_factory=dict, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Resource measurement
# ---------------------------------------------------------------------------

def _measure(fn: Callable[[], Any]) -> tuple[Any, float, int, str]:
    """Run fn, returning (result, wall seconds, peak allocated bytes, basis)."""
    if tracemalloc is None:
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0, -1, "estimated"
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    if started_here:
        tracemalloc.stop()
    return result, elapsed, max(0, peak - base), "measured"


def _timed(fn: Callable[[], Any], n: int) -> tuple[Any, float]:
    """Run fn (on n points) untraced; return (result, wall seconds)."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _allocation(model: ModelType, fn: Callable[[], Any], n: int) -> tuple[Any, int]:
    """Run fn traced and untimed; return (result, peak bytes or the n-point estimate)."""
    result, _, peak, basis = _measure(fn)
    return result, peak if basis == "measured" else memory_estimate(model, n)


def memory_estimate(model: ModelType | str, n: int) -> int:
    """Analytic working-set estimate (bytes) for one fit/evaluate on n points,
    from the model's ``memory`` entry in :data:`~driftwatch.detectors.RULES`.

    Used when allocation tracing is unavailable.
    """
    c, p = RULES[ModelType.coerce(model)].memory
    return int(c * 8 * n**p)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

def _as_detector_map(
    detectors: Mapping[str, DriftDetector] | Iterable[DriftDetector] | DriftDetector,
) -> dict[str, DriftDetector]:
    if isinstance(detectors, DriftDetector):
        detectors = [detectors]
    if isinstance(detectors, Mapping):
        return dict(detectors)
    out: dict[str, DriftDetector] = {}
    for det in detectors:
        name = ModelType.coerce(det.model).value
        if name in out:
            raise ValueError(f"duplicate detector for model {name!r}; pass a mapping with unique names")
        out[name] = det
    return out


def training_window(
    batches: Sequence[Batch], truth: GroundTruth | None, n_batches: int
) -> list[int]:
    """Indices of the first n batches fully inside the fulfillment phase, or
    of the first n batches when truth is None.  At least one batch must
    follow them, since the protocol evaluates only batches after the window.
    """
    check_count(n_batches, "train_window_batches", minimum=1)
    where, start, end = "capture", -math.inf, math.inf
    if truth is not None:
        where, start = "fulfillment phase", None
        for i, b in enumerate(truth.boundaries):
            if b.kind is PhaseKind.FULFILLMENT:
                start = b.start_t
                end = truth.boundaries[i + 1].start_t if i + 1 < len(truth.boundaries) else truth.end_t
                break
        if start is None:
            raise ProtocolError("scenario has no fulfillment phase to train on")
    tiny = 1e-9
    idx = []
    for i, b in enumerate(batches):
        if b.start_t >= start - tiny and b.end_t <= end + tiny:
            idx.append(i)
            if len(idx) == n_batches:
                break  # later batches cannot change the window
    if len(idx) < n_batches:
        raise ProtocolError(
            f"{where} holds only {len(idx)} full batches; "
            f"{n_batches} needed for the training window"
        )
    if idx[n_batches - 1] + 1 == len(batches):
        raise ProtocolError(
            f"no batch follows the {n_batches}-batch training window, so none is left to evaluate"
        )
    return idx[:n_batches]


def _clone(detector: DriftDetector) -> DriftDetector:
    return type(detector)(**detector.get_params())


def protocol_steps(
    det: DriftDetector,
    batches: Sequence[Batch],
    train_idx: Sequence[int],
    protocol: BenchProtocol,
    call: Callable[[Callable[[], Any], int], tuple[Any, Any]] = _timed,
):
    """Fit det on the training batches, then evaluate every later batch,
    refitting every ``protocol.refit_every`` evaluations on the batches just
    before.  Yields (batch index, batch, verdict, fit cost, evaluate cost) per
    evaluated batch; the fit cost covers the fits since the previous yield.
    ``call(fn, n)`` runs one fit or evaluate on n points and returns
    (result, cost); the default times it untraced, in seconds."""
    train = concat_values(batches[i] for i in train_idx)
    _, fit_cost = call(lambda: det.fit(train), train.size)
    for j, bi in enumerate(range(train_idx[-1] + 1, len(batches))):
        batch = batches[bi]
        if protocol.refit_every > 0 and j > 0 and j % protocol.refit_every == 0:
            window = concat_values(batches[max(0, bi - protocol.train_window_batches):bi])
            _, fit_cost = call(lambda: det.fit(window), window.size)
        verdict, cost = call(lambda: det.evaluate(batch.values), len(batch.values))
        yield bi, batch, verdict, fit_cost, cost
        fit_cost = 0


def run_record(model: ModelType, bi: int, batch: Batch, verdict: DriftVerdict,
               truth: GroundTruth, compute_time: float, allocated_bytes: int = 0) -> RunRecord:
    """The record of the verdict on ``batch``, batch ``bi``, labelled against truth."""
    return RunRecord(model=model, batch_index=bi, batch_start_t=batch.start_t,
                     batch_end_t=batch.end_t, verdict=verdict, truth=label_batch(batch, truth),
                     compute_time=compute_time, allocated_bytes=allocated_bytes)


def _run_scenario(
    spec: ScenarioSpec,
    detectors: Mapping[str, DriftDetector] | Iterable[DriftDetector] | DriftDetector,
    protocol: BenchProtocol,
    traced_records: int | None = None,
) -> tuple[dict[str, list[RunRecord]], Series, GroundTruth]:
    """Run the protocol timed and untraced, then replay its first
    ``traced_records`` records (all when None) on a fresh clone under
    allocation tracing to fill ``allocated_bytes``.  A record's compute time
    and allocation include the fits made before it."""
    dets = _as_detector_map(detectors)
    series, truth = generate(spec)
    batches = batchify(series, protocol.batch_len, protocol.batch_len)
    train_idx = training_window(batches, truth, protocol.train_window_batches)

    by_model: dict[str, list[RunRecord]] = {}
    for name, proto in dets.items():
        model = ModelType.coerce(proto.model)
        timed = list(protocol_steps(_clone(proto), batches, train_idx, protocol))
        traced = islice(protocol_steps(
            _clone(proto), batches, train_idx, protocol,
            lambda fn, n: _allocation(model, fn, n),
        ), traced_records)
        peaks = [fit + evaluate for *_, fit, evaluate in traced]
        peaks += [0] * (len(timed) - len(peaks))
        by_model[name] = [
            run_record(model, bi, batch, verdict, truth, fit + evaluate, nbytes)
            for (bi, batch, verdict, fit, evaluate), nbytes in zip(timed, peaks)
        ]
    return by_model, series, truth


def run_scenario(
    spec: ScenarioSpec,
    detectors: Mapping[str, DriftDetector] | Iterable[DriftDetector] | DriftDetector,
    protocol: BenchProtocol = BenchProtocol(),
) -> list[RunRecord]:
    """Run the sliding train/test protocol; one record per evaluated batch."""
    by_model, _, _ = _run_scenario(spec, detectors, protocol)
    return [rec for records in by_model.values() for rec in records]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def accuracy(records: Sequence[RunRecord]) -> float:
    """Fraction of records whose verdict matches the ground-truth label."""
    if not records:
        raise ValueError("accuracy of zero records is undefined")
    hits = sum(1 for r in records if r.verdict.drift == r.truth)
    return hits / len(records)


def false_positive_rate(records: Sequence[RunRecord]) -> float:
    """Drift fraction among truth-false records (0.0 when there are none)."""
    negatives = [r for r in records if not r.truth]
    if not negatives:
        return 0.0
    return sum(1 for r in negatives if r.verdict.drift) / len(negatives)


def detection_delay(records: Sequence[RunRecord], truth: GroundTruth) -> float:
    """Seconds from each drift onset to the first positive verdict at/after it.

    Averaged over onsets; +inf when any onset goes undetected.
    """
    onsets = truth.drift_onsets()
    if not onsets:
        raise ValueError("scenario has no drift phase")
    ordered = sorted(records, key=lambda r: r.batch_end_t)
    delays = []
    for t0 in onsets:
        delay = math.inf
        for rec in ordered:
            if rec.batch_end_t > t0 + 1e-9 and rec.verdict.drift:
                delay = rec.batch_end_t - t0
                break
        delays.append(delay)
    return sum(delays) / len(delays)


def score_run(records: Sequence[RunRecord], truth: GroundTruth) -> dict[str, float]:
    """Accuracy, false-positive rate and, when truth has a drift onset,
    detection delay of one run's records."""
    scores = {"accuracy": accuracy(records), "false_positive_rate": false_positive_rate(records)}
    if truth.drift_onsets():
        scores["detection_delay"] = detection_delay(records, truth)
    return scores


# ---------------------------------------------------------------------------
# Cross-model comparison
# ---------------------------------------------------------------------------

# Input sizes are the same in every repetition, so compare_models traces one
# fit and one evaluate per (scenario, model) pair.  Engines whose working set
# depends on the data (gmm, ocsvm) can peak higher at other seeds.
MEMORY_SUBSET = "traced fit + first evaluate of repetition 0 per scenario"


def compare_models(
    scenarios: Mapping[str, ScenarioSpec],
    detectors: Mapping[str, DriftDetector] | Iterable[DriftDetector],
    repetitions: int = 1,
    seed_base: int = 0,
    protocol: BenchProtocol = BenchProtocol(),
) -> BenchReport:
    """Run every (scenario, detector) pair across repetition seeds.

    Repetition r replaces each scenario's seed with seed_base + r, so every
    detector sees the same series within a repetition.  Accuracy, false
    positive rate, and detection delay are averaged per-run first and then
    across runs; compute time averages over all (untraced) records; memory
    reports the peak over :data:`MEMORY_SUBSET`, the only calls traced.
    Timeline rows (one per generated sample) are captured from the first
    scenario's first repetition for each model.
    """
    dets = _as_detector_map(detectors)
    if not scenarios:
        raise ValueError("compare_models needs at least one scenario")
    if not dets:
        raise ValueError("compare_models needs at least one detector")
    check_count(repetitions, "repetitions", minimum=1)

    runs: dict[str, list[dict[str, float]]] = {m: [] for m in dets}
    times: dict[str, list[float]] = {m: [] for m in dets}
    peaks: dict[str, int] = {m: 0 for m in dets}
    basis = f"{'estimated' if tracemalloc is None else 'measured'}: {MEMORY_SUBSET}"
    timelines: dict[str, list[tuple]] = {}

    for s_index, (scenario_name, spec) in enumerate(scenarios.items()):
        for rep in range(repetitions):
            seeded = spec.with_seed(seed_base + rep)
            by_model, series, truth = _run_scenario(
                seeded, dets, protocol, traced_records=1 if rep == 0 else 0
            )
            for name, records in by_model.items():
                runs[name].append(score_run(records, truth))
                times[name].extend(r.compute_time for r in records)
                peaks[name] = max(peaks[name], max(r.allocated_bytes for r in records))
                if s_index == 0 and rep == 0:
                    timelines[name] = _timeline_rows(series, truth, records)

    def average(name: str, metric: str, empty: float = 0.0) -> float:
        return _mean([run[metric] for run in runs[name] if metric in run], empty)

    per_model = {
        name: ModelStats(
            accuracy=average(name, "accuracy"),
            false_positive_rate=average(name, "false_positive_rate"),
            avg_detection_delay=average(name, "detection_delay", math.inf),
            avg_compute_time=_mean(times[name]),
            peak_memory_bytes=peaks[name],
            memory_basis=basis,
        )
        for name in dets
    }

    rankings = {
        "accuracy": _ranked(per_model, key=lambda s: -s.accuracy),
        "false_positive_rate": _ranked(per_model, key=lambda s: s.false_positive_rate),
        "detection_delay": _ranked(per_model, key=lambda s: s.avg_detection_delay),
        "compute_time": _ranked(per_model, key=lambda s: s.avg_compute_time),
        "memory": _ranked(per_model, key=lambda s: s.peak_memory_bytes),
    }

    warnings = []
    if "dbscan" in per_model:
        for rival in ("affinity", "greedy"):
            if rival in per_model and per_model["dbscan"].accuracy < per_model[rival].accuracy:
                warnings.append(
                    f"calibration: dbscan accuracy {per_model['dbscan'].accuracy:.3f} "
                    f"fell below {rival} ({per_model[rival].accuracy:.3f})"
                )

    return BenchReport(
        scenarios={name: spec.to_dict() for name, spec in scenarios.items()},
        configs={name: _jsonable_params(det) for name, det in dets.items()},
        protocol=asdict(protocol),
        repetitions=repetitions,
        seed_base=seed_base,
        total_runs=len(scenarios) * repetitions * len(dets),
        per_model=per_model,
        rankings=rankings,
        calibration_warnings=warnings,
        timelines=timelines,
    )


def _mean(values: Sequence[float], empty: float = 0.0) -> float:
    return sum(values) / len(values) if values else empty


def _ranked(per_model: Mapping[str, ModelStats], key) -> list[str]:
    return sorted(per_model, key=lambda name: (key(per_model[name]), name))


def _jsonable_params(det: DriftDetector) -> dict[str, Any]:
    return to_doc(det.get_params())


def _timeline_rows(
    series: Series, truth: GroundTruth, records: Sequence[RunRecord]
) -> list[tuple]:
    """One (t, value, truth, verdict) row per generated sample; verdict is
    empty for samples outside any evaluated batch.

    Records come in batch order with a fixed batch length, so span starts and
    ends are both sorted: the first span holding t is the first whose end
    lies past t, provided its start is not past t.
    """
    times = series.times()
    first = np.searchsorted([r.batch_end_t for r in records], times, "right")
    inside = first < np.searchsorted([r.batch_start_t for r in records], times, "right")
    return [
        (t, value, int(truth.is_degraded_at(t)), int(records[j].verdict.drift) if hit else None)
        for t, value, j, hit in zip(
            times.tolist(), series.values().tolist(), first.tolist(), inside.tolist()
        )
    ]


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def emit_report(report: BenchReport, sink: str | Path) -> list[Path]:
    """Write report.json, report.csv, and timeline_<model>.csv files."""
    out_dir = Path(sink)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    json_path = out_dir / "report.json"
    json_path.write_text(report.to_json() + "\n", encoding="utf-8")
    paths.append(json_path)

    csv_path = out_dir / "report.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "metric", "value"])
        for name, stats in report.per_model.items():
            writer.writerows((name, metric, value) for metric, value in asdict(stats).items())
    paths.append(csv_path)

    for name, rows in report.timelines.items():
        tl_path = out_dir / f"timeline_{name}.csv"
        with tl_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "value", "truth", "verdict"])
            writer.writerows(rows)  # floats as repr, a verdict of None as ""
        paths.append(tl_path)
    return paths
