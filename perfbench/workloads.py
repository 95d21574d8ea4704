"""The three workloads: their inputs, their timed pass and their output checks.

Every workload builds its inputs from the workload seed in ``setup`` and then
runs closed-loop passes: one caller, each call waits for the previous one.
A pass takes a span recorder; the untraced passes get ``NO_TRACE``.  Seeds
reach driftwatch only as explicit arguments, so ``DRIFTWATCH_SEED`` in the
environment cannot change a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from driftwatch import (
    MODEL_NAMES,
    PRESETS,
    BenchReport,
    DriftDetector,
    RunRecord,
    ScenarioSpec,
    Series,
    accuracy,
    batchify,
    cli,
    detection_delay,
    emit_report,
    false_positive_rate,
    generate,
    ingest_csv,
    label_batch,
    preset_qos,
    render_csv,
)
from driftwatch.bench import training_window
from driftwatch.telemetry import concat_values

BATCH_S = 9.0
TRAIN_BATCHES = 5
DETECTOR_SEED = 0

COMPARE_REPS = 2
CAPTURE_PAIRS = 8
CAPTURE_TRAIN_S = 250.0  # 500 points at 2 Hz
CAPTURE_TEST_OFFSET_S = 54.0  # test batch starts this far into the drift phase
REPLAY_SPAN_S = 24 * 3600.0


# ---------------------------------------------------------------------------
# Failure and output accounting
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Operations attempted and failed, output checks, and the verdict digest."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    checks_failed: int = 0
    _digest: Any = field(default_factory=hashlib.sha256)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(f"failed: {what}")
        return ok

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.checks_failed += 1
            self._note(f"check: {what}")
        return ok

    def verdict(self, key: str, drift, score, exit_code: int | None = None) -> bool:
        """Count one verdict.  It fails on a non-bool drift, a non-finite
        score, or a CLI exit code (2 included) that disagrees with drift."""
        ok = isinstance(drift, bool) and isinstance(score, float) and math.isfinite(score)
        if exit_code is not None:
            ok = ok and exit_code == int(drift)
        self._digest.update(f"{key},{drift!r},{score!r}\n".encode())
        return self.op(ok, f"{key}: drift={drift!r} score={score!r} exit code={exit_code}")

    def crash(self, what: str) -> None:
        self.op(False, f"{what}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checks_failed == 0 and self.attempted > 0

    def _note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


@contextlib.contextmanager
def captured_stdio():
    """Collect what the CLI prints, so the benchmark's own stdout stays clean."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


def _write_series(series: Series, path: Path, tr) -> None:
    with tr.span("telemetry.render_csv"), path.open("w", encoding="utf-8") as fh:
        render_csv(series, fh)


def _run_record(model: str, bi: int, batch, verdict, truth_flag: bool) -> RunRecord:
    return RunRecord(model=model, batch_index=bi, batch_start_t=batch.start_t,
                     batch_end_t=batch.end_t, verdict=verdict, truth=truth_flag,
                     compute_time=0.0, allocated_bytes=0)


def _scores(records, truth, tr) -> tuple[float, float, float]:
    with tr.span("bench.scoring"):
        acc = accuracy(records)
        fpr = false_positive_rate(records)
        delay = detection_delay(records, truth) if truth.drift_onsets() else math.inf
    return acc, fpr, delay


@dataclass
class PassResult:
    wall_s: float
    calls: dict[str, list[float]] = field(default_factory=dict)  # seconds, by kind of call
    outcome: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# compare: the full model comparison through the CLI
# ---------------------------------------------------------------------------

class Compare:
    name = "compare"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.seeds = {"bench --seed (scenario seed base and detector seed)": seed}

    def setup(self, tr) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def argv(self, out: Path) -> list[str]:
        return ["bench", "--models", "all", "--presets", "all", "--reps", str(COMPARE_REPS),
                "--seed", str(self.seed), "--out", str(out)]

    def run_pass(self, tr, ledger: Ledger, index: int) -> PassResult:
        out = self.workdir / f"bench-{index}"
        code = None
        with captured_stdio():
            t0 = time.perf_counter()
            try:
                with tr.span("cli.main.bench"):
                    code = cli.main(self.argv(out))
            except Exception:
                ledger.crash("bench")
            wall = time.perf_counter() - t0
        if code is not None:
            ledger.op(code == 0, f"bench exit code {code}")
        return PassResult(wall, outcome={"out": out})

    def verify(self, passes: list[PassResult], tr, ledger: Ledger) -> dict:
        """Replay the bench protocol through the public functions and require
        report.json and the timeline files to match it bit for bit."""
        out = passes[0].outcome["out"]
        try:
            text = (out / "report.json").read_text(encoding="utf-8")
            report = BenchReport.from_json(text)
        except (OSError, ValueError, KeyError) as exc:
            ledger.check(False, f"report.json unreadable: {exc}")
            return {}
        ledger.check(report.total_runs == len(PRESETS) * COMPARE_REPS * len(MODEL_NAMES),
                     f"report.json total_runs {report.total_runs}")
        for later in passes[1:]:
            again = BenchReport.from_json((later.outcome["out"] / "report.json").read_text(encoding="utf-8"))
            ledger.check(_quality(again) == _quality(report), "report.json verdicts differ between passes")
        try:
            with tr.span("compare.replay"):
                stats, timelines = self._replay_protocol(tr, ledger)
                report.timelines = timelines
                replay_dir = self.workdir / "replay-report"
                with tr.span("bench.emit_report"):
                    emit_report(report, replay_dir)
        except Exception:
            ledger.crash("protocol replay")
            return {}
        reported = _quality(report)
        for name in MODEL_NAMES:
            ledger.check(reported.get(name) == stats[name],
                         f"{name}: report.json {reported.get(name)} vs replay {stats[name]}")
            tl = f"timeline_{name}.csv"
            ledger.check((out / tl).read_bytes() == (replay_dir / tl).read_bytes(),
                         f"{tl} differs from the replayed verdicts")
        return {
            "accuracy": sum(s.accuracy for s in report.per_model.values()) / len(report.per_model),
            "false_positive_rate": sum(s.false_positive_rate for s in report.per_model.values())
            / len(report.per_model),
        }

    def _replay_protocol(self, tr, ledger: Ledger):
        accs = {m: [] for m in MODEL_NAMES}
        fprs = {m: [] for m in MODEL_NAMES}
        delays = {m: [] for m in MODEL_NAMES}
        timelines = {}
        for s_index, preset in enumerate(sorted(PRESETS)):
            for rep in range(COMPARE_REPS):
                spec = PRESETS[preset]().with_seed(self.seed + rep)
                with tr.span("scenario.generate"):
                    series, truth = generate(spec)
                with tr.span("telemetry.batchify"):
                    batches = batchify(series, BATCH_S, BATCH_S)
                with tr.span("bench.training_window"):
                    train_idx = training_window(batches, truth, TRAIN_BATCHES)
                with tr.span("telemetry.concat_values"):
                    train = concat_values(batches[i] for i in train_idx)
                for model in MODEL_NAMES:
                    det = DriftDetector(model=model, seed=self.seed)
                    with tr.span(f"detectors.fit.{model}"):
                        det.fit(train)
                    records = []
                    for bi in range(train_idx[-1] + 1, len(batches)):
                        batch = batches[bi]
                        with tr.span(f"detectors.evaluate.{model}"):
                            verdict = det.evaluate(batch.values)
                        ledger.verdict(f"{preset}/{rep}/{model}/{bi}", verdict.drift, verdict.score)
                        with tr.span("scenario.label_batch"):
                            truth_flag = label_batch(batch, truth)
                        records.append(_run_record(model, bi, batch, verdict, truth_flag))
                    acc, fpr, delay = _scores(records, truth, tr)
                    accs[model].append(acc)
                    fprs[model].append(fpr)
                    if truth.drift_onsets():
                        delays[model].append(delay)
                    if s_index == 0 and rep == 0:
                        timelines[model] = _timeline_rows(series, truth, records)
        stats = {
            m: (sum(accs[m]) / len(accs[m]), sum(fprs[m]) / len(fprs[m]),
                sum(delays[m]) / len(delays[m]) if delays[m] else math.inf)
            for m in MODEL_NAMES
        }
        return stats, timelines


def _quality(report: BenchReport) -> dict:
    return {m: (s.accuracy, s.false_positive_rate, s.avg_detection_delay)
            for m, s in report.per_model.items()}


def _timeline_rows(series, truth, records) -> list[tuple]:
    """(t, value, truth, verdict) per sample; verdict None outside evaluated batches."""
    starts = np.array([r.batch_start_t for r in records])
    rows = []
    for sample in series.samples:
        i = int(np.searchsorted(starts, sample.t, side="right")) - 1
        inside = i >= 0 and sample.t < records[i].batch_end_t
        rows.append((sample.t, sample.value, int(truth.is_degraded_at(sample.t)),
                     int(records[i].verdict.drift) if inside else None))
    return rows


# ---------------------------------------------------------------------------
# capture: single-shot `detect` on a long training capture, every model
# ---------------------------------------------------------------------------

def capture_spec(seed: int) -> ScenarioSpec:
    qos = preset_qos()
    fulfillment, drift = qos.phases[1], qos.phases[2]
    return ScenarioSpec("capture", (replace(fulfillment, duration=CAPTURE_TRAIN_S), drift),
                        sample_period=qos.sample_period, seed=seed)


class Capture:
    name = "capture"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.pair_seeds = [1000 * seed + i for i in range(CAPTURE_PAIRS)]
        self.seeds = {"capture scenario seeds": self.pair_seeds, "detect --seed": DETECTOR_SEED}
        self.pairs: list[tuple[Path, Path, float, float]] = []

    def setup(self, tr) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        lo = CAPTURE_TRAIN_S + CAPTURE_TEST_OFFSET_S
        for s in self.pair_seeds:
            with tr.span("scenario.generate"):
                series, _ = generate(capture_spec(s))
            samples = series.samples
            train = Series(tuple(x for x in samples if x.t < CAPTURE_TRAIN_S))
            test = Series(tuple(x for x in samples if lo <= x.t < lo + BATCH_S))
            train_csv, test_csv = self.workdir / f"train-{s}.csv", self.workdir / f"test-{s}.csv"
            _write_series(train, train_csv, tr)
            _write_series(test, test_csv, tr)
            self.pairs.append((train_csv, test_csv, test.samples[0].t, test.samples[-1].t))

    def argv(self, model: str, train_csv: Path, test_csv: Path) -> list[str]:
        return ["detect", "--model", model, "--train", str(train_csv), "--test", str(test_csv),
                "--seed", str(DETECTOR_SEED)]

    def run_pass(self, tr, ledger: Ledger, index: int) -> PassResult:
        calls, verdicts = {m: [] for m in MODEL_NAMES}, {}
        t_pass = time.perf_counter()
        for p, (train_csv, test_csv, t_lo, t_hi) in enumerate(self.pairs):
            for model in MODEL_NAMES:
                code = None
                with captured_stdio() as (out, _):
                    t0 = time.perf_counter()
                    try:
                        with tr.span(f"cli.detect.{model}"):
                            code = cli.main(self.argv(model, train_csv, test_csv))
                    except Exception:
                        ledger.crash(f"detect {model}")
                    calls[model].append(time.perf_counter() - t0)
                if code is None:
                    continue
                record = _detect_record(out.getvalue())
                key = f"{self.pair_seeds[p]}/{model}"
                if record is None:
                    ledger.op(False, f"detect {key} printed no verdict record (exit code {code})")
                    continue
                ledger.check(record.get("model") == model and record.get("t_start") == t_lo
                             and record.get("t_end") == t_hi, f"detect {key} record fields {record}")
                ledger.verdict(key, record.get("drift"), record.get("score"), exit_code=code)
                verdicts[(p, model)] = (record.get("drift"), record.get("score"))
        wall = time.perf_counter() - t_pass
        return PassResult(wall, calls, {"verdicts": verdicts})

    def verify(self, passes: list[PassResult], tr, ledger: Ledger) -> dict:
        """Repeat the first pair through ingest_csv / fit / evaluate and require
        the CLI's verdicts; every pass must also give the same verdicts."""
        first = passes[0].outcome["verdicts"]
        for later in passes[1:]:
            ledger.check(later.outcome["verdicts"] == first, "verdicts differ between passes")
        # The CLI call is repeated next to its library calls, so that both run
        # in a warmed-up process and their difference is the CLI's own cost.
        train_csv, test_csv, _, _ = self.pairs[0]
        for model in MODEL_NAMES:
            try:
                with tr.span(f"capture.decompose.{model}"):
                    with tr.span("telemetry.ingest_csv"), train_csv.open("rb") as fh:
                        train = ingest_csv(fh, meta=train_csv.name)
                    with tr.span("telemetry.ingest_csv"), test_csv.open("rb") as fh:
                        test = ingest_csv(fh, meta=test_csv.name)
                    det = DriftDetector(model=model, seed=DETECTOR_SEED)
                    with tr.span(f"detectors.fit.{model}"):
                        det.fit(train.values())
                    with tr.span(f"detectors.evaluate.{model}"):
                        verdict = det.evaluate(test.values())
                with captured_stdio() as (out, _), tr.span(f"capture.redetect.{model}"):
                    cli.main(self.argv(model, train_csv, test_csv))
            except Exception:
                ledger.crash(f"decompose {model}")
                continue
            again = _detect_record(out.getvalue()) or {}
            ledger.check(first.get((0, model)) == (verdict.drift, verdict.score)
                         == (again.get("drift"), again.get("score")),
                         f"{model}: detect gave {first.get((0, model))} then {again}, "
                         f"library gave {(verdict.drift, verdict.score)}")
        flagged = [d for d, _ in first.values()]
        # Every test batch lies in the drift phase, so a drift verdict is correct.
        return {"accuracy": sum(flagged) / len(flagged) if flagged else math.nan}


def _detect_record(stdout: str) -> dict | None:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) != 1:
        return None
    try:
        record = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


# ---------------------------------------------------------------------------
# replay: a 24 h capture driven through the library as an online monitor
# ---------------------------------------------------------------------------

def replay_spec(seed: int) -> ScenarioSpec:
    qos = preset_qos()
    normal, fulfillment, drift, failure = qos.phases
    hold = REPLAY_SPAN_S - normal.duration - drift.duration - failure.duration
    return ScenarioSpec("replay-24h", (normal, replace(fulfillment, duration=hold), drift, failure),
                        sample_period=qos.sample_period, seed=seed)


class Replay:
    name = "replay"
    model = "dbscan"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.seeds = {"replay scenario seed": seed, "detector seed": DETECTOR_SEED}

    def setup(self, tr) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        with tr.span("scenario.generate"):
            series, self.truth = generate(replay_spec(self.seed))
        self.csv = self.workdir / "capture-24h.csv"
        _write_series(series, self.csv, tr)

    def run_pass(self, tr, ledger: Ledger, index: int) -> PassResult:
        calls, records = {"evaluate": []}, []
        t_pass = time.perf_counter()
        try:
            with tr.span("telemetry.ingest_csv"), self.csv.open("rb") as fh:
                series = ingest_csv(fh, meta=self.csv.name)
            with tr.span("telemetry.batchify"):
                batches = batchify(series, BATCH_S, BATCH_S)
            with tr.span("bench.training_window"):
                train_idx = training_window(batches, self.truth, TRAIN_BATCHES)
            with tr.span("telemetry.concat_values"):
                train = concat_values(batches[i] for i in train_idx)
            det = DriftDetector(model=self.model, seed=DETECTOR_SEED)
            with tr.span(f"detectors.fit.{self.model}"):
                det.fit(train)
        except Exception:
            ledger.crash("replay preparation")
            return PassResult(time.perf_counter() - t_pass, {"evaluate": [math.nan]})
        for bi in range(train_idx[-1] + 1, len(batches)):
            batch = batches[bi]
            try:
                t0 = time.perf_counter()
                with tr.span(f"detectors.evaluate.{self.model}"):
                    verdict = det.evaluate(batch.values)
                calls["evaluate"].append(time.perf_counter() - t0)
                with tr.span("scenario.label_batch"):
                    truth_flag = label_batch(batch, self.truth)
            except Exception:
                ledger.crash(f"evaluate batch {bi}")
                continue
            if ledger.verdict(f"{bi}", verdict.drift, verdict.score):
                records.append(_run_record(self.model, bi, batch, verdict, truth_flag))
        acc, fpr, delay = _scores(records, self.truth, tr) if records else (math.nan,) * 3
        wall = time.perf_counter() - t_pass
        return PassResult(wall, calls, {"records": records if index == 0 else None,
                                        "rows": len(series),
                                        "scores": (acc, fpr, delay)})

    def verify(self, passes: list[PassResult], tr, ledger: Ledger) -> dict:
        first = passes[0].outcome
        records = first.get("records", [])
        expected = int(round(REPLAY_SPAN_S / BATCH_S)) - self._first_eval_batch()
        ledger.check(len(records) == expected, f"{len(records)} verdicts, expected {expected}")
        acc, fpr, delay = first.get("scores", (math.nan,) * 3)
        hits = sum(r.verdict.drift == r.truth for r in records)
        negatives = [r for r in records if not r.truth]
        ledger.check(records and acc == hits / len(records), f"accuracy {acc} vs recount")
        ledger.check(fpr == sum(r.verdict.drift for r in negatives) / max(1, len(negatives)),
                     f"false-positive rate {fpr} vs recount")
        for later in passes[1:]:
            ledger.check(later.outcome.get("scores") == first.get("scores"),
                         "scores differ between passes")
        return {"accuracy": acc, "false_positive_rate": fpr, "detection_delay_s": delay,
                "rows": first.get("rows", 0), "batches": len(records)}

    def _first_eval_batch(self) -> int:
        fulfillment = self.truth.boundaries[1]
        return int(math.ceil(fulfillment.start_t / BATCH_S)) + TRAIN_BATCHES


WORKLOADS = {w.name: w for w in (Compare, Capture, Replay)}
