"""Command-line front end: generate, detect, replay, bench.

Machine-consumable output is always single-line JSON on stdout; human tables
go to stderr.  Exit codes: 0 success (or no drift for ``detect``), 1 drift
detected (``detect`` only), 2 on any error.  The ``DRIFTWATCH_SEED``
environment variable overrides default seeds when no --seed flag is given.
Each subparser names its handler as ``run``; the detector flags are built
from the knob fields of :class:`~driftwatch.detectors.DriftDetector`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from .bench import (
    BenchProtocol,
    compare_models,
    emit_report,
    protocol_steps,
    run_record,
    score_run,
    training_window,
)
from .detectors import MODEL_NAMES, DriftDetector, ModelType, verdict_record
from .scenario import PRESETS, GroundTruth, ScenarioSpec, generate
from .telemetry import Series, batchify, ingest_csv, render_csv
from .validation import to_doc

#: (flag, field) of every detector knob, the DriftDetector fields with help text.
_KNOBS = tuple((f.metadata["flag"] or "--" + f.name.replace("_", "-"), f)
               for f in fields(DriftDetector) if "help" in f.metadata)


def _add_detector_flags(sp: argparse.ArgumentParser) -> None:
    for flag, f in _KNOBS:
        models = "/".join(m.value for m in f.metadata["models"])
        shown = "" if f.default is None else f" (default {f.default})"
        sp.add_argument(flag, dest=f.name, type=float if f.default is None else type(f.default),
                        default=None, help=f"{models} {f.metadata['help']}{shown}")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed (default 0, or DRIFTWATCH_SEED); no detector draws random "
                         "numbers, so only bench uses it, as its first scenario seed")


def _detector_params(args: argparse.Namespace) -> dict:
    params = {f.name: v for _, f in _KNOBS if (v := getattr(args, f.name)) is not None}
    params["seed"] = _resolve_seed(args, fallback=0)
    return params


def _resolve_seed(args: argparse.Namespace, fallback: int | None) -> int | None:
    """--seed, else DRIFTWATCH_SEED when set and not empty, else fallback."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("DRIFTWATCH_SEED")
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DRIFTWATCH_SEED must be an integer, got {raw!r}") from None


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _load_series(path: str) -> Series:
    with open(path, "rb") as fh:
        return ingest_csv(fh, meta=Path(path).name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftwatch",
        description="Detect gradual drift of an enforced network intent from throughput telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    protocol = BenchProtocol()  # the replay and bench protocol defaults

    gen = sub.add_parser("generate", help="generate a synthetic intent-lifecycle capture")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario preset")
    src.add_argument("--spec", help="path to a scenario JSON document")
    gen.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    gen.add_argument("--out", required=True, help="output base path (writes <out>.csv and <out>.truth.json)")
    gen.set_defaults(run=_cmd_generate)

    det = sub.add_parser("detect", help="single-shot drift detection on two captures")
    det.add_argument("--model", required=True, choices=MODEL_NAMES)
    det.add_argument("--train", required=True, help="training capture CSV")
    det.add_argument("--test", required=True, help="test capture CSV")
    det.add_argument("--pretty", action="store_true", help="also print a human summary to stderr")
    _add_detector_flags(det)
    det.set_defaults(run=_cmd_detect)

    rep = sub.add_parser("replay", help="stream batch verdicts over a capture")
    rep.add_argument("--model", required=True, choices=MODEL_NAMES)
    rep.add_argument("--csv", required=True, help="capture CSV to replay")
    rep.add_argument("--truth", default=None, help="ground-truth JSON for scoring")
    rep.add_argument("--batch-len", type=float, default=protocol.batch_len)
    rep.add_argument("--stride", type=float, default=None,
                     help="batch stride, at least the batch length (default: batch length)")
    rep.add_argument("--train-batches", type=int, default=protocol.train_window_batches)
    _add_detector_flags(rep)
    rep.set_defaults(run=_cmd_replay)

    ben = sub.add_parser("bench", help="run the full model comparison over scenario presets")
    ben.add_argument("--models", default="all", help="comma-separated model names or 'all'")
    ben.add_argument("--presets", default="all", help="comma-separated preset names or 'all'")
    ben.add_argument("--reps", type=int, default=5, help="repetition seeds per scenario")
    ben.add_argument("--out", required=True, help="report output directory")
    ben.add_argument("--train-batches", type=int, default=protocol.train_window_batches)
    ben.add_argument("--batch-len", type=float, default=protocol.batch_len)
    ben.add_argument("--refit-every", type=int, default=protocol.refit_every)
    _add_detector_flags(ben)
    ben.set_defaults(run=_cmd_bench)
    return parser


_main_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.preset is not None:
        spec = PRESETS[args.preset]()
    else:
        spec = ScenarioSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    seed = _resolve_seed(args, fallback=None)
    if seed is not None:
        spec = spec.with_seed(seed)
    series, truth = generate(spec)

    csv_path = Path(args.out + ".csv")
    truth_path = Path(args.out + ".truth.json")
    with csv_path.open("w", encoding="utf-8") as fh:
        render_csv(series, fh)
    doc = {**truth.to_dict(), "intent_tag": spec.intent_tag, "seed": spec.seed}
    truth_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    _emit(
        {
            "event": "generated",
            "csv": str(csv_path),
            "truth": str(truth_path),
            "samples": len(series),
            "seed": spec.seed,
            "intent_tag": spec.intent_tag,
        }
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    train = _load_series(args.train)
    test = _load_series(args.test)
    detector = DriftDetector(model=args.model, **_detector_params(args))
    t0 = time.perf_counter()
    verdict = detector.fit(train.values()).evaluate(test.values())
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    record = verdict_record(
        args.model,
        verdict,
        t_start=float(test.times()[0]),
        t_end=float(test.times()[-1]),
        elapsed_ms=elapsed_ms,
    )
    _emit(record)
    if args.pretty:
        state = "DRIFT" if verdict.drift else "no drift"
        print(f"{args.model}: {state} (score {verdict.score:.4f}) - {verdict.detail}", file=sys.stderr)
    return 1 if verdict.drift else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    series = _load_series(args.csv)
    stride = args.stride if args.stride is not None else args.batch_len
    if stride < args.batch_len:  # overlapping batches would share samples with the training window
        raise ValueError(f"--stride {stride} must be >= --batch-len {args.batch_len}")
    batches = batchify(series, args.batch_len, stride)
    if not batches:
        raise ValueError(
            f"batch length {args.batch_len} does not fit inside the capture span"
        )
    truth = None
    if args.truth is not None:
        truth = GroundTruth.from_json(Path(args.truth).read_text(encoding="utf-8"))
    protocol = BenchProtocol(train_window_batches=args.train_batches, batch_len=args.batch_len)
    train_idx = training_window(batches, truth, protocol.train_window_batches)

    model = ModelType.coerce(args.model)
    detector = DriftDetector(model=args.model, **_detector_params(args))
    records = []
    for bi, batch, verdict, _, seconds in protocol_steps(detector, batches, train_idx, protocol):
        _emit(
            verdict_record(
                args.model, verdict,
                t_start=batch.start_t, t_end=batch.end_t, elapsed_ms=seconds * 1000.0,
            )
        )
        if truth is not None:
            records.append(run_record(model, bi, batch, verdict, truth, seconds))
    if truth is not None:
        # JSON has no infinity: a drift never detected has a null delay
        _emit({"summary": {"records": len(records), **to_doc(score_run(records, truth))}})
    return 0


def _names(arg: str, available: Sequence[str], what: str) -> tuple[str, ...]:
    """The names in a comma-separated list, or every available one for
    'all'; an unknown or repeated name raises ValueError."""
    if arg == "all":
        return tuple(available)
    names = tuple(name.strip() for name in arg.split(",") if name.strip())
    for i, name in enumerate(names):
        if name not in available or name in names[:i]:
            problem = "repeated" if name in available else "unknown"
            raise ValueError(f"{problem} {what} {name!r}; available: {', '.join(available)}")
    return names


def _cmd_bench(args: argparse.Namespace) -> int:
    model_names = _names(args.models, MODEL_NAMES, "model")
    preset_names = _names(args.presets, sorted(PRESETS), "preset")

    params = _detector_params(args)
    detectors = {name: DriftDetector(model=name, **params) for name in model_names}
    scenarios = {name: PRESETS[name]() for name in preset_names}
    protocol = BenchProtocol(
        train_window_batches=args.train_batches,
        refit_every=args.refit_every,
        batch_len=args.batch_len,
    )
    seed_base = _resolve_seed(args, fallback=0)
    report = compare_models(scenarios, detectors, repetitions=args.reps,
                            seed_base=seed_base, protocol=protocol)
    paths = emit_report(report, args.out)

    _emit(
        {
            "event": "report",
            "out": str(args.out),
            "files": [str(p) for p in paths],
            "total_runs": report.total_runs,
            "rankings": report.rankings,
            "calibration_warnings": report.calibration_warnings,
        }
    )
    _print_ranking_table(report, file=sys.stderr)
    return 0


def _print_ranking_table(report, file) -> None:
    print(f"{'model':<14}{'accuracy':>10}{'fpr':>8}{'delay_s':>10}{'compute_s':>12}{'peak_bytes':>14}", file=file)
    order = report.rankings["accuracy"]
    for name in order:
        s = report.per_model[name]
        delay = "inf" if math.isinf(s.avg_detection_delay) else f"{s.avg_detection_delay:.1f}"
        print(
            f"{name:<14}{s.accuracy:>10.3f}{s.false_positive_rate:>8.3f}{delay:>10}"
            f"{s.avg_compute_time:>12.5f}{s.peak_memory_bytes:>14}",
            file=file,
        )
    for warning in report.calibration_warnings:
        print(f"WARNING: {warning}", file=file)


if __name__ == "__main__":
    run()
