"""Command-line front end: generate, detect, replay, bench.

Machine-consumable output is always single-line JSON on stdout; human tables
go to stderr.  Exit codes: 0 success (or no drift for ``detect``), 1 drift
detected (``detect`` only), 2 on any error.  The ``DRIFTWATCH_SEED``
environment variable overrides default seeds when no --seed flag is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

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

_DETECTOR_FLAGS = (
    # (flag, param, type, help)
    ("--multiplier", "multiplier", float, "kmeans/gmm gap multiplier (default 2.0)"),
    ("--margin", "margin", float, "greedy headroom margin (default 0.25)"),
    ("--min-pts", "min_pts", int, "dbscan neighborhood population (default 4)"),
    ("--eps-factor", "eps_factor", float, "dbscan eps = factor * train std (default 1.0)"),
    ("--threshold-fraction", "threshold_fraction", float,
     "hierarchical threshold as a fraction of the train mean (default 0.1)"),
    ("--linkage", "linkage", str, "hierarchical linkage: single|complete|average (default average)"),
    ("--min-samples", "min_samples", int, "optics minimum samples (default 3)"),
    ("--min-cluster-size", "min_cluster_size", int, "optics minimum cluster size (default 3)"),
    ("--max-eps", "max_eps", float, "optics neighborhood cap (default unbounded)"),
    ("--cut-quantile", "cut_quantile", float, "optics reachability cut quantile (default 0.75)"),
    ("--nu", "nu", float, "ocsvm nu in (0, 1] (default 0.1)"),
    ("--gamma", "gamma_override", float, "ocsvm RBF gamma (default 1/(2*train var))"),
    ("--damping", "damping", float, "affinity propagation damping (default 0.9)"),
    ("--ap-multiplier", "ap_multiplier", float, "affinity cluster-count multiplier (default 1.0)"),
    ("--ap-preference", "ap_preference_override", float,
     "affinity preference (default: lowest pairwise train similarity)"),
    ("--ap-max-iter", "ap_max_iter", int, "affinity message-passing iteration cap (default 500)"),
    ("--ap-convergence-iter", "ap_convergence_iter", int,
     "affinity sweeps with a stable exemplar set before convergence (default 15)"),
    ("--k-max", "k_max", int, "silhouette search upper bound (default 8)"),
)


def _add_detector_flags(sp: argparse.ArgumentParser) -> None:
    for flag, param, typ, help_text in _DETECTOR_FLAGS:
        sp.add_argument(flag, dest=param, type=typ, default=None, help=help_text)
    sp.add_argument("--seed", type=int, default=None,
                    help="seed (default 0, or DRIFTWATCH_SEED); no detector draws random "
                         "numbers, so only bench uses it, as its first scenario seed")


def _detector_params(args: argparse.Namespace) -> dict:
    params = {}
    for _, param, _, _ in _DETECTOR_FLAGS:
        value = getattr(args, param, None)
        if value is not None:
            params[param] = value
    params["seed"] = _resolve_seed(args, fallback=0)
    return params


def _env_seed() -> int | None:
    raw = os.environ.get("DRIFTWATCH_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DRIFTWATCH_SEED must be an integer, got {raw!r}") from None


def _resolve_seed(args: argparse.Namespace, fallback: int | None) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = _env_seed()
    if env is not None:
        return env
    return fallback


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

    gen = sub.add_parser("generate", help="generate a synthetic intent-lifecycle capture")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario preset")
    src.add_argument("--spec", help="path to a scenario JSON document")
    gen.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    gen.add_argument("--out", required=True, help="output base path (writes <out>.csv and <out>.truth.json)")

    det = sub.add_parser("detect", help="single-shot drift detection on two captures")
    det.add_argument("--model", required=True, choices=MODEL_NAMES)
    det.add_argument("--train", required=True, help="training capture CSV")
    det.add_argument("--test", required=True, help="test capture CSV")
    det.add_argument("--pretty", action="store_true", help="also print a human summary to stderr")
    _add_detector_flags(det)

    rep = sub.add_parser("replay", help="stream batch verdicts over a capture")
    rep.add_argument("--model", required=True, choices=MODEL_NAMES)
    rep.add_argument("--csv", required=True, help="capture CSV to replay")
    rep.add_argument("--truth", default=None, help="ground-truth JSON for scoring")
    rep.add_argument("--batch-len", type=float, default=9.0)
    rep.add_argument("--stride", type=float, default=None, help="batch stride (default: batch length)")
    rep.add_argument("--train-batches", type=int, default=5)
    _add_detector_flags(rep)

    ben = sub.add_parser("bench", help="run the full model comparison over scenario presets")
    ben.add_argument("--models", default="all", help="comma-separated model names or 'all'")
    ben.add_argument("--presets", default="all", help="comma-separated preset names or 'all'")
    ben.add_argument("--reps", type=int, default=5, help="repetition seeds per scenario")
    ben.add_argument("--out", required=True, help="report output directory")
    ben.add_argument("--train-batches", type=int, default=5)
    ben.add_argument("--batch-len", type=float, default=9.0)
    ben.add_argument("--refit-every", type=int, default=0)
    _add_detector_flags(ben)
    return parser


_main_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise AssertionError(f"unhandled command {args.command}")
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
    doc = truth.to_dict()
    doc["intent_tag"] = spec.intent_tag
    doc["seed"] = spec.seed
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
    for bi, verdict, _, seconds in protocol_steps(detector, batches, train_idx, protocol):
        batch = batches[bi]
        _emit(
            verdict_record(
                args.model, verdict,
                t_start=batch.start_t, t_end=batch.end_t, elapsed_ms=seconds * 1000.0,
            )
        )
        if truth is not None:
            records.append(run_record(model, batches, bi, verdict, truth, seconds))
    if truth is not None:
        # JSON has no infinity: a drift never detected has a null delay
        scores = {k: None if math.isinf(v) else v for k, v in score_run(records, truth).items()}
        _emit({"summary": {"records": len(records), **scores}})
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    model_names = MODEL_NAMES if args.models == "all" else tuple(
        name.strip() for name in args.models.split(",") if name.strip()
    )
    preset_names = tuple(sorted(PRESETS)) if args.presets == "all" else tuple(
        name.strip() for name in args.presets.split(",") if name.strip()
    )
    for name in preset_names:
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")

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
