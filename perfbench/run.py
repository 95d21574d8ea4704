#!/usr/bin/env python3
"""driftwatch benchmark.

    python3 perfbench/run.py --workload {compare,capture,replay} --seed N \\
        --seconds T --trace {0,1}

Run it from the root of a driftwatch checkout; it imports driftwatch from the
checkout's ``src/`` and writes only under ``.perfbench-out/``.  Every metric
is printed as ``name = value unit`` on its own line, and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json`` (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).

This process only orchestrates.  The workload runs in a fresh child process,
so its ``ru_maxrss`` is the workload's own peak; set-up time is measured from
the spawn of a fresh process to its first timed call, in that child and in
four more that only set up, and the median is reported.  Children run one at
a time with OpenBLAS pinned to one thread.  See README.md for the workloads
and the metric predictions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NO_TRACE

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("compare", "capture", "replay")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="driftwatch benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--worker", choices=("setup", "run"), help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

def main(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "driftwatch" / "__init__.py").is_file():
        print(f"error: {root} is not a driftwatch checkout (no src/driftwatch)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}
    deadline = time.monotonic() + DEADLINE_S

    setup_samples = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setup_samples.append(_spawn(args, "setup", run_dir / f"setup-{i}", env, deadline)["setup_s"])
    result = _spawn(args, "run", run_dir / "run", env, deadline)
    if not args.trace:
        setup_samples.append(result["setup_s"])
        result["metrics"]["setup_s"] = [statistics.median(setup_samples), "s",
                                        f"median of {len(setup_samples)} fresh-process set-ups"]

    print(f"# driftwatch benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in result["environment"].items():
        print(f"# env {key} = {value}")
    for name, (value, unit, *note) in result["metrics"].items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}" + (f"  ({note[0]})" if note else ""))
    for problem in result["problems"]:
        print(f"# problem: {problem}")

    metrics = {}
    for entry in wanted:
        value = result["metrics"].get(entry["name"], [None])[0]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"error: metric {entry['name']} was not measured ({value!r})", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def _spawn(args, role: str, out: Path, env: dict, deadline: float) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--worker", role, "--out", str(out)]
    remaining = deadline - time.monotonic()
    # The child prints nothing that belongs in the result; keep our stdout for it.
    proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], env=env,
                          stdout=sys.stderr, timeout=max(1.0, remaining))
    if proc.returncode != 0:
        raise SystemExit(f"error: {role} worker exited with code {proc.returncode}")
    return json.loads((out / "worker.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Worker: one fresh process per set-up sample and per run
# ---------------------------------------------------------------------------

def worker(args: argparse.Namespace) -> int:
    root = Path.cwd()
    import driftwatch
    import numpy as np

    if not Path(driftwatch.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"error: imported driftwatch from {driftwatch.__file__}, not {root / 'src'}")
    import layers
    from workloads import WORKLOADS, Ledger

    out = Path(args.out)
    if args.worker == "setup" or not args.trace:
        workload = WORKLOADS[args.workload](args.seed, out / "work")
        workload.setup(NO_TRACE)
        setup_s = time.monotonic() - args.spawned_at
        if args.worker == "setup":
            return _write(out, {"setup_s": setup_s})
        ledger = Ledger()
        metrics = _untraced(workload, ledger, args.seconds)
        seeds = workload.seeds
    else:
        setup_s = None
        layer_metrics, ledger, tracer = layers.traced_run(
            args.workload, args.seed, out / "work", run_id=f"{args.workload}-{args.seed}")
        tracer.write(out / "spans.jsonl")
        metrics = {name: list(entry) for name, entry in layer_metrics.items()}
        seeds = {name: cls(args.seed, out).seeds for name, cls in WORKLOADS.items()}
        seeds["sweep scenario seed"] = layers.sweep_seed(args.seed)

    environment = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{k: os.environ.get(k) for k in THREAD_ENV},
        "threads_in_workload_process": _thread_count(),
        "DRIFTWATCH_SEED": f"{os.environ.get('DRIFTWATCH_SEED')!r} (not read: seeds are passed explicitly)",
        "seeds": json.dumps(seeds),
    }
    return _write(out, {"setup_s": setup_s, "metrics": metrics, "environment": environment,
                        "correct": ledger.correct, "attempted": ledger.attempted,
                        "failed": ledger.failed, "problems": ledger.problems})


def _untraced(workload, ledger, seconds: float) -> dict[str, list]:
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(NO_TRACE, ledger, len(passes)))
        if len(passes) == 1:  # later passes and the checks may add heap, not workload
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1].wall_s > seconds:
            break
    quality = workload.verify(passes, NO_TRACE, ledger)
    # Timings are taken from the fastest pass.  On a shared host the machine
    # slows down for tens of seconds at a time; the fastest of several
    # identical passes is far steadier than their median.
    walls = [p.wall_s for p in passes]
    fastest = passes[walls.index(min(walls))]
    note = f"fastest of {len(walls)} pass(es): " + " ".join(f"{w:.3f}" for w in walls)
    m = {
        "wall_s": [fastest.wall_s, "s", note],
        "peak_rss_mib": [peak_rss, "MiB", "ru_maxrss of this fresh process after set-up "
                         "and its first pass"],
    }
    if workload.name == "capture":
        per_model = [statistics.median(v) for v in fastest.calls.values()]
        m["detect_s_geomean"] = [_geomean(per_model), "s",
                                 "geometric mean over models of the median detect; fastest pass"]
    if workload.name == "replay":
        m["batches_per_s"] = [quality.get("batches", 0) / fastest.wall_s, "1/s", note]
        evaluates = [c for p in passes for c in p.calls["evaluate"]]
        for q in (50, 99):
            cut = statistics.quantiles(evaluates, n=100, method="inclusive")[q - 1]
            m[f"verdict_ms_p{q}"] = [cut * 1e3, "ms", f"all {len(evaluates)} evaluates"]
    for key, unit in (("accuracy", "fraction"), ("false_positive_rate", "fraction"),
                      ("detection_delay_s", "s")):
        if key in quality:
            m[key] = [quality[key], unit]
    m["failed_share"] = [ledger.failed / max(1, ledger.attempted), "fraction",
                         f"{ledger.failed} of {ledger.attempted} operations"]
    m["verdict_digest"] = [ledger.digest, "sha256/16"]
    return m


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _write(out: Path, payload: dict) -> int:
    (out / "worker.json").write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    cli_args = parse_args()
    if cli_args.worker:
        sys.exit(worker(cli_args))
    try:
        sys.exit(main(cli_args))
    except subprocess.TimeoutExpired as exc:
        print(f"error: worker did not finish within {exc.timeout:.0f} s", file=sys.stderr)
        sys.exit(1)
