#!/usr/bin/env python3
"""Write a BENCH_<n>.json file from traced perfbench runs of a parent and a change.

Run the same traced workload in the parent checkout and in the changed one,

    python3 perfbench/run.py --workload compare --seed 1 --seconds 30 --trace 1

then compare the ``result.json`` files it leaves under ``.perfbench-out/``:

    python3 scripts/bench_delta.py \\
        --parent PARENT/.perfbench-out/compare-seed1-trace1/result.json \\
        --change CHANGE/.perfbench-out/compare-seed1-trace1/result.json --out BENCH_4.json \\
        --command "python3 perfbench/run.py --workload compare --seed 1 --seconds 30 --trace 1" \\
        --basis "one traced run per side, back to back on the same machine" \\
        --metric 'cluster.best_k_silhouette.*' --metric bench.compare_models.self_s

Each selected metric gets its unit, the parent and change values, and
``speedup``: parent / change where lower is better, change / parent where
higher is better, as BENCHMARK.json declares it.  ``--parent`` and
``--change`` may repeat (copy the result.json of each run aside first: a new
run overwrites it); each side's value is then the median over its runs.
``--metric`` takes shell patterns and may repeat; without it every per-layer
metric is written.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, action="append",
                   help="result.json of a traced run of the parent")
    p.add_argument("--change", required=True, type=Path, action="append",
                   help="result.json of a traced run of the change")
    p.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    p.add_argument("--command", required=True, help="the perfbench command both runs used")
    p.add_argument("--basis", required=True, help="how the runs were taken")
    p.add_argument("--metric", action="append", default=[], help="metric name pattern")
    return p.parse_args(argv)


def machine(environment: dict) -> str:
    threads = ", ".join(f"{k}={environment.get(k)}" for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"{environment.get('nproc')} CPUs, Python {environment.get('python')}, "
            f"numpy {environment.get('numpy')}, {threads}")


def delta(parent: list[dict], change: list[dict], declared: list[dict], patterns: list[str]) -> dict:
    """{metric: {unit, parent, change, speedup}} in BENCHMARK.json order, from
    each side's per-run metrics {name: [value, unit, ...]}."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if patterns and not any(fnmatch.fnmatchcase(name, p) for p in patterns):
            continue
        if any(name not in run for run in parent + change):
            raise SystemExit(f"error: metric {name} is missing from one of the runs")
        before = statistics.median(run[name][0] for run in parent)
        after = statistics.median(run[name][0] for run in change)
        ratio = before / after if entry["better"] == "lower" else after / before
        out[name] = {"unit": entry["unit"], "parent": round(before, 3),
                     "change": round(after, 3), "speedup": round(ratio, 2)}
    if patterns and not out:
        raise SystemExit(f"error: no per-layer metric matches {patterns}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    parent = [json.loads(path.read_text(encoding="utf-8")) for path in args.parent]
    change = [json.loads(path.read_text(encoding="utf-8")) for path in args.change]
    report = {
        "command": args.command,
        "machine": machine(change[0]["environment"]),
        "basis": args.basis,
        "metrics": delta([r["metrics"] for r in parent], [r["metrics"] for r in change],
                         declared, args.metric),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
