#!/usr/bin/env python3
"""Count the verdicts and scores that differ between two checkouts, model by model.

Each checkout runs the bench protocol on both presets for seeds 0-14 (the
runs of ``driftwatch bench --presets all --reps 15 --seed 0``) in its own
interpreter, with ``PYTHONPATH=<tree>/src``; the two run side by side.
Only verdicts are compared, so no record is replayed under allocation
tracing:

    python3 scripts/verdict_flips.py --parent PARENT_TREE --change CHANGE_TREE

Per model it prints the number of flipped verdicts, the paired per-run
difference (change minus parent) of accuracy and of false-positive rate:
the mean over the runs, and wins/losses/ties, where a win is a run the
change scores better on (higher accuracy, lower FPR), and the number of
records whose verdict score differs bit for bit.  A score can move without
a flip: the gap rules' scores depend on the silhouette search's k.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, help="checkout of the parent")
    p.add_argument("--change", type=Path, help="checkout of the change")
    p.add_argument("--models", default="all", help="comma-separated models (default all)")
    p.add_argument("--seeds", type=int, default=15, help="seeds 0..N-1 per preset (default 15)")
    p.add_argument("--collect", action="store_true",
                   help="print this interpreter's verdicts as JSON (run once per tree)")
    args = p.parse_args(argv)
    if not args.collect and (args.parent is None or args.change is None):
        p.error("--parent and --change are required")
    return args


def scenario_records(preset: str, seed: int, names) -> dict:
    """{model: records} of one bench run, as ``bench.run_scenario`` gives them
    but with no record replayed under allocation tracing (``allocated_bytes``
    is 0 throughout)."""
    from driftwatch.bench import BenchProtocol, _run_scenario
    from driftwatch.detectors import DriftDetector
    from driftwatch.scenario import PRESETS

    return _run_scenario(PRESETS[preset]().with_seed(seed),
                         {name: DriftDetector(name) for name in names},
                         BenchProtocol(), traced_records=0)[0]


def collect(models: str, seeds: int) -> dict:
    """{run: {model: {"drift": [...], "score": [...], "accuracy": a, "fpr": f}}}
    from the driftwatch on this interpreter's path, one run per preset and seed."""
    from driftwatch.bench import accuracy, false_positive_rate
    from driftwatch.detectors import MODEL_NAMES
    from driftwatch.scenario import PRESETS

    names = MODEL_NAMES if models == "all" else tuple(m.strip() for m in models.split(","))
    return {
        f"{preset}/{seed}": {
            name: {"drift": [r.verdict.drift for r in mine],
                   "score": [r.verdict.score for r in mine],
                   "accuracy": accuracy(mine), "fpr": false_positive_rate(mine)}
            for name, mine in scenario_records(preset, seed, names).items()
        }
        for preset in sorted(PRESETS)
        for seed in range(seeds)
    }


def verdicts(trees: list[Path], models: str, seeds: int) -> list[dict]:
    """``collect`` for each tree, run side by side by fresh interpreters that
    each import their tree's package."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--collect",
             "--models", models, "--seeds", str(seeds)],
            env={**os.environ, "PYTHONPATH": str(tree.resolve() / "src")},
            stdout=subprocess.PIPE, text=True,
        )
        for tree in trees
    ]
    outs = [proc.communicate()[0] for proc in procs]
    for tree, proc in zip(trees, procs):
        if proc.returncode:
            raise SystemExit(f"error: collecting verdicts in {tree} failed")
    return [json.loads(out) for out in outs]


def compare(parent: dict, change: dict) -> dict:
    """Per model: flipped verdicts, records whose score differs bit for bit,
    and the paired accuracy / FPR differences."""
    if parent.keys() != change.keys():
        raise SystemExit("error: the two trees ran different scenarios")
    out = {}
    for run, models in parent.items():
        for name, before in models.items():
            after = change[run][name]
            if len(after["drift"]) != len(before["drift"]):
                raise SystemExit(f"error: {name} on {run} judged a different number of batches")
            stats = out.setdefault(name, {"flips": 0, "scores": 0, "records": 0, "accuracy": [], "fpr": []})
            stats["flips"] += sum(a != b for a, b in zip(before["drift"], after["drift"]))
            stats["scores"] += sum(float(a).hex() != float(b).hex()
                                   for a, b in zip(before["score"], after["score"]))
            stats["records"] += len(before["drift"])
            stats["accuracy"].append(after["accuracy"] - before["accuracy"])
            stats["fpr"].append(after["fpr"] - before["fpr"])
    for stats in out.values():
        for metric, sign in (("accuracy", 1), ("fpr", -1)):
            diffs = stats[metric]
            stats[metric] = {
                "mean": sum(diffs) / len(diffs),
                "wins": sum(sign * d > 0 for d in diffs),
                "losses": sum(sign * d < 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
            }
    return out


def render(table: dict) -> str:
    lines = [f"{'model':<14}{'flips':>12}  {'accuracy diff (w/l/t)':>26}  {'fpr diff (w/l/t)':>26}"
             f"  {'scores changed':>14}"]
    for name, s in table.items():
        cells = [f"{s[m]['mean']:+.4f} ({s[m]['wins']}/{s[m]['losses']}/{s[m]['ties']})"
                 for m in ("accuracy", "fpr")]
        lines.append(f"{name:<14}{s['flips']:>6}/{s['records']:<5}  {cells[0]:>26}  {cells[1]:>26}"
                     f"  {s['scores']:>8}/{s['records']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.collect:
        print(json.dumps(collect(args.models, args.seeds)))
        return 0
    table = compare(*verdicts([args.parent, args.change], args.models, args.seeds))
    print(render(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
