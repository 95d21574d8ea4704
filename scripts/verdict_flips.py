#!/usr/bin/env python3
"""Count the verdicts and scores that differ between two checkouts, model by model.

Each checkout runs the bench protocol on both presets for seeds 0-14 (the
runs of ``driftwatch bench --presets all --reps 15 --seed 0``) in its own
interpreter, with ``PYTHONPATH=<tree>/src``; the two run side by side.
Only verdicts are compared, so no record is replayed under allocation
tracing.  Each checkout also makes capture-shaped runs for the same seeds:
a fit on a 500-point training capture and four 18-point drift batches,
the shape of ``detect`` on a long capture, whose n = 500 silhouette search
the bench protocol's fits on 90 points never reach:

    python3 scripts/verdict_flips.py --parent PARENT_TREE --change CHANGE_TREE

Per model it prints the number of flipped verdicts, the paired per-run
difference (change minus parent) of accuracy and of false-positive rate:
the mean over the runs, and wins/losses/ties, where a win is a run the
change scores better on (higher accuracy, lower FPR), and the number of
records whose verdict score differs bit for bit.  A score can move without
a flip: the gap rules' scores depend on the silhouette search's k.  The
capture-shaped runs get a second table of the same columns; their batches
all lie in the drift phase, so a drift verdict is correct.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

#: Drift batches judged per capture-shaped run; the rest of the shape comes
#: from perfbench/workloads.py, beside this script.
CAPTURE_BATCHES = 4
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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


@functools.cache
def workloads():
    """perfbench/workloads.py, loaded against the driftwatch on this
    interpreter's path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules["perfbench_workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def capture_verdicts(seed: int, names) -> dict:
    """{model: verdicts} of one capture-shaped run, cut as the perfbench
    capture workload cuts it, with its ``capture_spec`` and constants: the
    qos preset's fulfillment phase, shortened to ``CAPTURE_TRAIN_S``, then
    its drift phase.  Each model is fitted on the training capture and judges
    ``CAPTURE_BATCHES`` consecutive batches from ``CAPTURE_TEST_OFFSET_S``
    into the drift phase.  Both trees load the same workloads file, so they
    judge the same shape."""
    from driftwatch.detectors import DriftDetector
    from driftwatch.scenario import generate

    wl = workloads()
    series, _ = generate(wl.capture_spec(seed))
    t, v = series.times(), series.values()
    first = wl.CAPTURE_TRAIN_S + wl.CAPTURE_TEST_OFFSET_S
    starts = [first + wl.BATCH_S * i for i in range(CAPTURE_BATCHES)]
    batches = [v[(t >= lo) & (t < lo + wl.BATCH_S)] for lo in starts]
    out = {}
    for name in names:
        det = DriftDetector(name).fit(v[t < wl.CAPTURE_TRAIN_S])
        out[name] = [det.evaluate(batch) for batch in batches]
    return out


def collect(models: str, seeds: int) -> dict:
    """{"bench": runs, "capture": runs} from the driftwatch on this
    interpreter's path, each of runs {run: {model: {"drift": [...],
    "score": [...], "accuracy": a, "fpr": f}}}: one bench run per preset and
    seed, and one capture-shaped run per seed."""
    from driftwatch.bench import accuracy, false_positive_rate
    from driftwatch.detectors import MODEL_NAMES
    from driftwatch.scenario import PRESETS

    names = MODEL_NAMES if models == "all" else tuple(m.strip() for m in models.split(","))
    bench = {
        f"{preset}/{seed}": {
            name: {"drift": [r.verdict.drift for r in mine],
                   "score": [r.verdict.score for r in mine],
                   "accuracy": accuracy(mine), "fpr": false_positive_rate(mine)}
            for name, mine in scenario_records(preset, seed, names).items()
        }
        for preset in sorted(PRESETS)
        for seed in range(seeds)
    }
    capture = {
        f"capture/{seed}": {
            name: {"drift": [v.drift for v in mine], "score": [v.score for v in mine],
                   "accuracy": sum(v.drift for v in mine) / len(mine), "fpr": 0.0}
            for name, mine in capture_verdicts(seed, names).items()
        }
        for seed in range(seeds)
    }
    return {"bench": bench, "capture": capture}


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
    parent, change = verdicts([args.parent, args.change], args.models, args.seeds)
    print(render(compare(parent["bench"], change["bench"])))
    print("\ncapture-shaped runs (500-point fit, four 18-point drift batches per seed)")
    print(render(compare(parent["capture"], change["capture"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
