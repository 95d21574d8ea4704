import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "verdict_flips.py"
spec = importlib.util.spec_from_file_location("verdict_flips", SCRIPT)
verdict_flips = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verdict_flips)


def run(drift, truth):
    hits = sum(d == t for d, t in zip(drift, truth))
    negatives = [d for d, t in zip(drift, truth) if not t]
    return {"drift": drift, "accuracy": hits / len(drift),
            "fpr": sum(negatives) / len(negatives) if negatives else 0.0}


def test_same_tree_has_no_flips(capsys):
    assert verdict_flips.main(["--parent", str(ROOT), "--change", str(ROOT),
                               "--models", "greedy", "--seeds", "1"]) == 0
    model, flips, accuracy, record = capsys.readouterr().out.splitlines()[1].split()[:4]
    assert model == "greedy" and flips.startswith("0/")
    assert (accuracy, record) == ("+0.0000", "(0/0/2)")  # one seed on each of the two presets


def test_a_synthetic_flip_is_counted():
    truth = [False, False, True, True]
    parent = {"qos/0": {"kmeans": run([False, True, True, True], truth)},
              "qos/1": {"kmeans": run([False, False, True, True], truth)}}
    change = {"qos/0": {"kmeans": run([False, False, True, True], truth)},
              "qos/1": {"kmeans": run([False, False, True, True], truth)}}
    stats = verdict_flips.compare(parent, change)["kmeans"]
    assert stats["flips"] == 1 and stats["records"] == 8
    assert stats["accuracy"] == {"mean": pytest.approx(0.125), "wins": 1, "losses": 0, "ties": 1}
    assert stats["fpr"] == {"mean": pytest.approx(-0.25), "wins": 1, "losses": 0, "ties": 1}
    # the same runs compared the other way round lose where they won
    back = verdict_flips.compare(change, parent)["kmeans"]
    assert back["flips"] == 1 and back["accuracy"]["losses"] == 1 and back["fpr"]["losses"] == 1
