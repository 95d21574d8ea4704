import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "verdict_flips.py"
spec = importlib.util.spec_from_file_location("verdict_flips", SCRIPT)
verdict_flips = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verdict_flips)


def run(drift, truth, score=None):
    hits = sum(d == t for d, t in zip(drift, truth))
    negatives = [d for d, t in zip(drift, truth) if not t]
    score = [1.0 if d else -1.0 for d in drift] if score is None else score
    return {"drift": drift, "score": score, "accuracy": hits / len(drift),
            "fpr": sum(negatives) / len(negatives) if negatives else 0.0}


def test_same_tree_has_no_flips(capsys):
    assert verdict_flips.main(["--parent", str(ROOT), "--change", str(ROOT),
                               "--models", "greedy", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith("capture-shaped runs") and len(lines) == 6
    # one seed on each of the two presets, and one capture-shaped run of four batches
    for row, runs, records in ((lines[1].split(), 2, None), (lines[5].split(), 1, "4")):
        model, flips, accuracy, record = row[:4]
        assert model == "greedy" and flips.startswith("0/")
        assert records is None or flips == "0/" + records
        assert row[-1] == "0/" + flips.split("/")[1]  # no score changed either
        assert (accuracy, record) == ("+0.0000", f"(0/0/{runs})")


def test_capture_runs_fit_500_points_and_judge_four_drift_batches(monkeypatch):
    from driftwatch.detectors import DriftDetector

    calls = []
    fit, evaluate = DriftDetector.fit, DriftDetector.evaluate
    monkeypatch.setattr(DriftDetector, "fit", lambda det, x: calls.append(("fit", len(x))) or fit(det, x))
    monkeypatch.setattr(DriftDetector, "evaluate",
                        lambda det, x: calls.append(("evaluate", len(x))) or evaluate(det, x))
    verdicts = verdict_flips.capture_verdicts(0, ["kmeans", "greedy"])
    assert list(verdicts) == ["kmeans", "greedy"]
    assert all(len(mine) == 4 for mine in verdicts.values())
    assert calls == 2 * ([("fit", 500)] + 4 * [("evaluate", 18)])


def test_a_synthetic_flip_is_counted():
    truth = [False, False, True, True]
    parent = {"qos/0": {"kmeans": run([False, True, True, True], truth)},
              "qos/1": {"kmeans": run([False, False, True, True], truth)}}
    change = {"qos/0": {"kmeans": run([False, False, True, True], truth)},
              "qos/1": {"kmeans": run([False, False, True, True], truth)}}
    stats = verdict_flips.compare(parent, change)["kmeans"]
    assert stats["flips"] == 1 and stats["records"] == 8 and stats["scores"] == 1
    assert stats["accuracy"] == {"mean": pytest.approx(0.125), "wins": 1, "losses": 0, "ties": 1}
    assert stats["fpr"] == {"mean": pytest.approx(-0.25), "wins": 1, "losses": 0, "ties": 1}
    # the same runs compared the other way round lose where they won
    back = verdict_flips.compare(change, parent)["kmeans"]
    assert back["flips"] == 1 and back["accuracy"]["losses"] == 1 and back["fpr"]["losses"] == 1


def test_collected_records_are_run_scenarios_without_allocation_tracing():
    from driftwatch.bench import run_scenario
    from driftwatch.detectors import MODEL_NAMES, DriftDetector
    from driftwatch.scenario import PRESETS

    mine = verdict_flips.scenario_records("qos", 0, MODEL_NAMES)
    traced = run_scenario(PRESETS["qos"]().with_seed(0), {name: DriftDetector(name) for name in MODEL_NAMES})
    assert list(mine) == list(MODEL_NAMES)
    for name, records in mine.items():
        expected = [r for r in traced if r.model.value == name]
        assert [(r.batch_index, r.verdict) for r in records] == [(r.batch_index, r.verdict) for r in expected]
        assert all(r.allocated_bytes == 0 for r in records)
        assert any(r.allocated_bytes > 0 for r in expected)  # run_scenario does trace them


def test_a_score_change_without_a_flip_is_counted():
    truth = [False, True]
    parent = {"qos/0": {"gmm": run([False, True], truth, [-0.5, 0.25]),
                        "greedy": run([False, True], truth, [-0.0, 1.0])}}
    change = {"qos/0": {"gmm": run([False, True], truth, [-0.5, 0.25 + 2 ** -54]),
                        "greedy": run([False, True], truth, [0.0, 1.0])}}
    table = verdict_flips.compare(parent, change)
    assert (table["gmm"]["flips"], table["gmm"]["scores"]) == (0, 1)  # one ulp apart
    assert (table["greedy"]["flips"], table["greedy"]["scores"]) == (0, 1)  # -0.0 is not 0.0, bit for bit
    assert table["gmm"]["accuracy"]["ties"] == 1
    assert verdict_flips.render(table).splitlines()[1].split()[-1] == "1/2"
