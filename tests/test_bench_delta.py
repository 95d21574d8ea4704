import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_delta.py"
spec = importlib.util.spec_from_file_location("bench_delta", SCRIPT)
bench_delta = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_delta)

ENVIRONMENT = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def write_run(path: Path, metrics: dict) -> Path:
    path.write_text(json.dumps({"metrics": metrics, "environment": ENVIRONMENT}))
    return path


def test_writes_parent_change_and_speedup(tmp_path):
    parent = write_run(tmp_path / "parent.json", {
        "cluster.best_k_silhouette.n18.ms": [3.0, "ms"],
        "cluster.best_k_silhouette.n90.ms": [4.5, "ms"],
        "cluster.best_k_silhouette.n500.ms": [9.0, "ms"],
        "cluster.best_k_silhouette.n2000.ms": [30.0, "ms"],
        "telemetry.ingest_csv.rows": [100, "count"],
        "bench.compare_models.self_s": [2.0, "s", "a note"],
    })
    change = write_run(tmp_path / "change.json", {
        "cluster.best_k_silhouette.n18.ms": [1.0, "ms"],
        "cluster.best_k_silhouette.n90.ms": [1.5004, "ms"],
        "cluster.best_k_silhouette.n500.ms": [6.0, "ms"],
        "cluster.best_k_silhouette.n2000.ms": [24.0, "ms"],
        "telemetry.ingest_csv.rows": [200, "count"],
        "bench.compare_models.self_s": [1.6, "s"],
    })
    out = tmp_path / "BENCH_9.json"
    assert bench_delta.main([
        "--parent", str(parent), "--change", str(change), "--out", str(out),
        "--command", "cmd", "--basis", "basis",
        "--metric", "cluster.best_k_silhouette.*", "--metric", "telemetry.ingest_csv.rows",
    ]) == 0
    report = json.loads(out.read_text())
    assert report["command"] == "cmd" and report["basis"] == "basis"
    assert "numpy 2.4.6" in report["machine"]
    assert list(report["metrics"]) == [
        "telemetry.ingest_csv.rows",
        "cluster.best_k_silhouette.n18.ms",
        "cluster.best_k_silhouette.n90.ms",
        "cluster.best_k_silhouette.n500.ms",
        "cluster.best_k_silhouette.n2000.ms",
    ]
    assert report["metrics"]["cluster.best_k_silhouette.n18.ms"] == {
        "unit": "ms", "parent": 3.0, "change": 1.0, "speedup": 3.0}
    assert report["metrics"]["cluster.best_k_silhouette.n90.ms"]["change"] == 1.5
    # higher is better for a row count: the ratio is change / parent
    assert report["metrics"]["telemetry.ingest_csv.rows"]["speedup"] == 2.0


def test_unknown_pattern_and_missing_metric_fail(tmp_path):
    run = write_run(tmp_path / "run.json", {"bench.scoring.ms": [1.0, "ms"]})
    with pytest.raises(SystemExit, match="no per-layer metric matches"):
        bench_delta.main(["--parent", str(run), "--change", str(run), "--out",
                          str(tmp_path / "o.json"), "--command", "c", "--basis", "b",
                          "--metric", "no.such.*"])
    with pytest.raises(SystemExit, match="bench.emit_report.ms is missing"):
        bench_delta.main(["--parent", str(run), "--change", str(run), "--out",
                          str(tmp_path / "o.json"), "--command", "c", "--basis", "b",
                          "--metric", "bench.scoring.ms", "--metric", "bench.emit_report.ms"])


def test_repeated_runs_take_the_median(tmp_path):
    runs = [write_run(tmp_path / f"p{i}.json", {"bench.scoring.ms": [v, "ms"]})
            for i, v in enumerate((4.0, 9.0, 5.0))]
    change = write_run(tmp_path / "c.json", {"bench.scoring.ms": [2.5, "ms"]})
    out = tmp_path / "BENCH.json"
    args = ["--change", str(change), "--out", str(out), "--command", "c", "--basis", "b",
            "--metric", "bench.scoring.ms"]
    for run in runs:
        args += ["--parent", str(run)]
    assert bench_delta.main(args) == 0
    entry = json.loads(out.read_text())["metrics"]["bench.scoring.ms"]
    assert (entry["parent"], entry["change"], entry["speedup"]) == (5.0, 2.5, 2.0)
