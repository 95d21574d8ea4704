import json

import pytest

from driftwatch.cli import _DETECTOR_FLAGS, main
from driftwatch.detectors import DriftDetector
from driftwatch.scenario import PhaseKind, PhaseSpec, ScenarioSpec


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def fulfillment_only_spec(seed=0):
    # a single steady fulfillment phase: a drift-free capture, densely
    # sampled so per-batch statistics are stable
    return ScenarioSpec(
        "steady",
        (PhaseSpec(PhaseKind.FULFILLMENT, 99, 800, noise_std=40),),
        sample_period=0.25,
        seed=seed,
    )


@pytest.fixture()
def capture(tmp_path, capsys):
    out_base = tmp_path / "capture"
    code, out, _ = run_cli(
        capsys, "generate", "--preset", "qos", "--seed", "3", "--out", str(out_base)
    )
    assert code == 0
    return out_base


class TestDetectorFlags:
    def test_flags_map_one_to_one_to_constructor_parameters(self):
        flags = [flag for flag, _, _, _ in _DETECTOR_FLAGS]
        params = [param for _, param, _, _ in _DETECTOR_FLAGS]
        assert len(set(flags)) == len(flags) and len(set(params)) == len(params)
        assert set(params) | {"seed"} == set(DriftDetector().get_params()) - {"model"}


class TestGenerate:
    def test_writes_csv_and_truth(self, tmp_path, capsys):
        base = tmp_path / "cap"
        code, out, _ = run_cli(
            capsys, "generate", "--preset", "security", "--seed", "1", "--out", str(base)
        )
        assert code == 0
        assert (tmp_path / "cap.csv").exists()
        assert (tmp_path / "cap.truth.json").exists()
        (line,) = json_lines(out)
        assert line["event"] == "generated"
        assert line["seed"] == 1

    def test_same_seed_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "generate", "--preset", "qos", "--seed", "9", "--out", str(a))[0] == 0
        assert run_cli(capsys, "generate", "--preset", "qos", "--seed", "9", "--out", str(b))[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()

    def test_unknown_preset_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--preset", "nope", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(fulfillment_only_spec().to_json())
        code, out, _ = run_cli(
            capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "cap")
        )
        assert code == 0
        assert json_lines(out)[0]["intent_tag"] == "steady"

    def test_bad_spec_file_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{not json")
        code, _, err = run_cli(
            capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "cap")
        )
        assert code == 2
        assert "error" in err

    def test_env_seed_used_as_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRIFTWATCH_SEED", "77")
        code, out, _ = run_cli(
            capsys, "generate", "--preset", "qos", "--out", str(tmp_path / "cap")
        )
        assert code == 0
        assert json_lines(out)[0]["seed"] == 77


class TestDetect:
    def test_no_drift_exit_0(self, tmp_path, capsys, capture):
        csv = str(capture) + ".csv"
        code, out, _ = run_cli(
            capsys, "detect", "--model", "dbscan", "--train", csv, "--test", csv
        )
        assert code == 0
        (line,) = json_lines(out)
        assert line["drift"] is False
        assert line["model"] == "dbscan"
        assert {"score", "detail", "t_start", "t_end", "elapsed_ms"} <= set(line)

    def test_drift_exit_1(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("t,kbps\n" + "".join(f"{i},100\n" for i in range(10)))
        test.write_text("t,kbps\n" + "".join(f"{i},400\n" for i in range(10)))
        code, out, _ = run_cli(
            capsys, "detect", "--model", "greedy", "--train", str(train), "--test", str(test)
        )
        assert code == 1
        assert json_lines(out)[0]["drift"] is True

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "detect", "--model", "dbscan",
            "--train", str(tmp_path / "absent.csv"), "--test", str(tmp_path / "absent.csv"),
        )
        assert code == 2
        assert "error" in err

    def test_optics_min_samples_above_batch_size_exit_2(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("".join(f"{i},{100 + i % 7}\n" for i in range(90)))
        test.write_text("".join(f"{i},{100 + i % 5}\n" for i in range(18)))
        code, out, err = run_cli(
            capsys, "detect", "--model", "optics", "--min-samples", "30",
            "--train", str(train), "--test", str(test),
        )
        assert code == 2
        assert out == ""
        assert "error: min_samples=30 exceeds the 18 data points" in err
        assert "Traceback" not in err

    def test_config_flags_reach_detector(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("".join(f"{i},100\n" for i in range(10)))
        test.write_text("0,119\n")
        # margin 0.25: limit 125 -> no drift; margin 0.1: limit 110 -> drift
        code, *_ = run_cli(
            capsys, "detect", "--model", "greedy",
            "--train", str(train), "--test", str(test), "--margin", "0.25",
        )
        assert code == 0
        code, *_ = run_cli(
            capsys, "detect", "--model", "greedy",
            "--train", str(train), "--test", str(test), "--margin", "0.1",
        )
        assert code == 1


class TestReplay:
    def test_streams_one_line_per_batch(self, capsys, capture):
        code, out, _ = run_cli(
            capsys, "replay", "--model", "dbscan", "--csv", str(capture) + ".csv"
        )
        assert code == 0
        lines = json_lines(out)
        assert len(lines) > 10
        assert all("drift" in line for line in lines)
        assert not any("summary" in line for line in lines)  # no truth, no summary

    def test_truth_adds_summary(self, capsys, capture):
        code, out, _ = run_cli(
            capsys, "replay", "--model", "dbscan",
            "--csv", str(capture) + ".csv", "--truth", str(capture) + ".truth.json",
        )
        assert code == 0
        lines = json_lines(out)
        assert "summary" in lines[-1]
        summary = lines[-1]["summary"]
        assert {"records", "accuracy", "false_positive_rate", "detection_delay"} <= set(summary)

    def test_batch_len_larger_than_capture_exit_2(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("".join(f"{i},10\n" for i in range(5)))
        code, _, err = run_cli(
            capsys, "replay", "--model", "dbscan", "--csv", str(short), "--batch-len", "100"
        )
        assert code == 2
        assert "error" in err

    def test_drift_free_capture_rarely_flags(self, tmp_path, capsys):
        # false-positive acceptance run: a steady capture should replay clean
        # for dbscan with default config in at least 95% of seeds
        clean = 0
        seeds = 40
        for seed in range(seeds):
            spec_path = tmp_path / f"spec{seed}.json"
            spec_path.write_text(fulfillment_only_spec(seed).to_json())
            base = tmp_path / f"cap{seed}"
            assert run_cli(
                capsys, "generate", "--spec", str(spec_path), "--out", str(base)
            )[0] == 0
            code, out, _ = run_cli(
                capsys, "replay", "--model", "dbscan", "--csv", str(base) + ".csv"
            )
            assert code == 0
            if not any(line["drift"] for line in json_lines(out)):
                clean += 1
        assert clean >= 0.95 * seeds


class TestBench:
    def test_single_model_report(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, out, err = run_cli(
            capsys, "bench", "--models", "dbscan", "--presets", "qos",
            "--reps", "2", "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "timeline_dbscan.csv").exists()
        (line,) = json_lines(out)
        assert line["event"] == "report"
        assert line["total_runs"] == 2
        assert "dbscan" in err  # ranking table on stderr

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--models", "dbscan", "--presets", "wan",
            "--reps", "1", "--out", str(tmp_path / "b"),
        )
        assert code == 2
        assert "error" in err

    def test_unwritable_out_dir_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file in the way")
        code, _, err = run_cli(
            capsys, "bench", "--models", "greedy", "--presets", "qos",
            "--reps", "1", "--out", str(blocker),
        )
        assert code == 2
        assert "error" in err

    def test_stdout_is_machine_consumable(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--models", "greedy,dbscan", "--presets", "qos",
            "--reps", "1", "--out", str(tmp_path / "b"),
        )
        assert code == 0
        for line in out.splitlines():
            json.loads(line)  # every stdout line parses as JSON
