import json
import math
import time

import pytest

from driftwatch import cli
from driftwatch.bench import BenchProtocol, _run_scenario, run_scenario, score_run
from driftwatch.cli import _DETECTOR_FLAGS, main
from driftwatch.detectors import DriftDetector
from driftwatch.scenario import PRESETS, PhaseKind, PhaseSpec, ScenarioSpec, generate
from driftwatch.telemetry import render_csv


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


def write_capture(spec, base):
    """Write spec's series and ground truth as ``generate`` does; return the
    replay arguments that read them."""
    series, truth = generate(spec)
    with open(f"{base}.csv", "w", encoding="utf-8") as fh:
        render_csv(series, fh)
    with open(f"{base}.truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_dict(), fh)
    return ["--csv", f"{base}.csv", "--truth", f"{base}.truth.json"]


def short_fulfillment_spec():
    # 10 batches of normal traffic, then a fulfillment phase that the 5-batch
    # training window fills exactly: no batch is left to evaluate
    return ScenarioSpec(
        "short",
        (
            PhaseSpec(PhaseKind.NORMAL, 90, 1000, noise_std=50),
            PhaseSpec(PhaseKind.FULFILLMENT, 45, 500, noise_std=25),
        ),
        sample_period=0.5,
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

    @pytest.mark.parametrize("with_truth, train_batches, message", [
        # the fulfillment phase ends the capture, so its window leaves nothing
        (True, "5", "no batch follows the 5-batch training window"),
        # without truth the window is the first n of the capture's 15 batches
        (False, "15", "no batch follows the 15-batch training window"),
        (False, "16", "capture holds only 15 full batches; 16 needed"),
        (True, "0", "train_window_batches must be an integer >= 1, got 0"),
        (False, "0", "train_window_batches must be an integer >= 1, got 0"),
    ])
    def test_too_few_batches_exit_2(self, tmp_path, capsys, with_truth, train_batches, message):
        args = write_capture(short_fulfillment_spec(), tmp_path / "short")
        code, out, err = run_cli(
            capsys, "replay", "--model", "dbscan", *(args if with_truth else args[:2]),
            "--train-batches", train_batches,
        )
        assert (code, out) == (2, "")
        assert message in err

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

    def test_negative_refit_every_exit_2(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--models", "greedy", "--presets", "qos",
            "--reps", "1", "--refit-every", "-1", "--out", str(tmp_path / "b"),
        )
        assert (code, out) == (2, "")
        assert "refit_every" in err
        assert not (tmp_path / "b").exists()

    def test_stdout_is_machine_consumable(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--models", "greedy,dbscan", "--presets", "qos",
            "--reps", "1", "--out", str(tmp_path / "b"),
        )
        assert code == 0
        for line in out.splitlines():
            json.loads(line)  # every stdout line parses as JSON


class TestReplayIsTheBenchProtocol:
    @pytest.mark.parametrize("model", ["dbscan", "kmeans", "greedy"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_same_verdicts_and_scores_as_the_bench(self, tmp_path, capsys, preset, seed, model):
        spec = PRESETS[preset]().with_seed(seed)
        args = write_capture(spec, tmp_path / "cap")
        code, out, _ = run_cli(capsys, "replay", "--model", model, *args)
        assert code == 0
        *lines, last = json_lines(out)

        by_model, _, truth, _ = _run_scenario(
            spec, {model: DriftDetector(model)}, BenchProtocol(), traced_records=0
        )
        records = by_model[model]
        assert [(ln["drift"], ln["score"], ln["detail"], ln["t_start"], ln["t_end"]) for ln in lines] == [
            (r.verdict.drift, r.verdict.score, r.verdict.detail, r.batch_start_t, r.batch_end_t)
            for r in records
        ]
        scores = score_run(records, truth)
        delay = scores["detection_delay"]
        assert last["summary"] == {
            "records": len(records),
            "accuracy": scores["accuracy"],
            "false_positive_rate": scores["false_positive_rate"],
            "detection_delay": None if math.isinf(delay) else delay,
        }


class SlowFit(DriftDetector):
    """A detector whose fit takes at least FIT_S seconds."""

    FIT_S = 0.2

    def fit(self, X):
        time.sleep(self.FIT_S)
        return super().fit(X)


class TestFitCost:
    def test_replay_elapsed_ms_is_the_evaluate_alone(self, capsys, capture, monkeypatch):
        monkeypatch.setattr(cli, "DriftDetector", SlowFit)
        code, out, _ = run_cli(capsys, "replay", "--model", "greedy", "--csv", str(capture) + ".csv")
        assert code == 0
        lines = json_lines(out)
        assert lines and all(ln["elapsed_ms"] < 1000 * SlowFit.FIT_S for ln in lines)

    def test_bench_folds_the_fit_into_the_first_record(self):
        records = run_scenario(PRESETS["qos"]().with_seed(0), SlowFit("greedy"))
        assert records[0].compute_time >= SlowFit.FIT_S
        assert all(r.compute_time < SlowFit.FIT_S for r in records[1:])
