import argparse
import json
import math
import re
import time
from collections import Counter
from dataclasses import fields

import pytest

from driftwatch import cli, telemetry
from driftwatch.bench import BenchProtocol, _run_scenario, run_scenario, score_run
from driftwatch.cli import main
from driftwatch.detectors import MODEL_NAMES, DriftDetector
from driftwatch.scenario import PRESETS, PhaseKind, PhaseSpec, ScenarioSpec, generate
from driftwatch.telemetry import render_csv

from test_detectors import HUGE, SQUARING, golden_pair, golden_verdicts, too_wide


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


def subparsers():
    """build_parser()'s subcommand parsers by name."""
    (action,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


#: Each subcommand's own dests, besides the detector flags.
COMMAND_DESTS = {
    "detect": {"help", "model", "train", "test", "pretty"},
    "replay": {"help", "model", "csv", "truth", "batch_len", "stride", "train_batches"},
    "bench": {"help", "models", "presets", "reps", "out", "train_batches", "batch_len",
              "refit_every"},
}
KNOBS = [f for f in fields(DriftDetector) if f.name not in ("model", "seed")]
DETECT = ["detect", "--model", "dbscan", "--train", "a.csv", "--test", "b.csv"]


class TestDetectorFlags:
    def test_flags_map_one_to_one_to_constructor_parameters(self):
        names = {f.name for f in fields(DriftDetector)} - {"model"}
        for command, own in COMMAND_DESTS.items():
            dests = [a.dest for a in subparsers()[command]._actions]
            assert len(set(dests)) == len(dests)
            assert set(dests) == own | names, command

    def test_flags_are_the_field_names_but_gamma_and_ap_preference(self):
        flags = {a.dest: a.option_strings for a in subparsers()["detect"]._actions}
        assert flags["gamma_override"] == ["--gamma"]
        assert flags["ap_preference_override"] == ["--ap-preference"]
        for f in KNOBS:
            if not f.name.endswith("_override"):
                assert flags[f.name] == ["--" + f.name.replace("_", "-")]

    @pytest.mark.parametrize("knob", KNOBS, ids=lambda f: f.name)
    def test_a_flag_reaches_its_parameter_with_the_field_type(self, knob, monkeypatch):
        monkeypatch.delenv("DRIFTWATCH_SEED", raising=False)
        kind = float if knob.default is None else type(knob.default)
        value = {float: "0.5", int: "7", str: "single"}[kind]
        (flag,) = next(a.option_strings for a in subparsers()["detect"]._actions
                       if a.dest == knob.name)
        params = cli._detector_params(cli.build_parser().parse_args([*DETECT, flag, value]))
        assert params == {knob.name: kind(value), "seed": 0}
        assert type(params[knob.name]) is kind
        got = DriftDetector(**params).get_params()  # every other knob keeps its default
        assert got == {**DriftDetector().get_params(), knob.name: kind(value)}

    @pytest.mark.parametrize("command", ["generate", "detect", "replay", "bench"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: driftwatch {command}")

    @pytest.mark.parametrize("env", [None, ""])
    def test_an_unset_or_empty_seed_variable_gives_the_fallback(self, env, monkeypatch):
        if env is None:
            monkeypatch.delenv("DRIFTWATCH_SEED", raising=False)
        else:
            monkeypatch.setenv("DRIFTWATCH_SEED", env)
        args = cli.build_parser().parse_args(DETECT)
        assert cli._detector_params(args) == {"seed": 0}
        assert cli._resolve_seed(args, fallback=None) is None
        monkeypatch.setenv("DRIFTWATCH_SEED", "5")  # --seed comes first
        assert cli._resolve_seed(cli.build_parser().parse_args([*DETECT, "--seed", "3"]), 0) == 3

    def test_a_seed_variable_that_is_not_an_integer_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRIFTWATCH_SEED", "abc")
        code, out, err = run_cli(
            capsys, "generate", "--preset", "qos", "--out", str(tmp_path / "cap")
        )
        assert (code, out) == (2, "")
        assert err == "error: DRIFTWATCH_SEED must be an integer, got 'abc'\n"


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

    @pytest.mark.parametrize("key, text, reason", [
        ("duration", "1e999", "duration must be finite, got inf"),
        ("base_level", "NaN", "base_level must be finite, got nan"),
        ("noise_std", "NaN", "noise_std must be finite, got nan"),
        ("sample_period", "Infinity", "sample_period must be finite, got inf"),
        ("kind", '"bogus"', "'bogus' is not a valid PhaseKind"),
        ("duration", '"abc"', "could not convert string to float: 'abc'"),
        ("noise_std", '"abc"', "could not convert string to float: 'abc'"),
        ("seed", "2.7", "expected an integer, got 2.7"),
        ("seed", "true", "expected an integer, got True"),
        ("seed", "1e999", "cannot convert float infinity to integer"),
    ])
    def test_spec_with_a_bad_number_or_kind_exits_2(self, tmp_path, capsys, key, text, reason):
        doc = fulfillment_only_spec().to_dict()
        top = key in ("sample_period", "seed")
        (doc if top else doc["phases"][0])[key] = "VALUE"
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(doc).replace('"VALUE"', text))
        code, out, err = run_cli(
            capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "cap")
        )
        assert (code, out) == (2, "")
        if "finite" not in reason:  # a conversion error is prefixed with its field path
            reason = ("" if top else "phases: ") + f"{key}: {reason}"
        assert err == f"error: invalid scenario document: {reason}\n"
        assert not (tmp_path / "cap.csv").exists()

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

    @pytest.mark.parametrize("level, code, summary", [
        (400, 1, "greedy: DRIFT (score 2.2000) - greedy: max 400 vs limit 125"),
        (100, 0, "greedy: no drift (score -0.2000) - greedy: max 100 vs limit 125"),
    ])
    def test_pretty_adds_a_summary_on_stderr(self, tmp_path, capsys, level, code, summary):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("t,kbps\n" + "".join(f"{i},100\n" for i in range(10)))
        test.write_text("t,kbps\n" + "".join(f"{i},{level}\n" for i in range(10)))
        got, out, err = run_cli(
            capsys, "detect", "--model", "greedy", "--train", str(train), "--test", str(test),
            "--pretty",
        )
        assert got == code
        assert len(json_lines(out)) == 1
        assert err == f"{summary} (monitoring_max=100, margin=0.25)\n"

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

    @pytest.mark.parametrize("model, flag, value, reason", [
        ("greedy", "--margin", "nan", "margin must be >= 0, got nan"),
        ("affinity", "--ap-preference", "nan", "preference must be finite, got nan"),
        ("affinity", "--ap-preference", "inf", "preference must be finite, got inf"),
        ("affinity", "--ap-multiplier", "inf", "ap_multiplier must be finite and > 0, got inf"),
        ("ocsvm", "--gamma", "inf", "gamma must be finite and > 0, got inf"),
    ])
    def test_a_knob_that_is_not_a_number_exits_2(self, capsys, capture, model, flag, value, reason):
        # a NaN margin once read as drift on a capture against itself; the
        # infinite multiplier and gamma ended in a traceback
        csv = str(capture) + ".csv"
        code, out, err = run_cli(
            capsys, "detect", "--model", model, "--train", csv, "--test", csv, flag, value
        )
        assert (code, out, err) == (2, "", f"error: {reason}\n")

    @pytest.mark.parametrize("model, flag, value, reason", [
        ("greedy", "--margin", "inf", "margin must be finite and >= 0, got inf"),
        ("dbscan", "--eps-factor", "inf", "eps_factor must be finite and > 0, got inf"),
        ("kmeans", "--k-max", "1", "k_max must be an integer >= 2, got 1"),
        ("affinity", "--ap-max-iter", "0", "ap_max_iter must be an integer >= 1, got 0"),
        ("affinity", "--ap-convergence-iter", "0", "ap_convergence_iter must be an integer >= 1, got 0"),
    ])
    def test_a_knob_outside_its_domain_exits_2(self, capsys, capture, model, flag, value, reason):
        # an infinite margin once printed "drift": false with limit inf and exited 0
        csv = str(capture) + ".csv"
        code, out, err = run_cli(
            capsys, "detect", "--model", model, "--train", csv, "--test", csv, flag, value
        )
        assert (code, out, err) == (2, "", f"error: {reason}\n")

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


class TestDetectAtTheTopOfTheFloatRange:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_exit_2_naming_the_model_or_the_golden_verdict(self, tmp_path, capsys, model):
        paths = []
        for name, values in zip(("train", "test"), golden_pair()):
            path = tmp_path / f"{name}.csv"
            path.write_text("t,kbps\n" + "".join(f"{i / 2},{float(v * HUGE)!r}\n"
                                                 for i, v in enumerate(values)))
            paths.append(str(path))
        code, out, err = run_cli(capsys, "detect", "--model", model,
                                 "--train", paths[0], "--test", paths[1])
        if model in SQUARING:
            assert (code, out) == (2, "")
            assert re.fullmatch("error: " + too_wide(model, golden_pair()[0] * HUGE) + ".*\n", err)
            return
        (line,) = json_lines(out)
        assert code == int(line["drift"])
        assert (line["drift"], line["score"]) == golden_verdicts()[model]


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

    def test_each_evaluated_batch_is_built_once(self, capsys, capture, monkeypatch):
        built = Counter()
        batch = telemetry.Batch

        def counted(start_t, end_t, values):
            built[start_t] += 1
            return batch(start_t, end_t, values)

        monkeypatch.setattr(telemetry, "Batch", counted)
        code, out, _ = run_cli(
            capsys, "replay", "--model", "greedy",
            "--csv", str(capture) + ".csv", "--truth", str(capture) + ".truth.json",
        )
        assert code == 0
        *lines, summary = json_lines(out)
        assert summary["summary"]["records"] == len(lines) > 0
        assert [built[line["t_start"]] for line in lines] == [1] * len(lines)

    def test_malformed_truth_json_exit_2(self, tmp_path, capsys, capture):
        bad = tmp_path / "bad.truth.json"
        bad.write_text("{boundaries: []}")
        code, out, err = run_cli(
            capsys, "replay", "--model", "dbscan", "--csv", str(capture) + ".csv", "--truth", str(bad),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid ground-truth JSON: Expecting property name")

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

    @pytest.mark.parametrize("stride, batch_len", [("4.5", "9"), ("8.999", "9"), ("2", "3")])
    def test_stride_below_batch_len_exit_2(self, capsys, capture, stride, batch_len):
        # overlapping batches would train on repeated samples and evaluate
        # batches that share samples with the training window
        code, out, err = run_cli(
            capsys, "replay", "--model", "dbscan", "--csv", str(capture) + ".csv",
            "--stride", stride, "--batch-len", batch_len,
        )
        assert (code, out) == (2, "")
        assert f"--stride {float(stride)} must be >= --batch-len {float(batch_len)}" in err

    @pytest.mark.parametrize("extra", [("--stride", "9"), ("--stride", "9", "--batch-len", "9")])
    def test_stride_equal_to_batch_len_changes_nothing(self, capsys, capture, extra):
        args = ("replay", "--model", "dbscan", "--csv", str(capture) + ".csv",
                "--truth", str(capture) + ".truth.json")

        def without_timing(out):
            return [{k: v for k, v in ln.items() if k != "elapsed_ms"} for ln in json_lines(out)]

        code, plain, _ = run_cli(capsys, *args)
        code_strided, strided, _ = run_cli(capsys, *args, *extra)
        assert code == code_strided == 0
        assert without_timing(strided) == without_timing(plain)

    def test_stride_above_batch_len_is_allowed(self, capsys, capture):
        code, out, _ = run_cli(
            capsys, "replay", "--model", "dbscan", "--csv", str(capture) + ".csv", "--stride", "18"
        )
        assert code == 0
        starts = [ln["t_start"] for ln in json_lines(out)]
        assert starts and all(b - a == 18.0 for a, b in zip(starts, starts[1:]))

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

    def test_calibration_warnings_close_the_ranking_table(self, tmp_path, capsys):
        # min_pts above any batch population cripples dbscan below greedy
        code, out, err = run_cli(
            capsys, "bench", "--models", "dbscan,greedy", "--presets", "qos",
            "--reps", "1", "--min-pts", "50", "--out", str(tmp_path / "b"),
        )
        assert code == 0
        (warning,) = json_lines(out)[0]["calibration_warnings"]
        assert warning.startswith("calibration: dbscan accuracy")
        assert err.splitlines()[-1] == f"WARNING: {warning}"

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--models", "dbscan", "--presets", "wan",
            "--reps", "1", "--out", str(tmp_path / "b"),
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("models, presets, message", [
        ("dbscan", ",", "compare_models needs at least one scenario"),
        (",", "qos", "compare_models needs at least one detector"),
        ("dbscan,DBSCAN", "qos", "unknown model 'DBSCAN'; available: affinity, dbscan, gmm,"),
        ("dbscan,knn", "qos", "unknown model 'knn'; available: affinity, dbscan, gmm,"),
        ("dbscan, dbscan", "qos", "repeated model 'dbscan'; available: affinity, dbscan, gmm,"),
        ("dbscan", "qos,qos", "repeated preset 'qos'; available: qos, security"),
    ])
    def test_bad_name_lists_exit_2(self, tmp_path, capsys, models, presets, message):
        code, out, err = run_cli(
            capsys, "bench", "--models", models, "--presets", presets,
            "--reps", "1", "--out", str(tmp_path / "b"),
        )
        assert (code, out) == (2, "")
        assert f"error: {message}" in err
        assert not (tmp_path / "b").exists()

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

        by_model, _, truth = _run_scenario(
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

    def test_bench_folds_each_refit_into_the_record_after_it(self):
        spec = ScenarioSpec("steady", (PhaseSpec(PhaseKind.FULFILLMENT, 270, 800, noise_std=40),))
        by_model, _, _ = _run_scenario(spec, SlowFit("greedy"), BenchProtocol(refit_every=10),
                                       traced_records=0)
        (records,) = by_model.values()
        assert len(records) == 25
        slow = [i for i, r in enumerate(records) if r.compute_time >= SlowFit.FIT_S]
        assert slow == [0, 10, 20]
