"""The one JSON codec of the package's records: ``validation.to_doc`` writes a
dataclass from its fields, ``validation.from_doc`` reads it back from its
type hints, and ``validation.Document`` gives each document record its JSON
text methods and its readers' errors."""

import json
import math
from dataclasses import fields

import pytest

from driftwatch.bench import BenchReport, ModelStats
from driftwatch.detectors import ModelType
from driftwatch.scenario import (
    GroundTruth,
    PhaseBoundary,
    PhaseKind,
    PhaseSpec,
    ScenarioError,
    ScenarioSpec,
    preset_security,
)
from driftwatch.validation import Document, from_doc, to_doc

PHASE = PhaseSpec(PhaseKind.DRIFT, 12.5, 800.0, end_level=650.0, noise_std=7.25,
                  fluctuation_amp=33.0)
STATS = ModelStats(0.75, 0.125, 13.5, 2.5e-05, 4096, "measured: a subset")
REPORT = BenchReport(
    scenarios={"security": preset_security().to_dict()},
    configs={"optics": {"model": "optics", "max_eps": None, "min_samples": 3}},
    protocol={"train_window_batches": 5, "refit_every": 0, "batch_len": 9.0},
    repetitions=2,
    seed_base=1,
    total_runs=4,
    per_model={"optics": STATS, "greedy": ModelStats(0.5, 0.0, math.inf, 0.001, 0, "x")},
    rankings={"accuracy": ["optics", "greedy"]},
    calibration_warnings=["calibration: w"],
)

# every record written as a JSON document
RECORDS = {
    "PhaseSpec": PHASE,
    "ScenarioSpec": ScenarioSpec("every-field", (PHASE, PhaseSpec(PhaseKind.FAILURE, 4.0, 0.0)),
                                 sample_period=0.25, seed=17),
    "PhaseBoundary": PhaseBoundary(12.5, PhaseKind.DRIFT),
    "GroundTruth": GroundTruth((PhaseBoundary(0.0, PhaseKind.FULFILLMENT),
                                PhaseBoundary(12.5, PhaseKind.DRIFT)), end_t=16.5),
    "ModelStats": STATS,
    "BenchReport": REPORT,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_record_round_trips_through_json_text(name):
    record = RECORDS[name]
    doc = to_doc(record)
    assert list(doc) == [f.name for f in fields(record) if f.compare]
    text = json.dumps(doc, allow_nan=False)  # strict JSON: no Infinity or NaN
    assert from_doc(type(record), json.loads(text)) == record
    if isinstance(record, Document):
        assert type(record).from_json(record.to_json()) == record


def test_enums_are_written_by_value_and_read_back_by_type():
    doc = to_doc({"kind": PhaseKind.FAILURE, "model": ModelType.ONE_CLASS_SVM})
    assert doc == {"kind": "failure", "model": "ocsvm"}
    assert from_doc(PhaseBoundary, {"start_t": 3, "kind": "drift"}) == PhaseBoundary(3.0, PhaseKind.DRIFT)


def test_fields_outside_equality_are_not_written():
    report = BenchReport(**{f.name: getattr(REPORT, f.name) for f in fields(REPORT) if f.compare},
                         timelines={"greedy": [(0.0, 1.0, 0, None)]})
    doc = to_doc(report)
    assert "timelines" not in doc
    assert from_doc(BenchReport, doc).timelines == {}


@pytest.mark.parametrize("name", [f.name for f in fields(ModelStats)
                                  if f.type in ("float", float)])
def test_every_infinite_float_of_model_stats_reads_back_as_infinity(name):
    stats = ModelStats(**{**vars(STATS), name: math.inf})
    doc = to_doc(stats)
    assert doc[name] is None
    assert math.isinf(getattr(from_doc(ModelStats, json.loads(json.dumps(doc))), name))


def test_a_null_optional_stays_null_and_a_null_float_is_infinity():
    doc = {"kind": "normal", "duration": 2, "base_level": 10, "end_level": None}
    assert from_doc(PhaseSpec, doc).end_level == 10.0  # None, then the default rule
    assert math.isinf(from_doc(ModelStats, {**to_doc(STATS), "accuracy": None}).accuracy)


def test_unknown_keys_are_ignored():
    truth = RECORDS["GroundTruth"]
    doc = {**to_doc(truth), "intent_tag": "intent-b-security", "seed": 7}
    assert from_doc(GroundTruth, doc) == truth
    assert from_doc(ModelStats, {**to_doc(STATS), "extra": [1, 2]}) == STATS


def test_missing_required_key_raises_key_error_and_missing_default_is_filled():
    with pytest.raises(KeyError, match="end_t"):
        from_doc(GroundTruth, {"boundaries": []})
    spec = from_doc(ScenarioSpec, {"intent_tag": "x",
                                   "phases": [{"kind": "normal", "duration": 1, "base_level": 2}]})
    assert (spec.sample_period, spec.seed) == (1.0, 0)


def test_scalars_are_coerced_to_their_annotation():
    stats = from_doc(ModelStats, {**to_doc(STATS), "peak_memory_bytes": "4096", "accuracy": 1})
    assert stats.peak_memory_bytes == 4096 and isinstance(stats.accuracy, float)
    with pytest.raises(ValueError):
        from_doc(ModelStats, {**to_doc(STATS), "accuracy": "fast"})
    assert from_doc(ModelStats, {**to_doc(STATS), "peak_memory_bytes": 4096.0}).peak_memory_bytes == 4096


@pytest.mark.parametrize("value", [4096.9, -0.5, True, False])
def test_an_int_field_refuses_a_fraction_or_a_bool(value):
    with pytest.raises(ValueError, match=f"^peak_memory_bytes: expected an integer, got {value!r}$"):
        from_doc(ModelStats, {**to_doc(STATS), "peak_memory_bytes": value})


@pytest.mark.parametrize("value, reason", [
    ("abc", "phases: duration: could not convert string to float: 'abc'"),
    ([1], "phases: duration: float() argument must be a string or a real number, not 'list'"),
    (math.inf, "duration must be finite, got inf"),  # the record's own check names its field
])
def test_a_value_that_does_not_convert_names_its_field_path(value, reason):
    doc = {"intent_tag": "x", "phases": [{"kind": "normal", "duration": value, "base_level": 2}]}
    with pytest.raises(ValueError) as err:
        from_doc(ScenarioSpec, doc)
    assert str(err.value) == reason


def test_mappings_are_written_by_item_and_sequences_as_lists():
    value = {"a": (1.0, [math.inf, 2.5]), "b": {"c": (PhaseKind.DRIFT,)}}
    assert to_doc(value) == {"a": [1.0, [None, 2.5]], "b": {"c": ["drift"]}}


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_nan_and_minus_infinity_are_refused(value):
    # JSON has neither: NaN was written as a bare NaN, -inf as a null that reads back as +inf
    for holder in (value, [1.0, value], {"a": value}, ModelStats(**{**vars(STATS), "accuracy": value})):
        with pytest.raises(ValueError, match=f"^JSON has no {value}; only \\+inf is written, as null$"):
            to_doc(holder)


#: every record read from a JSON document, with its name in errors and its error
DOCUMENTS = [(PhaseSpec, "phase", ScenarioError), (ScenarioSpec, "scenario", ScenarioError),
             (GroundTruth, "ground-truth", ScenarioError), (BenchReport, "report", ValueError)]


@pytest.mark.parametrize("cls, what, error", DOCUMENTS)
def test_every_document_reader_raises_its_error_naming_the_document(cls, what, error):
    for text, reason in [("{", f"^invalid {what} JSON: Expecting property name"),
                         ("[1]", f"^{what} JSON must be an object$"),
                         ("{}", f"^invalid {what} document: '")]:
        with pytest.raises(error, match=reason):
            cls.from_json(text)

