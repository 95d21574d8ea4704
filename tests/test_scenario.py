import json
import tracemalloc
from dataclasses import MISSING, fields

import numpy as np
import pytest

from driftwatch.scenario import (
    PRESETS,
    GroundTruth,
    PhaseBoundary,
    PhaseKind,
    PhaseSpec,
    ScenarioError,
    ScenarioSpec,
    generate,
    label_batch,
    preset_qos,
    preset_security,
)
from driftwatch.telemetry import Batch, TelemetryError

from oracles import generate_reference


def spec_of(*phases, period=1.0, seed=0):
    return ScenarioSpec("test", tuple(phases), sample_period=period, seed=seed)


def multi_hour_spec(seed=0, period=0.5):
    # 3 h with every phase kind, a trending drift and two random walks
    return spec_of(
        PhaseSpec(PhaseKind.NORMAL, 600, 5000, noise_std=250),
        PhaseSpec(PhaseKind.FULFILLMENT, 9000, 1200, noise_std=60),
        PhaseSpec(PhaseKind.DRIFT, 900, 1200, end_level=1450, noise_std=42, fluctuation_amp=250),
        PhaseSpec(PhaseKind.FAILURE, 300, 40, noise_std=45, fluctuation_amp=560),
        period=period, seed=seed,
    )


class TestGenerate:
    def test_zero_noise_is_exact_level(self):
        spec = spec_of(PhaseSpec(PhaseKind.NORMAL, 10, 100, noise_std=0))
        series, truth = generate(spec)
        assert len(series) == 10
        assert all(s.value == 100.0 for s in series.samples)
        assert truth.boundaries == (type(truth.boundaries[0])(0.0, PhaseKind.NORMAL),)
        assert truth.end_t == 10.0

    def test_determinism_bit_exact(self):
        spec = preset_security()
        first, _ = generate(spec)
        second, _ = generate(spec)
        assert first == second

    def test_different_seeds_differ(self):
        spec = preset_security()
        a, _ = generate(spec)
        b, _ = generate(spec.with_seed(spec.seed + 1))
        assert a != b

    def test_drift_linear_interpolation(self):
        spec = spec_of(
            PhaseSpec(PhaseKind.DRIFT, 60, 100, end_level=400, noise_std=0, fluctuation_amp=0)
        )
        series, _ = generate(spec)
        assert series.samples[30].t == 30.0
        assert series.samples[30].value == 250.0
        assert series.samples[0].value == 100.0

    def test_piecewise_level_function_with_zero_noise(self):
        spec = spec_of(
            PhaseSpec(PhaseKind.NORMAL, 5, 10, noise_std=0),
            PhaseSpec(PhaseKind.FULFILLMENT, 5, 2, noise_std=0),
            PhaseSpec(PhaseKind.DRIFT, 4, 2, end_level=6, noise_std=0),
            PhaseSpec(PhaseKind.FAILURE, 3, 10, noise_std=0),
        )
        series, truth = generate(spec)
        values = [s.value for s in series.samples]
        assert values[:5] == [10.0] * 5
        assert values[5:10] == [2.0] * 5
        assert values[10:14] == [2.0, 3.0, 4.0, 5.0]
        assert values[14:] == [10.0] * 3
        assert [b.start_t for b in truth.boundaries] == [0.0, 5.0, 10.0, 14.0]

    def test_fluctuation_stays_within_bound(self):
        amp = 50.0
        spec = spec_of(
            PhaseSpec(PhaseKind.DRIFT, 200, 1000, end_level=1000, noise_std=0, fluctuation_amp=amp),
            seed=5,
        )
        series, _ = generate(spec)
        values = np.array([s.value for s in series.samples])
        assert np.all(np.abs(values - 1000.0) <= amp + 1e-9)
        assert values.std() > 0

    def test_values_clamped_at_zero(self):
        spec = spec_of(PhaseSpec(PhaseKind.NORMAL, 50, 1, noise_std=100), seed=1)
        series, _ = generate(spec)
        assert min(s.value for s in series.samples) >= 0.0

    def test_sample_period(self):
        spec = spec_of(PhaseSpec(PhaseKind.NORMAL, 10, 5, noise_std=0), period=0.5)
        series, _ = generate(spec)
        assert len(series) == 20
        assert series.samples[1].t == 0.5

    def test_truth_spans_total_duration(self):
        spec = preset_qos()
        _, truth = generate(spec)
        assert truth.end_t == spec.total_duration
        assert len(truth.boundaries) == len(spec.phases)


class TestPhaseSpecInvariants:
    def test_non_drift_cannot_trend(self):
        with pytest.raises(ScenarioError):
            PhaseSpec(PhaseKind.NORMAL, 10, 100, end_level=200)

    def test_steady_phases_cannot_fluctuate(self):
        with pytest.raises(ScenarioError):
            PhaseSpec(PhaseKind.FULFILLMENT, 10, 100, fluctuation_amp=5)

    def test_failure_may_fluctuate(self):
        phase = PhaseSpec(PhaseKind.FAILURE, 10, 100, fluctuation_amp=5)
        assert phase.fluctuation_amp == 5

    def test_noise_defaults_to_five_percent(self):
        assert PhaseSpec(PhaseKind.NORMAL, 10, 200).noise_std == 10.0

    def test_duration_positive(self):
        with pytest.raises(ScenarioError):
            PhaseSpec(PhaseKind.NORMAL, 0, 100)

    def test_a_scenario_needs_a_phase(self):
        with pytest.raises(ScenarioError, match="^scenario needs at least one phase$"):
            ScenarioSpec("x", ())

    @pytest.mark.parametrize("starts", [(), (1.0,)])
    def test_truth_starts_at_zero(self, starts):
        with pytest.raises(ScenarioError, match="^ground truth must start at t = 0$"):
            GroundTruth(tuple(PhaseBoundary(t, PhaseKind.NORMAL) for t in starts), 9.0)


DRIFT_PHASE = {"kind": "drift", "duration": 9.0, "base_level": 100.0, "end_level": 120.0,
               "noise_std": 2.0, "fluctuation_amp": 5.0}


class TestNonFiniteNumbers:
    """A non-finite number in a scenario is refused where the record is
    built, by a ScenarioError that names the field."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["duration", "base_level", "end_level", "noise_std",
                                      "fluctuation_amp"])
    def test_each_phase_field(self, name, value):
        with pytest.raises(ScenarioError, match=f"^{name} must be finite, got"):
            PhaseSpec(**{**DRIFT_PHASE, name: value})

    def test_a_non_finite_base_level_is_named_before_its_defaults(self):
        with pytest.raises(ScenarioError, match="^base_level must be finite, got nan"):
            PhaseSpec(PhaseKind.NORMAL, 10.0, np.nan)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_sample_period(self, value):
        with pytest.raises(ScenarioError, match="^sample_period must be finite"):
            ScenarioSpec("x", (PhaseSpec(**DRIFT_PHASE),), sample_period=value)

    @pytest.mark.parametrize("name, text", [("duration", "1e999"), ("noise_std", "NaN"),
                                            ("base_level", "-Infinity")])
    def test_json_numbers_beyond_float_range(self, name, text):
        phase = json.dumps({**DRIFT_PHASE, name: "VALUE"}).replace('"VALUE"', text)
        with pytest.raises(ScenarioError, match=f"invalid scenario document: {name} must be finite"):
            ScenarioSpec.from_json(f'{{"intent_tag": "x", "phases": [{phase}]}}')

    def test_sample_period_json(self):
        with pytest.raises(ScenarioError, match="sample_period must be finite"):
            ScenarioSpec.from_json('{"intent_tag": "x", "phases": [], "sample_period": Infinity}'
                                   .replace("[]", json.dumps([DRIFT_PHASE])))

    def test_truth_end_time(self):
        with pytest.raises(ScenarioError, match="invalid ground-truth document: end_t must be finite"):
            GroundTruth.from_json('{"boundaries": [{"start_t": 0, "kind": "drift"}], "end_t": null}')

    @pytest.mark.parametrize("start", ["null", "NaN", "Infinity"])
    def test_truth_boundary_start(self, start):
        doc = ('{"boundaries": [{"start_t": 0, "kind": "normal"}, {"start_t": START, "kind": "drift"}],'
               ' "end_t": 10}').replace("START", start)
        with pytest.raises(ScenarioError, match="boundaries must be ordered by finite start times"):
            GroundTruth.from_json(doc)

    def test_truth_boundaries_out_of_order(self):
        with pytest.raises(ScenarioError, match=r"ordered by finite start times, got \[0.0, 5.0, 2.0\]"):
            GroundTruth(tuple(PhaseBoundary(t, PhaseKind.NORMAL) for t in (0.0, 5.0, 2.0)), 9.0)


class TestPresets:
    def test_security_structure(self):
        spec = preset_security()
        assert spec.phases[1].kind is PhaseKind.FULFILLMENT
        assert spec.phases[1].duration >= 120.0
        kinds = [p.kind for p in spec.phases]
        assert kinds[-2:] == [PhaseKind.DRIFT, PhaseKind.FAILURE]
        _, truth = generate(spec.with_seed(1))
        assert len(truth.boundaries) >= 4

    def test_qos_boundaries_match_reference_timing(self):
        spec = preset_qos()
        _, truth = generate(spec)
        fulfillment_start = next(
            b.start_t for b in truth.boundaries if b.kind is PhaseKind.FULFILLMENT
        )
        drift_start = next(b.start_t for b in truth.boundaries if b.kind is PhaseKind.DRIFT)
        assert abs(fulfillment_start - 180.0) <= 10.0
        assert abs(drift_start - 400.0) <= 10.0

    def test_all_durations_positive(self):
        for preset in (preset_security, preset_qos):
            assert all(p.duration > 0 for p in preset().phases)


class TestLabelBatch:
    @pytest.fixture()
    def truth(self):
        spec = spec_of(
            PhaseSpec(PhaseKind.NORMAL, 10, 5, noise_std=0),
            PhaseSpec(PhaseKind.FULFILLMENT, 10, 5, noise_std=0),
            PhaseSpec(PhaseKind.DRIFT, 10, 5, noise_std=0),
            PhaseSpec(PhaseKind.FAILURE, 10, 5, noise_std=0),
        )
        return generate(spec)[1]

    def test_inside_fulfillment_false(self, truth):
        assert label_batch(Batch(11, 19, (1,) * 8), truth) is False

    def test_inside_drift_true(self, truth):
        assert label_batch(Batch(21, 29, (1,) * 8), truth) is True

    def test_inside_failure_true(self, truth):
        assert label_batch(Batch(31, 39, (1,) * 8), truth) is True

    def test_straddle_uses_midpoint(self, truth):
        # [18, 24) has midpoint 21, inside drift
        assert label_batch(Batch(18, 24, (1,) * 6), truth) is True
        # [16, 22) has midpoint 19, inside fulfillment
        assert label_batch(Batch(16, 22, (1,) * 6), truth) is False

    def test_outside_span_raises(self, truth):
        with pytest.raises(ScenarioError):
            label_batch(Batch(35, 45, (1,) * 10), truth)

    @pytest.mark.parametrize("t", [-0.5, 41.0])
    def test_phase_at_outside_span_raises(self, truth, t):
        with pytest.raises(ScenarioError, match=rf"^t={t} outside scenario span \[0, 40.0\)$"):
            truth.phase_at(t)

    def test_consistency_across_placements(self, truth):
        for start in range(0, 32):
            batch = Batch(float(start), float(start + 8), (1,) * 8)
            expected = truth.phase_at(start + 4.0) in (PhaseKind.DRIFT, PhaseKind.FAILURE)
            assert label_batch(batch, truth) == expected


class TestSerialization:
    def test_scenario_json_round_trip(self):
        spec = preset_security()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_truth_json_round_trip(self):
        _, truth = generate(preset_qos())
        assert GroundTruth.from_json(truth.to_json()) == truth

    def test_truth_names_the_scenario_it_came_from(self):
        spec = preset_qos().with_seed(5)
        _, truth = generate(spec)
        assert (truth.intent_tag, truth.seed) == (spec.intent_tag, 5)

    @staticmethod
    def assert_no_default_left(record):
        """Every field with a default differs from what a record built from
        the required fields alone would hold, so a reader that drops a field
        gives a record that compares unequal."""
        required = {f.name: getattr(record, f.name) for f in fields(record) if f.default is MISSING}
        minimal = type(record)(**required)
        for f in fields(record):
            if f.default is not MISSING:
                assert getattr(record, f.name) != getattr(minimal, f.name), f.name

    def test_every_field_round_trips(self):
        phase = PhaseSpec(PhaseKind.DRIFT, 12.5, 800.0, end_level=650.0, noise_std=7.25,
                          fluctuation_amp=33.0)
        spec = ScenarioSpec("every-field", (phase, PhaseSpec(PhaseKind.FAILURE, 4.0, 0.0)),
                            sample_period=0.25, seed=17)
        truth = GroundTruth((PhaseBoundary(0.0, PhaseKind.FULFILLMENT),
                             PhaseBoundary(12.5, PhaseKind.DRIFT)), end_t=16.5,
                            intent_tag="every-field", seed=17)
        for record in (phase, spec, truth):
            self.assert_no_default_left(record)
            assert list(record.to_dict()) == [f.name for f in fields(record)]
        assert PhaseSpec.from_dict(phase.to_dict()) == phase
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert GroundTruth.from_json(truth.to_json()) == truth
        assert truth.to_dict() == {"boundaries": [{"start_t": 0.0, "kind": "fulfillment"},
                                                  {"start_t": 12.5, "kind": "drift"}],
                                   "end_t": 16.5, "intent_tag": "every-field", "seed": 17}

    def test_missing_optional_keys_take_the_defaults(self):
        doc = {"intent_tag": "x", "phases": [{"kind": "drift", "duration": 3, "base_level": 40}]}
        spec = ScenarioSpec.from_dict(doc)
        assert spec == ScenarioSpec("x", (PhaseSpec(PhaseKind.DRIFT, 3.0, 40.0),))
        assert (spec.sample_period, spec.seed) == (1.0, 0)
        phase = spec.phases[0]
        assert (phase.end_level, phase.noise_std, phase.fluctuation_amp) == (40.0, 2.0, 0.0)
        nulls = {"kind": "normal", "duration": 2, "base_level": 10, "end_level": None,
                 "noise_std": None}
        assert PhaseSpec.from_dict(nulls) == PhaseSpec(PhaseKind.NORMAL, 2.0, 10.0)

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json("[1, 2]")
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_json('{"intent_tag": "x"}')

    @pytest.mark.parametrize("key, value, reason", [
        ("kind", "bogus", "'bogus' is not a valid PhaseKind"),
        ("duration", "abc", "could not convert string to float: 'abc'"),
        ("base_level", None, "base_level must be finite, got inf"),  # a null float is infinity
        ("duration", -1, "phase duration must be > 0"),
        ("base_level", -1, "base_level must be >= 0, got -1.0"),
        ("noise_std", -1, "noise_std must be >= 0, got -1.0"),
        ("fluctuation_amp", -1, "fluctuation_amp must be >= 0, got -1.0"),
        (None, 1, "expected an object, got 1"),  # the phase itself is not an object
    ])
    def test_malformed_documents_name_the_document_and_the_fault(self, key, value, reason):
        phase = value if key is None else {"kind": "drift", "duration": 9, "base_level": 100,
                                           key: value}

        def path(outer):  # a conversion error names its field path; a record's check its field
            if "must be" in reason:
                return ""
            return f"{outer}{key}: " if key else outer

        if key is None:  # phases that are not a list
            with pytest.raises(ScenarioError, match=f"^invalid scenario document: phases: "
                                                    f"expected a list, got {value}"):
                ScenarioSpec.from_dict({"intent_tag": "x", "phases": value})

        with pytest.raises(ScenarioError, match=f"^invalid phase document: {path('')}{reason}"):
            PhaseSpec.from_dict(phase)
        with pytest.raises(ScenarioError,
                           match=f"^invalid scenario document: {path('phases: ')}{reason}"):
            ScenarioSpec.from_dict({"intent_tag": "x", "phases": [phase]})
        boundary = {"start_t": 0, "kind": value if key == "kind" else "drift"}
        if key == "kind":
            with pytest.raises(ScenarioError,
                               match=f"^invalid ground-truth document: {path('boundaries: ')}{reason}"):
                GroundTruth.from_dict({"boundaries": [boundary], "end_t": 9})

    @pytest.mark.parametrize("doc", [{"phases": []}, {"intent_tag": "x"}])
    def test_missing_required_key_is_a_scenario_error(self, doc):
        with pytest.raises(ScenarioError, match="^invalid scenario document: '(intent_tag|phases)'"):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("text, reason", [("2.7", "2.7"), ("true", "True"), ("-1.5", "-1.5")])
    def test_a_fractional_or_boolean_seed_is_a_scenario_error(self, text, reason):
        doc = json.dumps({"intent_tag": "x", "phases": [DRIFT_PHASE], "seed": "VALUE"})
        with pytest.raises(ScenarioError, match=f"^invalid scenario document: seed: expected an integer, got {reason}$"):
            ScenarioSpec.from_json(doc.replace('"VALUE"', text))
        assert ScenarioSpec.from_json(doc.replace('"VALUE"', "4.0")).seed == 4

    @pytest.mark.parametrize("text, reason", [
        ("2.7", "expected an integer, got 2.7"),
        ('"x"', r"invalid literal for int\(\) with base 10: 'x'"),
    ])
    def test_a_truth_seed_that_is_no_integer_is_a_scenario_error(self, text, reason):
        doc = json.dumps({"boundaries": [{"start_t": 0, "kind": "drift"}], "end_t": 9, "seed": "VALUE"})
        with pytest.raises(ScenarioError, match=f"^invalid ground-truth document: seed: {reason}$"):
            GroundTruth.from_json(doc.replace('"VALUE"', text))
        assert GroundTruth.from_json(doc.replace('"VALUE"', "4.0")).seed == 4
        assert GroundTruth.from_json(doc.replace('"VALUE"', "null")).seed is None

    def test_an_overflowing_integer_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="^invalid scenario document: seed: cannot convert"):
            ScenarioSpec.from_json(json.dumps({"intent_tag": "x", "phases": [DRIFT_PHASE]})[:-1]
                                   + ', "seed": 1e999}')


class TestGenerateIsTheReference:
    """generate fills the series' columns in place; the stacked-copy oracle
    must give the same bits."""

    @staticmethod
    def assert_same(spec):
        series, truth = generate(spec)
        times, values, boundaries, end_t = generate_reference(spec)
        assert series.times().tobytes() == times.tobytes()
        assert series.values().tobytes() == values.tobytes()
        assert [(b.start_t, b.kind.value) for b in truth.boundaries] == boundaries
        assert truth.end_t == end_t

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets(self, preset, seed):
        self.assert_same(PRESETS[preset]().with_seed(seed))

    @pytest.mark.parametrize("period, n", [(0.5, 21_600), (0.3, 36_000)])
    def test_multi_hour_spec(self, period, n):
        spec = multi_hour_spec(seed=4, period=period)
        self.assert_same(spec)
        values = generate(spec)[0].values()
        # the failure phase sits near 0 with a wide walk, so the clamp bites
        assert values.size == n and (values == 0.0).any()

    def test_no_sample_is_still_an_error(self):
        # the handed-over columns are checked like any other series input
        spec = spec_of(PhaseSpec(PhaseKind.NORMAL, 1e-12, 5.0))
        with pytest.raises(TelemetryError, match=r"got shape \(0, 2\)"):
            generate(spec)


class TestGenerateMemory:
    def test_peak_is_the_columns_plus_one_phase_draw(self):
        spec = spec_of(
            PhaseSpec(PhaseKind.NORMAL, 180, 5000, noise_std=250),
            PhaseSpec(PhaseKind.FULFILLMENT, 49_622, 1200, noise_std=60),
            PhaseSpec(PhaseKind.DRIFT, 117, 1200, end_level=1450, noise_std=42, fluctuation_amp=250),
            PhaseSpec(PhaseKind.FAILURE, 81, 5000, noise_std=45, fluctuation_amp=560),
            period=0.5,
        )
        generate(spec)  # imports and caches outside the traced call
        tracemalloc.start()
        try:
            series, _ = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column_bytes = series.times().nbytes + series.values().nbytes
        assert len(series) == 100_000
        assert peak < 1.75 * column_bytes
