import pytest

from driftwatch.detectors import DriftDetector
from driftwatch.scenario import PhaseKind, PhaseSpec, ScenarioSpec, generate


def monitoring_max(values) -> float:
    return DriftDetector("greedy").fit(values).state_.monitoring_max


def test_maximum():
    assert monitoring_max([1, 5, 3]) == 5.0


def test_single_value():
    assert monitoring_max([7]) == 7.0


def test_empty_errors():
    with pytest.raises(ValueError):
        monitoring_max([])


def test_constant_scenario_max():
    spec = ScenarioSpec(
        "flat", (PhaseSpec(PhaseKind.NORMAL, 20, 100, noise_std=0),), seed=0
    )
    series, _ = generate(spec)
    assert monitoring_max(series.values()) == 100.0
