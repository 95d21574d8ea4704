"""Synthetic intent-lifecycle scenarios with ground-truth phase labels.

A scenario walks a monitored throughput metric through the four lifecycle
phases: normal operation, intent fulfillment, drift (gradual degradation),
and failure.  Generation is fully deterministic per seed, so detector scores
computed on generated series are reproducible bit-for-bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .telemetry import Batch, Series
from .validation import Document, check_positive

__all__ = [
    "ScenarioError",
    "PhaseKind",
    "PhaseSpec",
    "ScenarioSpec",
    "PhaseBoundary",
    "GroundTruth",
    "generate",
    "preset_security",
    "preset_qos",
    "PRESETS",
    "label_batch",
]


class ScenarioError(ValueError):
    """Invalid scenario definition or out-of-span query."""


class PhaseKind(enum.Enum):
    NORMAL = "normal"
    FULFILLMENT = "fulfillment"
    DRIFT = "drift"
    FAILURE = "failure"


#: Phases counted as ground-truth positives: degradation and outright failure.
DEGRADED_KINDS = frozenset({PhaseKind.DRIFT, PhaseKind.FAILURE})

# Scale of one random-walk step relative to the fluctuation bound.  Large
# steps keep the clipped walk parked at its bounds, which is what makes a
# degrading metric oscillate between its residual and excursion levels.
_WALK_STEP_FACTOR = 10.0


@dataclass(frozen=True)
class PhaseSpec(Document, what="phase", error=ScenarioError):
    """One lifecycle phase: a level, its duration, and its texture.

    ``end_level`` (drift phases only) sets a linear trend target; other kinds
    hold ``base_level``.  ``noise_std`` defaults to 5% of the base level.
    ``fluctuation_amp`` bounds a seeded random-walk excursion and is only
    meaningful for drift and failure phases, whose metric oscillates rather
    than sitting at a clean level.
    """

    kind: PhaseKind
    duration: float
    base_level: float
    end_level: float | None = None
    noise_std: float | None = None
    fluctuation_amp: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PhaseKind):
            object.__setattr__(self, "kind", PhaseKind(self.kind))
        if self.end_level is None:
            object.__setattr__(self, "end_level", float(self.base_level))
        if self.noise_std is None:
            object.__setattr__(self, "noise_std", 0.05 * float(self.base_level))
        _check_finite(self, "duration", "base_level", "end_level", "noise_std", "fluctuation_amp")
        if not self.duration > 0:
            raise ScenarioError(f"phase duration must be > 0, got {self.duration}")
        if self.base_level < 0:
            raise ScenarioError(f"base_level must be >= 0, got {self.base_level}")
        if self.noise_std < 0:
            raise ScenarioError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.fluctuation_amp < 0:
            raise ScenarioError(f"fluctuation_amp must be >= 0, got {self.fluctuation_amp}")
        if self.kind is not PhaseKind.DRIFT and self.end_level != self.base_level:
            raise ScenarioError(f"{self.kind.value} phases cannot trend; end_level must equal base_level")
        if self.kind not in DEGRADED_KINDS and self.fluctuation_amp != 0.0:
            raise ScenarioError(f"{self.kind.value} phases cannot fluctuate; fluctuation_amp must be 0")


@dataclass(frozen=True)
class ScenarioSpec(Document, what="scenario", error=ScenarioError):
    """A seeded lifecycle definition: tagged intent, phases, sampling rate."""

    intent_tag: str
    phases: tuple[PhaseSpec, ...]
    sample_period: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ScenarioError("scenario needs at least one phase")
        _check_finite(self, "sample_period")
        check_positive(self.sample_period, "sample_period")

    @property
    def total_duration(self) -> float:
        return float(sum(p.duration for p in self.phases))

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class PhaseBoundary:
    start_t: float
    kind: PhaseKind


@dataclass(frozen=True)
class GroundTruth(Document, what="ground-truth", error=ScenarioError):
    """Phase start times (first at t=0) plus the scenario end time, and the
    intent tag and seed of the scenario generated (unset when built by hand)."""

    boundaries: tuple[PhaseBoundary, ...]
    end_t: float
    intent_tag: str = ""
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        _check_finite(self, "end_t")
        if not self.boundaries or self.boundaries[0].start_t != 0.0:
            raise ScenarioError("ground truth must start at t = 0")
        starts = [b.start_t for b in self.boundaries]
        if sorted(starts) != starts or not all(map(math.isfinite, starts)):
            raise ScenarioError(f"boundaries must be ordered by finite start times, got {starts}")

    def phase_at(self, t: float) -> PhaseKind:
        if t < 0 or t >= self.end_t + 1e-9:
            raise ScenarioError(f"t={t} outside scenario span [0, {self.end_t})")
        kind = self.boundaries[0].kind
        for b in self.boundaries:
            if b.start_t <= t:
                kind = b.kind
            else:
                break
        return kind

    def is_degraded_at(self, t: float) -> bool:
        return self.phase_at(t) in DEGRADED_KINDS

    def drift_onsets(self) -> tuple[float, ...]:
        return tuple(b.start_t for b in self.boundaries if b.kind is PhaseKind.DRIFT)


def _check_finite(record: Any, *names: str) -> None:
    """Raise ScenarioError naming the first of record's fields that is not finite."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ScenarioError(f"{name} must be finite, got {value}")


def generate(spec: ScenarioSpec) -> tuple[Series, GroundTruth]:
    """Generate the throughput series and ground truth for a scenario.

    Per sample: phase level (linear base-to-end ramp inside drift phases),
    plus Gaussian noise, plus a clipped random-walk excursion bounded by
    ``fluctuation_amp`` in drift/failure phases; clamped at zero.  Identical
    (spec, seed) pairs produce bit-identical series.
    """
    rng = np.random.default_rng(spec.seed)
    period = spec.sample_period
    total = spec.total_duration
    n = int(np.ceil(total / period - 1e-9))
    # The series keeps this array; each phase fills its slice of the value
    # row in place, so beyond it only one phase-length temporary is alive.
    columns = np.empty((2, n))
    ts, values = columns
    np.multiply(np.arange(n), period, out=ts)

    boundaries: list[PhaseBoundary] = []
    start = 0.0
    lo = 0
    for phase in spec.phases:
        boundaries.append(PhaseBoundary(start, phase.kind))
        end = start + phase.duration
        hi = int(np.searchsorted(ts, end - 1e-9, side="left"))
        level = values[lo:hi]  # base + (end - base) * ((t - start) / duration)
        np.subtract(ts[lo:hi], start, out=level)
        level /= phase.duration
        level *= phase.end_level - phase.base_level
        level += phase.base_level
        level += rng.normal(0.0, phase.noise_std, hi - lo)
        if phase.fluctuation_amp > 0:
            level += _bounded_walk(rng, hi - lo, phase.fluctuation_amp)
        start, lo = end, hi

    np.clip(values, 0.0, None, out=values)
    series = Series._adopt(columns, meta=spec.intent_tag)
    return series, GroundTruth(tuple(boundaries), total, spec.intent_tag, spec.seed)


def _bounded_walk(rng: np.random.Generator, n: int, amp: float) -> np.ndarray:
    """Seeded random walk clipped to [-amp, amp]; big steps pin it at the bounds."""
    steps = rng.normal(0.0, _WALK_STEP_FACTOR * amp, n)
    walk = np.empty(n)
    cur = 0.0
    for i in range(n):
        cur = min(max(cur + steps[i], -amp), amp)
        walk[i] = cur
    return walk


# ---------------------------------------------------------------------------
# Presets.  Levels, noise, and excursion bounds below are calibration
# constants for the two reference intents (ingress restriction after an
# attack; QoS bandwidth cap).  Boundaries land on the 9 s batch grid so that
# no evaluation batch straddles a phase change.
# ---------------------------------------------------------------------------

def preset_security() -> ScenarioSpec:
    """Attack-mitigation intent: restrict ingress traffic to the victim host.

    An attack around 140 s triggers the restriction; fulfillment holds a low
    throughput for 130 s; drift creeps and oscillates upward; failure returns
    to attack-level throughput.
    """
    phases = (
        PhaseSpec(PhaseKind.NORMAL, 140.0, 3000.0, noise_std=150.0),
        PhaseSpec(PhaseKind.FULFILLMENT, 130.0, 800.0, noise_std=40.0),
        PhaseSpec(PhaseKind.DRIFT, 117.0, 800.0, end_level=980.0,
                  noise_std=28.0, fluctuation_amp=170.0),
        PhaseSpec(PhaseKind.FAILURE, 90.0, 9000.0, noise_std=30.0,
                  fluctuation_amp=380.0),
    )
    return ScenarioSpec("intent-b-security", phases, sample_period=0.5, seed=7)


def preset_qos() -> ScenarioSpec:
    """QoS intent: cap ingress bandwidth to a host under load.

    Fulfillment starts near 180 s and drift onset lands near 400 s.
    """
    phases = (
        PhaseSpec(PhaseKind.NORMAL, 180.0, 5000.0, noise_std=250.0),
        PhaseSpec(PhaseKind.FULFILLMENT, 216.0, 1200.0, noise_std=60.0),
        PhaseSpec(PhaseKind.DRIFT, 117.0, 1200.0, end_level=1450.0,
                  noise_std=42.0, fluctuation_amp=250.0),
        PhaseSpec(PhaseKind.FAILURE, 81.0, 5000.0, noise_std=45.0,
                  fluctuation_amp=560.0),
    )
    return ScenarioSpec("intent-d-qos", phases, sample_period=0.5, seed=11)


PRESETS = {"security": preset_security, "qos": preset_qos}


def label_batch(batch: Batch, truth: GroundTruth) -> bool:
    """Ground-truth label: batch midpoint falls in a drift or failure phase."""
    if batch.start_t < -1e-9 or batch.end_t > truth.end_t + 1e-9:
        raise ScenarioError(
            f"batch [{batch.start_t}, {batch.end_t}) outside scenario span [0, {truth.end_t})"
        )
    return truth.is_degraded_at(batch.midpoint)
