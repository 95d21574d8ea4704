"""Input validation helpers shared by the estimators and clustering engines."""

from __future__ import annotations

from typing import Any

import numpy as np


def as_values(x: Any, *, name: str = "data", min_len: int = 1) -> np.ndarray:
    """Coerce a batch, sequence, or array into a finite 1-D float array.

    Accepts anything with a non-callable ``values`` attribute (e.g. a
    telemetry batch) as well as plain sequences and numpy arrays.
    """
    raw = getattr(x, "values", None)
    if raw is None or callable(raw):
        raw = x
    arr = np.asarray(raw, dtype=float).ravel()
    if arr.size < min_len:
        raise ValueError(f"{name} needs at least {min_len} value(s), got {arr.size}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_positive(value: float, name: str) -> float:
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    value = float(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_count(value: int, name: str, *, minimum: int = 1) -> int:
    count = int(value)
    if count != value or count < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return count


def check_unit_fraction(value: float, name: str) -> float:
    """Validate a fraction in (0, 1]."""
    value = float(value)
    if not 0 < value <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {value}")
    return value
