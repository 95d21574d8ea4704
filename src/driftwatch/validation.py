"""Input validation helpers shared by the estimators and clustering engines,
and the one JSON codec of the package's records (:func:`to_doc` /
:func:`from_doc`)."""

from __future__ import annotations

import enum
import math
import types
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, Union, get_args, get_origin, get_type_hints

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
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
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


def to_doc(value: Any) -> Any:
    """A value as JSON holds it: a dataclass as an object of its compared
    fields in declaration order, a mapping by item, a tuple or list as a
    list, an enum by its value, and an infinite float as null (JSON has no
    infinity)."""
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value) if f.compare}
    if isinstance(value, Mapping):
        return {k: to_doc(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_doc(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return None if isinstance(value, float) and math.isinf(value) else value


def from_doc(cls: type, doc: Mapping[str, Any]) -> Any:
    """Build dataclass cls from what :func:`to_doc` writes.

    A field with a default may be missing; a missing required key raises
    KeyError, and keys that are not fields are ignored.  Each value is read
    by its annotation: ``X | None`` keeps a null, ``tuple[R, ...]`` and
    ``dict[str, R]`` read R records when R is a dataclass, a float reads
    null as infinity, and any other scalar type is called on the value; an
    int refuses a bool and a number with a fraction (ValueError).
    """
    hints = get_type_hints(cls)
    return cls(**{f.name: _read(hints[f.name], doc[f.name]) for f in fields(cls)
                  if f.name in doc or f.default is MISSING and f.default_factory is MISSING})


def _read(kind: Any, value: Any) -> Any:
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, types.UnionType):  # X | None
        return None if value is None else _read(args[0], value)
    if origin is not None:
        record = args[1] if origin is dict else args[0]
        if not is_dataclass(record):
            return value
        if origin is dict:
            return {k: from_doc(record, v) for k, v in value.items()}
        return origin(from_doc(record, v) for v in value)
    if kind is float and value is None:
        return math.inf
    result = kind(value)
    if kind is int and (isinstance(value, bool) or isinstance(value, float) and result != value):
        raise ValueError(f"expected an integer, got {value!r}")
    return result
