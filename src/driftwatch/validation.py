"""Input validation helpers shared by the estimators and clustering engines,
and the one JSON codec of the package's records: :func:`to_doc`,
:func:`from_doc` and :class:`Document`, a record's JSON text methods."""

from __future__ import annotations

import enum
import json
import math
import types
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, TypeVar, Union, get_args, get_origin, get_type_hints

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


def check_positive(value: float, name: str, *, finite: bool = False, zero: bool = False) -> float:
    """Refuse a value that is not > 0 (not >= 0 with ``zero``) and, with
    ``finite``, +inf; the message names the bound the value misses."""
    value = float(value)
    bound = ">= 0" if zero else "> 0"
    if not (value >= 0 if zero else value > 0):
        raise ValueError(f"{name} must be {bound}, got {value}")
    if finite and value == math.inf:
        raise ValueError(f"{name} must be finite and {bound}, got {value}")
    return value


def check_count(value: int, name: str, *, minimum: int = 1) -> int:
    """Refuse a bool, a fraction, a non-finite number and a count below minimum."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if isinstance(value, bool) or count is None or count != value or count < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return count


def to_doc(value: Any) -> Any:
    """A value as JSON holds it: a dataclass as an object of its compared
    fields in declaration order, a mapping by item, a tuple or list as a
    list, an enum by its value, and +inf as null.  JSON has no infinity and
    no NaN, and null reads back as +inf, so NaN and -inf raise ValueError."""
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value) if f.compare}
    if isinstance(value, Mapping):
        return {k: to_doc(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_doc(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float) and not math.isfinite(value):
        if value == math.inf:
            return None
        raise ValueError(f"JSON has no {value}; only +inf is written, as null")
    return value


def from_doc(cls: type, doc: Mapping[str, Any]) -> Any:
    """Build dataclass cls from what :func:`to_doc` writes.

    A field with a default may be missing; a missing required key raises
    KeyError, and keys that are not fields are ignored.  Each value is read
    by its annotation: ``X | None`` keeps a null, ``tuple[R, ...]`` and
    ``dict[str, R]`` read R records when R is a dataclass, a float reads
    null as infinity, and any other scalar type is called on the value; an
    int refuses a bool and a number with a fraction.  A value its type cannot
    read, and a record or a list of records that is not an object or a list,
    raises ValueError prefixed with its field path, outer field first
    (``phases: duration: ...``); a record's own checks' errors pass as they are.
    """
    return _record(cls, doc, "")


def _record(cls: type, doc: Mapping[str, Any], path: str) -> Any:
    if not isinstance(doc, Mapping):
        raise ValueError(f"{path}expected an object, got {doc!r}")
    hints = get_type_hints(cls)
    return cls(**{f.name: _read(hints[f.name], doc[f.name], f"{path}{f.name}: ")
                  for f in fields(cls)
                  if f.name in doc or f.default is MISSING and f.default_factory is MISSING})


def _read(kind: Any, value: Any, path: str) -> Any:
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, types.UnionType):  # X | None
        return None if value is None else _read(args[0], value, path)
    if origin is not None:
        record = args[1] if origin is dict else args[0]
        if not is_dataclass(record):
            return value
        if not isinstance(value, Mapping if origin is dict else list):
            expected = "an object" if origin is dict else "a list"
            raise ValueError(f"{path}expected {expected}, got {value!r}")
        if origin is dict:
            return {k: _record(record, v, path) for k, v in value.items()}
        return origin(_record(record, v, path) for v in value)
    if kind is float and value is None:
        return math.inf
    try:
        result = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}{exc}") from exc
    if kind is int and (isinstance(value, bool) or isinstance(value, float) and result != value):
        raise ValueError(f"{path}expected an integer, got {value!r}")
    return result


_D = TypeVar("_D", bound="Document")


class Document:
    """Base of a dataclass record written as one JSON document.  A subclass
    names the document and its readers' error in its class statement, as
    ``class ScenarioSpec(Document, what="scenario", error=ScenarioError)``;
    a reader raises that error for every fault, as "invalid <what> JSON: ...",
    "<what> JSON must be an object" or "invalid <what> document: ..."."""

    __slots__ = ()

    def __init_subclass__(cls, *, what: str | None = None, error: type[Exception] | None = None) -> None:
        super().__init_subclass__()
        if what is not None and error is not None:
            cls._what, cls._error = what, error
        elif not {"_what", "_error"} <= cls.__dict__.keys():  # slots=True rebuilds without keywords
            raise TypeError(f"{cls.__name__} must name what= and error= in its class statement")

    def to_dict(self) -> dict[str, Any]:
        return to_doc(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls: type[_D], doc: Mapping[str, Any]) -> _D:
        try:
            return from_doc(cls, doc)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise cls._error(f"invalid {cls._what} document: {exc}") from exc

    @classmethod
    def from_json(cls: type[_D], text: str) -> _D:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise cls._error(f"invalid {cls._what} JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise cls._error(f"{cls._what} JSON must be an object")
        return cls.from_dict(doc)
