"""Throughput telemetry: samples, series, CSV ingestion, and batching.

A series is an ordered run of (seconds, kb/s) measurements.  Detectors never
see a series directly; they consume :class:`Batch` windows cut from it.
Series and batches hold their numbers in read-only float64 arrays, so they
are safe to share across threads.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

import numpy as np

from .validation import check_positive

__all__ = [
    "TelemetryError",
    "ThroughputSample",
    "Series",
    "Batch",
    "ingest_csv",
    "render_csv",
    "batchify",
]

CSV_HEADER = "t,kbps"

# Rows per slice that render_csv turns into Python floats: its working memory
# is two lists of this many floats, whatever the series length.
_CSV_CHUNK = 4096


class TelemetryError(ValueError):
    """Malformed or inconsistent telemetry input."""


class ThroughputSample(NamedTuple):
    """One (seconds since series start, kb/s) pair of a :class:`Series`."""

    t: float
    value: float


def _check(times: np.ndarray, values: np.ndarray, where=lambda i: "") -> None:
    """Raise :class:`TelemetryError`, prefixed with ``where(i)``, for the first
    sample i that breaks a series invariant: time and value finite and >= 0,
    times strictly increasing."""
    bad_t = ~(np.isfinite(times) & (times >= 0))
    bad_v = ~(np.isfinite(values) & (values >= 0))
    stalled = np.concatenate(([False], times[1:] <= times[:-1]))
    bad = np.flatnonzero(bad_t | bad_v | stalled)
    if not bad.size:
        return
    i = int(bad[0])
    if bad_t[i]:
        reason = f"sample time must be finite and >= 0, got {float(times[i])}"
    elif bad_v[i]:
        reason = f"throughput must be finite and >= 0, got {float(values[i])}"
    else:
        reason = f"timestamp {float(times[i])} does not advance past {float(times[i - 1])}"
    raise TelemetryError(where(i) + reason)


class Series:
    """An ordered, strictly increasing-in-time run of throughput samples.

    ``samples`` is a sequence of ``(t, value)`` pairs, such as
    :class:`ThroughputSample`, or an (n, 2) array.  The series keeps them as
    two read-only float64 columns, which ``times()`` and ``values()`` return
    without copying.
    """

    def __init__(self, samples, meta: str = "") -> None:
        pairs = np.asarray(samples, dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise TelemetryError(f"series needs (t, value) pairs, got shape {pairs.shape}")
        self._own(pairs.T.copy(), meta)

    @classmethod
    def _adopt(cls, columns: np.ndarray, meta: str = "", where=lambda i: "") -> "Series":
        """A series that keeps ``columns``, a (2, n) float64 array no one else
        holds, without copying it (see :meth:`_own`)."""
        return cls.__new__(cls)._own(columns, meta, where)

    def _own(self, columns: np.ndarray, meta: str, where=lambda i: "") -> "Series":
        """Keep ``columns``, a (2, n) float64 array no one else holds, once it
        passes :func:`_check` (errors prefixed with ``where(i)``)."""
        if not columns.size:
            raise TelemetryError(f"series needs (t, value) pairs, got shape {columns.T.shape}")
        _check(*columns, where)
        columns.flags.writeable = False
        self._columns, self.meta = columns, meta
        return self

    @property
    def samples(self) -> tuple[ThroughputSample, ...]:
        """The samples as (t, value) pairs, built on each call."""
        return tuple(map(ThroughputSample, *self._columns.tolist()))

    def __len__(self) -> int:
        return self._columns.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.meta == other.meta and np.array_equal(self._columns, other._columns)

    def times(self) -> np.ndarray:
        return self._columns[0]

    def values(self) -> np.ndarray:
        return self._columns[1]


@dataclass(frozen=True, eq=False, slots=True)
class Batch:
    """A contiguous window of throughput values covering [start_t, end_t).

    ``values`` is kept as a read-only float64 array: a read-only input (a
    view of a series column) as it is, anything else as a copy.  Batches
    compare by identity, and :func:`batchify`'s result builds a new batch on
    every access, so two reads of the same window give batches that hold the
    same numbers but compare unequal.
    """

    start_t: float
    end_t: float
    values: np.ndarray = ()

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if not self.start_t < self.end_t:
            raise TelemetryError(f"batch needs start_t < end_t, got [{self.start_t}, {self.end_t})")
        if not values.size:
            raise TelemetryError("batch must contain at least one value")

    def __len__(self) -> int:
        return self.values.size

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.start_t + self.end_t)


def ingest_csv(source: IO[bytes] | IO[str], meta: str = "") -> Series:
    """Parse `t_seconds,throughput_kbps` lines into a series.

    A single leading header line is skipped when its first column is not
    numeric.  Raises :class:`TelemetryError` with the line number of the first
    bad record: malformed, non-monotonic in time, negative or non-finite.
    Raises it too on empty input.

    A seekable source goes to numpy's C reader in one call, once line 1 has
    been read under the header rule.  Its rows are kept only when each has two
    fields and the columns pass the series checks.  Any other input, and any
    source that cannot be rewound, is read by the per-line loop, which gives
    the same series or the same line-numbered error.  Only that loop reads
    what numpy's reader refuses (``1_0``, non-ASCII digits, whitespace-only
    lines, a bare ``\\r``, invalid UTF-8), and only it can name the line of a
    bad record, since numpy skips blank lines without counting them.
    """
    start = _position(source)
    if start is not None:
        try:
            rows = _loadtxt_rows(source, start)
            if rows is not None:
                return Series(rows, meta)
        except ValueError:  # UTF-8, numpy's reader or the series checks refuse it
            pass
        source.seek(start)
    return _ingest_lines(source, meta)


def _position(source) -> int | None:
    """Where a seekable source stands, or None when it cannot be rewound."""
    try:
        return source.tell() if source.seekable() else None
    except (AttributeError, OSError):  # not a file, or a text file mid-iteration
        return None


def _loadtxt_rows(source, start: int) -> np.ndarray | None:
    """The (n, k) rows numpy's reader parses once line 1's header rule is
    applied, or None when the line after a header or blank line 1 is blank
    too (numpy warns on a body with no rows)."""
    first = source.readline()
    line = (first.decode("utf-8") if isinstance(first, bytes) else first).strip()
    if line and _is_number(line.split(",")[0]):
        source.seek(start)  # line 1 is a record
    else:
        body = source.tell()
        if not source.readline().strip():
            return None
        source.seek(body)
    return np.loadtxt(source, delimiter=",", comments=None, dtype=float, ndmin=2,
                      encoding="utf-8")


def _ingest_lines(source: Iterable[bytes] | Iterable[str], meta: str = "") -> Series:
    """:func:`ingest_csv` one line at a time, with each error's line number."""
    times, values, linenos = array("d"), array("d"), array("q")
    at_line = lambda i: f"line {linenos[i]}: "  # noqa: E731

    def fail(lineno: int, message: str) -> TelemetryError:
        _check(np.frombuffer(times), np.frombuffer(values), at_line)  # earlier records first
        return TelemetryError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise fail(lineno, f"not valid UTF-8 ({exc})") from exc
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if lineno == 1 and not _is_number(fields[0]):
            continue  # header
        if len(fields) != 2:
            raise fail(lineno, f"expected 2 comma-separated fields, got {len(fields)}")
        try:
            t, value = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise fail(lineno, str(exc)) from exc
        times.append(t)
        values.append(value)
        linenos.append(lineno)
    if not times:
        raise TelemetryError("no samples found in input")
    columns = np.array((np.frombuffer(times), np.frombuffer(values)))
    return Series._adopt(columns, meta, at_line)


def render_csv(series: Series, sink: IO[str], *, header: bool = True) -> None:
    """Write a series in the CSV wire format (full float precision).

    Rows are converted to Python floats a slice of ``_CSV_CHUNK`` at a time,
    so the working memory does not grow with the series.
    """
    if header:
        sink.write(CSV_HEADER + "\n")
    times, values = series.times(), series.values()
    for lo in range(0, times.size, _CSV_CHUNK):
        hi = lo + _CSV_CHUNK
        for t, value in zip(times[lo:hi].tolist(), values[lo:hi].tolist()):
            sink.write(f"{t!r},{value!r}\n")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def batchify(series: Series, batch_len: float = 9.0, stride: float = 9.0) -> Sequence[Batch]:
    """Cut a series into windows [i*stride, i*stride + batch_len).

    Windows whose full span does not fit inside the series (the series end is
    the last timestamp plus the median sample gap) are dropped, as are windows
    that contain no samples.  Overlap (stride < batch_len) and gaps
    (stride > batch_len) are both allowed.

    The result is a read-only sequence that keeps the window starts and
    sample ranges as arrays and builds each :class:`Batch` when it is read;
    a slice of it is a list.
    """
    batch_len = check_positive(batch_len, "batch_len")
    stride = check_positive(stride, "stride")
    times, values = series.times(), series.values()
    span_end = float(times[-1] + _median(np.diff(times))) if times.size >= 2 else float(times[-1])
    limit = span_end + 1e-9 * max(1.0, batch_len)
    starts = np.arange(int(limit // stride) + 2) * stride
    starts = starts[starts + batch_len <= limit]
    lo = np.searchsorted(times, starts, side="left")
    hi = np.searchsorted(times, starts + batch_len, side="left")
    filled = hi > lo
    return _Batches(values, batch_len, starts[filled], lo[filled], hi[filled])


def _median(a: np.ndarray) -> np.float64:
    """``np.median(a)`` of a NaN-free float array, partitioning ``a`` in place.

    Like numpy, it takes the mean of the middle one or two values; unlike
    ``np.median`` it neither copies ``a`` nor imports ``numpy.ma`` for a NaN
    check.
    """
    mid, odd = divmod(a.size, 2)
    a.partition([mid] if odd else [mid - 1, mid])
    return np.mean(a[mid - 1 + odd:mid + 1])


class _Batches(Sequence):
    """:func:`batchify`'s windows: window i covers [starts[i], starts[i] +
    batch_len) and holds ``values[lo[i]:hi[i]]``.  Indexing builds the
    :class:`Batch`; a slice gives a list of them."""

    __slots__ = ("_values", "_batch_len", "_starts", "_lo", "_hi")

    def __init__(self, values: np.ndarray, batch_len: float, starts: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> None:
        self._values, self._batch_len = values, batch_len
        self._starts, self._lo, self._hi = starts, lo, hi

    def __len__(self) -> int:
        return self._starts.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        start = float(self._starts[i])  # IndexError past either end, as on a list
        return Batch(start, start + self._batch_len, self._values[self._lo[i]:self._hi[i]])


def concat_values(batches: Iterable[Batch]) -> np.ndarray:
    """Concatenate batch values in order (training-window helper)."""
    chunks = [b.values for b in batches]
    if not chunks:
        raise TelemetryError("cannot concatenate zero batches")
    return np.concatenate(chunks)
