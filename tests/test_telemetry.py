import contextlib
import io
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from driftwatch import telemetry
from driftwatch.telemetry import (
    Batch,
    Series,
    TelemetryError,
    ThroughputSample,
    batchify,
    ingest_csv,
    render_csv,
)

from oracles import batchify_reference, render_csv_reference


def make_series(values, period=1.0):
    return Series(tuple(ThroughputSample(i * period, v) for i, v in enumerate(values)))


class TestIngestCsv:
    def test_plain_records(self):
        series = ingest_csv(io.StringIO("0,100\n1,101\n2,99"))
        assert len(series) == 3
        assert series.samples[0] == ThroughputSample(0.0, 100.0)
        assert series.samples[2] == ThroughputSample(2.0, 99.0)

    def test_header_detected_and_skipped(self):
        series = ingest_csv(io.StringIO("t,kbps\n0,100"))
        assert len(series) == 1
        assert series.samples[0].value == 100.0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(TelemetryError, match="line 2"):
            ingest_csv(io.StringIO("0,100\n0.5,abc"))

    def test_byte_stream(self):
        series = ingest_csv(io.BytesIO(b"t,kbps\n0,1\n1,2\n"))
        assert [s.value for s in series.samples] == [1.0, 2.0]

    def test_non_monotonic_rejected(self):
        with pytest.raises(TelemetryError, match="line 3"):
            ingest_csv(io.StringIO("0,1\n2,1\n1,1"))

    def test_negative_value_rejected(self):
        with pytest.raises(TelemetryError, match="line 1"):
            ingest_csv(io.StringIO("0,-5"))

    def test_empty_input_rejected(self):
        with pytest.raises(TelemetryError, match="no samples"):
            ingest_csv(io.StringIO(""))
        with pytest.raises(TelemetryError, match="no samples"):
            ingest_csv(io.StringIO("t,kbps\n"))

    def test_wrong_field_count(self):
        with pytest.raises(TelemetryError, match="line 2"):
            ingest_csv(io.StringIO("0,1\n1,2,3"))

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(42)
        times = np.cumsum(rng.uniform(0.1, 3.0, 50))
        series = Series(
            tuple(ThroughputSample(float(t), float(v))
                  for t, v in zip(times, rng.uniform(0, 1e4, 50)))
        )
        sink = io.StringIO()
        render_csv(series, sink)
        assert ingest_csv(io.StringIO(sink.getvalue())) == series


class TestColumns:
    def test_series_columns_are_read_only(self):
        series = make_series([1.0, 2.0, 3.0])
        for column in (series.values(), series.times()):
            with pytest.raises(ValueError):
                column[0] = 5.0

    def test_batch_values_are_read_only(self):
        batch = batchify(make_series(range(18)), 9, 9)[0]
        with pytest.raises(ValueError):
            batch.values[0] = 5.0

    def test_batch_keeps_a_read_only_copy_of_a_writable_array(self):
        values = np.array([1.0, 2.0])
        batch = Batch(0, 1, values)
        values[0] = 7.0
        assert batch.values.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            batch.values[1] = 5.0

    def test_batch_equality_does_not_raise(self):
        a, b = batchify(make_series(range(18)), 9, 9)
        assert a == a
        assert a != b

    def test_array_and_samples_build_equal_series(self):
        rng = np.random.default_rng(5)
        pairs = np.stack((np.cumsum(rng.uniform(0.1, 2.0, 30)), rng.uniform(0, 1e3, 30)), axis=1)
        from_samples = Series(tuple(ThroughputSample(t, v) for t, v in pairs))
        assert Series(pairs) == from_samples
        assert from_samples.samples == tuple(ThroughputSample(t, v) for t, v in pairs.tolist())
        assert Series(pairs, meta="other") != from_samples

    @pytest.mark.parametrize("text, line", [
        ("0,1\n\n2,-1", 3),  # the blank line still counts
        ("0,1\n1,nan", 2),
        ("t,kbps\n0,1\n1,inf", 3),
        ("0,1\n1,-1\n2,abc", 2),  # an earlier bad record comes before a parse error
        ("0,1\n1,1\n1,2\n3,x,y", 3),
        ("0,1\n\n1,2\n\n1,3", 5),  # non-advancing time after a blank line
        ("t,kbps\n\n0,1\n\n-1,2", 5),
        ("0,1\r\n1,-1\r\n", 2),
        ("0,1\n1,1e400", 2),  # overflows to inf
        ("0,1\n20,1\n1_0,2", 3),  # Python reads 1_0 as 10
        ("0,1\n\t\n0,2", 3),  # numpy refuses the whitespace-only line
    ])
    def test_first_bad_record_names_its_line(self, text, line):
        for source in (io.StringIO(text), io.BytesIO(text.encode())):
            with pytest.raises(TelemetryError, match=f"^line {line}: "):
                ingest_csv(source)


#: Inputs on both sides of numpy's reader: what it parses, what it refuses,
#: and what it parses but the series checks reject.
INGEST_CASES = [
    b"t,kbps\n0,1\n1,2\n",
    b"0,1\n1,2\n",
    b"0,1\n1,2",
    b"t,kbps\n\n0,1\n\n1,2\n\n",
    b"\n0,1\n1,2\n",
    b"\nt,kbps\n0,1\n",  # only line 1 may be a header
    b"t,kbps\n \n0,1\n",
    b"0,1\n\t \n1,2\n",
    b"t,kbps\r\n0,1\r\n1,2\r\n",
    b"0,1\r1,2\r",
    b"0,1\n\r\n1,2\n",
    b" 0 , 1 \n\t1\t,\t2\t\n",
    b"0,1\n1_0,2\n",
    b"0,\xd9\xa1\n",  # an Arabic-Indic digit one
    b"0,1\n1,2\xc2\xa0\n",  # a trailing no-break space
    b"\xef\xbb\xbft,kbps\n0,1\n",
    b"\xef\xbb\xbf0,1\n1,2\n",  # a BOM makes line 1 a header
    b"t,kb\xffps\n0,1\n",
    b"0,1\n1,2\xa0\n",
    b"#t,kbps\n0,1\n",
    b"0,1\n#1,2\n",
    b"0,1 # note\n",
    b"0\n1\n",
    b"0,1,2\n1,2,3\n",
    b"0,1\n1,2,3\n",
    b"0,1,\n",
    b"0,nan\n",
    b"0,1\n1,inf\n",
    b"0,1\n1,1e400\n",
    b"0,-1\n",
    b"-1,1\n",
    b"0,1\n\n1,2\n\n1,3\n",
    b"0,1\n2,1\n\n1,1\n",
    b"0,Infinity\n",
    b"0,0x10\n",
    b"0,1e5\n1,+2.5\n2,.5\n3,4.\n",
    b"",
    b"t,kbps\n",
    b"t,kbps\n\n",
    b"\n\n",
    b"t,kbps\n\n\n0,1\n",
]


def _outcome(read, source):
    """A series' columns as bytes, or the message of the TelemetryError raised."""
    try:
        series = read(source)
    except TelemetryError as exc:
        return str(exc)
    assert not series.times().flags.writeable and not series.values().flags.writeable
    return series.times().tobytes(), series.values().tobytes()


@pytest.mark.filterwarnings("error")  # numpy's reader warns on a body with no rows
class TestIngestPaths:
    """``ingest_csv`` against its per-line loop, the reference for every input."""

    @pytest.mark.parametrize("data", INGEST_CASES)
    def test_same_columns_or_error_as_the_line_loop(self, data):
        sources = [data]
        with contextlib.suppress(UnicodeDecodeError):
            sources.append(data.decode("utf-8"))
        for raw in sources:
            make = io.BytesIO if isinstance(raw, bytes) else io.StringIO
            assert _outcome(ingest_csv, make(raw)) == _outcome(telemetry._ingest_lines, make(raw))

    def test_a_clean_capture_skips_the_line_loop(self, monkeypatch):
        def refuse(source, meta=""):
            raise AssertionError("per-line loop used")

        monkeypatch.setattr(telemetry, "_ingest_lines", refuse)
        for data in (b"t,kbps\n0,1\n1,2\n", b"0,1\r\n1,2\r\n"):
            series = ingest_csv(io.BytesIO(data), meta="m")
            assert series == Series([(0, 1), (1, 2)], meta="m")
            assert ingest_csv(io.StringIO(data.decode())) == Series([(0, 1), (1, 2)])

    def test_source_that_cannot_rewind_uses_the_line_loop(self):
        lines = ["t,kbps\n", "0,1\n", "1,2\n"]
        assert ingest_csv(lines) == ingest_csv(iter(lines)) == Series([(0, 1), (1, 2)])
        with pytest.raises(TelemetryError, match="^line 3: "):
            ingest_csv(iter(["0,1\n", "\n", "0,2\n"]))

    def test_reads_on_from_where_the_handle_stands(self):
        handle = io.StringIO("t,kbps\n0,1\n1,2\n")
        handle.readline()
        assert ingest_csv(handle) == Series([(0, 1), (1, 2)])
        handle = io.BytesIO(b"t,kbps\n0,1\n\n0,2\n")
        handle.readline()
        with pytest.raises(TelemetryError, match="^line 3: "):  # the loop rewinds to line 2
            ingest_csv(handle)


def awkward_series(n, seed=0):
    # uneven steps and values that need all 17 significant digits, plus 0,
    # a subnormal and a huge value
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.001, 2.0, n))
    values = rng.lognormal(6.0, 2.0, n)
    values[:3] = 0.0, 5e-324, 1.5e300
    return Series(np.column_stack((times, values)))


class TestRenderCsv:
    @pytest.mark.parametrize("header", [True, False])
    def test_matches_the_per_row_reference(self, header):
        # 10,001 rows cross the slice boundaries and end in a one-row slice
        series = awkward_series(10_001)
        sink = io.StringIO()
        render_csv(series, sink, header=header)
        assert sink.getvalue() == render_csv_reference(series.times(), series.values(), header)

    def test_peak_memory_does_not_grow_with_the_series(self):
        # short reprs and a builtin sink keep the traced call fast
        n = 100_000
        series = Series(np.column_stack((np.arange(n) * 0.5, np.arange(n) % 997.0)))
        last = deque(maxlen=1)
        sink = SimpleNamespace(write=last.append)
        render_csv(make_series([1.0, 2.0]), sink)  # warm up outside the traced call
        tracemalloc.start()
        try:
            render_csv(series, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(last) == [f"{(n - 1) * 0.5!r},{(n - 1) % 997.0!r}\n"]
        assert peak < 2**20


class TestSeriesInvariants:
    def test_equal_timestamps_rejected(self):
        with pytest.raises(TelemetryError):
            Series((ThroughputSample(1, 1), ThroughputSample(1, 2)))

    def test_empty_rejected(self):
        with pytest.raises(TelemetryError):
            Series(())

    @pytest.mark.parametrize("samples", [
        [(0.0, -1.0)], [(-1.0, 1.0)], [(0.0, float("nan"))], [(0.0, 1.0), (float("inf"), 1.0)],
    ])
    def test_invalid_samples_rejected(self, samples):
        with pytest.raises(TelemetryError):
            Series([ThroughputSample(t, v) for t, v in samples])

    def test_wrong_shape_rejected(self):
        with pytest.raises(TelemetryError, match="pairs"):
            Series(np.zeros((3, 3)))

    # Adjacent non-finite stamps: the first is reported as not finite, on the
    # same line, before any "does not advance" check could see the pair.
    @pytest.mark.parametrize("body, message", [
        ("0,1\n1,1\ninf,2\ninf,3\n", "line 3: sample time must be finite and >= 0, got inf"),
        ("0,1\n-inf,2\n-inf,3\n", "line 2: sample time must be finite and >= 0, got -inf"),
        ("0,1\nnan,2\nnan,3\n", "line 2: sample time must be finite and >= 0, got nan"),
        ("t,kbps\ninf,2\nnan,3\n", "line 2: sample time must be finite and >= 0, got inf"),
        ("0,1\n2,1\nnan,2\ninf,3\n", "line 3: sample time must be finite and >= 0, got nan"),
        ("0,1\n2,1\n2,2\ninf,3\ninf,4\n", "line 3: timestamp 2.0 does not advance past 2.0"),
    ])
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_adjacent_non_finite_times(self, body, message, as_bytes):
        source = io.BytesIO(body.encode()) if as_bytes else io.StringIO(body)
        with pytest.raises(TelemetryError) as info:
            ingest_csv(source)
        assert str(info.value) == message


class TestBatchify:
    def test_exact_division(self):
        batches = batchify(make_series(range(27)), 9, 9)
        assert len(batches) == 3
        assert all(len(b) == 9 for b in batches)
        assert [b.start_t for b in batches] == [0.0, 9.0, 18.0]

    def test_trailing_partial_window_dropped(self):
        batches = batchify(make_series(range(10)), 9, 9)
        assert len(batches) == 1
        assert len(batches[0]) == 9

    def test_overlapping_stride(self):
        # window starts whose full 9 s span fits in the 18 s series
        expected_starts = [s for s in (i * 3 for i in range(10)) if s + 9 <= 18]
        batches = batchify(make_series(range(18)), 9, 3)
        assert [b.start_t for b in batches] == [float(s) for s in expected_starts]
        assert len(batches) == 4

    def test_concat_reproduces_prefix(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 100, 50)
        series = make_series(values)
        batches = batchify(series, 9, 9)
        flat = [v for b in batches for v in b.values]
        assert flat == list(values[: len(flat)])

    def test_empty_windows_dropped(self):
        # samples at 0..4 and 20..24; the middle windows are empty
        samples = tuple(
            ThroughputSample(float(t), 1.0) for t in list(range(5)) + list(range(20, 25))
        )
        batches = batchify(Series(samples), 5, 5)
        assert [b.start_t for b in batches] == [0.0, 20.0]

    def test_invalid_parameters(self):
        series = make_series(range(10))
        with pytest.raises(ValueError):
            batchify(series, 0, 9)
        with pytest.raises(ValueError):
            batchify(series, 9, -1)


def assert_same_batches(lazy, eager):
    """Field for field: Python-float bounds, bit-equal read-only values."""
    assert len(lazy) == len(eager)
    for got, want in zip(lazy, eager):
        assert type(got.start_t) is float and type(got.end_t) is float
        assert (got.start_t, got.end_t) == (want.start_t, want.end_t)
        assert got.values.dtype == np.float64 and not got.values.flags.writeable
        assert got.values.tobytes() == want.values.tobytes()


class TestLazyBatches:
    """batchify keeps arrays and builds each Batch on access; the batches
    must be the ones the eager list comprehension built."""

    @pytest.mark.parametrize("stride", [2.5, 9.0, 9.000001, 13.0])
    def test_matches_the_eager_list(self, stride):
        rng = np.random.default_rng(11)
        series = Series(np.stack((np.cumsum(rng.uniform(0.2, 0.8, 500)), rng.uniform(0, 1e3, 500)), 1))
        lazy, eager = batchify(series, 9.0, stride), batchify_reference(series, 9.0, stride)
        assert len(eager) > 10
        assert_same_batches(lazy, eager)
        assert_same_batches([lazy[i] for i in range(len(lazy))], eager)

    def test_empty_window_and_single_sample(self):
        samples = tuple(ThroughputSample(float(t), t + 1.0) for t in [*range(5), *range(20, 25)])
        for series in (Series(samples), make_series([3.0]), make_series([3.0], period=0.25)):
            for length, stride in ((5, 5), (1, 1), (5, 3), (0.5, 7)):
                assert_same_batches(batchify(series, length, stride),
                                    batchify_reference(series, length, stride))

    def test_indexing_as_on_a_list(self):
        batches = batchify(make_series(range(45)), 9, 9)
        eager = batchify_reference(make_series(range(45)), 9, 9)
        assert len(batches) == 5
        for i in range(-5, 5):
            assert_same_batches([batches[i]], [eager[i]])
        assert_same_batches([batches[np.int64(-2)]], [eager[-2]])
        for index in (5, -6, 100):
            with pytest.raises(IndexError):
                batches[index]
        with pytest.raises(TypeError):
            batches[1.0]
        for cut in (slice(None), slice(1, 3), slice(None, None, -2), slice(-2, 99), slice(4, 1)):
            part = batches[cut]
            assert type(part) is list
            assert_same_batches(part, eager[cut])
        assert_same_batches(list(reversed(batches)), eager[::-1])

    def test_read_only(self):
        batches = batchify(make_series(range(18)), 9, 9)
        with pytest.raises(TypeError):
            batches[0] = batches[1]
        with pytest.raises(AttributeError):
            batches.extra = 1

    def test_median_gap_is_numpys(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4, 7, 10, 101, 1000):
            for steps in (rng.uniform(0.1, 2.0, n + 1), rng.choice([0.5, 0.25, 1.0, 0.3], n + 1)):
                gaps = np.diff(np.cumsum(steps))
                want = np.median(gaps)
                got = telemetry._median(gaps.copy())
                assert type(got) is type(want) and got == want

    def test_pipeline_leaves_numpy_ma_unimported(self):
        script = textwrap.dedent(r"""
            import io, sys
            from driftwatch import DriftDetector
            from driftwatch.telemetry import batchify, concat_values, ingest_csv
            body = "t,kbps\n" + "".join(f"{i * 0.5},{100 + i % 7}\n" for i in range(400))
            batches = batchify(ingest_csv(io.BytesIO(body.encode())), 9, 9)
            det = DriftDetector("dbscan").fit(concat_values(batches[:5]))
            det.evaluate(batches[-1].values)
            print("numpy.ma" in sys.modules)
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_24h_series_retains_little(self):
        n = 172_800  # 24 h at 2 Hz
        series = Series(np.stack((np.arange(n) * 0.5, np.full(n, 1e3)), 1))
        batchify(series, 9, 9)  # imports and caches outside the traced call
        tracemalloc.start()
        try:
            batches = batchify(series, 9, 9)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(batches) == 9600
        assert retained < 0.5 * 2**20


class TestBatchInvariants:
    def test_start_before_end(self):
        with pytest.raises(TelemetryError):
            Batch(5, 5, (1,))

    def test_non_empty(self):
        with pytest.raises(TelemetryError):
            Batch(0, 1, ())
