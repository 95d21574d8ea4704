import contextlib
import io
import math

import numpy as np
import pytest

from driftwatch import telemetry
from driftwatch.telemetry import (
    Batch,
    Series,
    TelemetryError,
    ThroughputSample,
    batch_stats,
    batchify,
    ingest_csv,
    render_csv,
)


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


class TestBatchStats:
    def test_constant(self):
        stats = batch_stats(Batch(0, 4, (4, 4, 4, 4)))
        assert (stats.mean, stats.std, stats.min, stats.max) == (4, 0, 4, 4)

    def test_two_point_symmetry(self):
        stats = batch_stats(Batch(0, 2, (0, 10)))
        assert (stats.mean, stats.std, stats.min, stats.max) == (5, 5, 0, 10)

    def test_population_std(self):
        stats = batch_stats(Batch(0, 5, (1, 2, 3, 4, 5)))
        assert stats.mean == 3
        assert stats.std == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_single_sample_has_zero_std(self):
        assert batch_stats(Batch(0, 1, (7,))).std == 0.0

    def test_ordering_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = tuple(rng.uniform(0, 100, rng.integers(1, 30)))
            stats = batch_stats(Batch(0, 1, values))
            assert stats.min <= stats.mean <= stats.max
            assert (stats.std == 0) == (len(set(values)) == 1)


class TestBatchInvariants:
    def test_start_before_end(self):
        with pytest.raises(TelemetryError):
            Batch(5, 5, (1,))

    def test_non_empty(self):
        with pytest.raises(TelemetryError):
            Batch(0, 1, ())
