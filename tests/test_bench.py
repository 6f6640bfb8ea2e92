import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import gpforecast.bench
import gpforecast.forecasting
import oracles
from gpforecast import (
    SIX_HOURLY,
    BenchReport,
    CsvFormatError,
    CsvLayout,
    Dataset,
    SeriesEntry,
    SeriesFailure,
    SeriesScore,
    TimeSeries,
    TrainResult,
    default_priors,
    default_spec,
    emit_report,
    fit,
    forecast,
    load_csv,
    median_hyperparams,
    parse_machine_report,
    prepare_series,
    read_series,
    run_benchmark,
    score,
    seasonal_naive,
    standardized_posterior,
    train,
)

DATA = Path(__file__).parent / "data"


def dataset_equal(a: Dataset, b: Dataset) -> bool:
    if len(a) != len(b):
        return False
    for ea, eb in zip(a.entries, b.entries):
        if ea.name != eb.name or ea.test_length != eb.test_length:
            return False
        if ea.series.steps_per_year != eb.series.steps_per_year:
            return False
        if not np.array_equal(ea.series.values, eb.series.values):
            return False
    return True


def load_monthly(path) -> Dataset:
    return load_csv(path, CsvLayout(steps_per_year=12.0))


class TestLoadCsv:
    def test_long_fixture_parses_two_series_of_five(self):
        ds = load_csv(f"{DATA}/long_two_series.csv", CsvLayout(steps_per_year=12.0))
        assert len(ds) == 2
        assert [e.name for e in ds.entries] == ["alpha", "beta"]
        assert all(len(e.series) == 5 for e in ds.entries)
        np.testing.assert_array_equal(ds.entries[0].series.values, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert ds.entries[0].test_length == 18  # monthly default

    def test_non_numeric_value_names_line_seven(self):
        with pytest.raises(CsvFormatError, match="line 7"):
            load_csv(f"{DATA}/long_bad_value.csv", CsvLayout(steps_per_year=12.0))

    def test_duplicate_step_rejected(self):
        with pytest.raises(CsvFormatError, match="duplicate step 1"):
            load_csv(f"{DATA}/long_duplicate_step.csv", CsvLayout(steps_per_year=12.0))

    def test_rows_are_sorted_by_step(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("series,step,value\na,2,3.0\na,0,1.0\na,1,2.0\n")
        ds = load_csv(path, CsvLayout(steps_per_year=12.0))
        np.testing.assert_array_equal(ds.entries[0].series.values, [1.0, 2.0, 3.0])

    def test_long_gap_in_steps_rejected(self, tmp_path):
        # closing the gap would put every later value at the wrong time and seasonal phase
        path = tmp_path / "gap.csv"
        path.write_text("series,step,value\nb,3,0.5\na,0,1.0\na,1,2.0\na,5,3.0\na,6,4.0\n")
        with pytest.raises(CsvFormatError, match="series 'a' has no step 2"):
            load_csv(path, CsvLayout(steps_per_year=12.0))

    def test_wide_fixture_allows_ragged_tails(self):
        ds = load_csv(f"{DATA}/wide_two_series.csv", CsvLayout(steps_per_year=4.0))
        assert [e.name for e in ds.entries] == ["alpha", "beta"]
        assert len(ds.entries[0].series) == 5
        assert len(ds.entries[1].series) == 3
        assert ds.entries[0].test_length == 8  # quarterly default

    def test_wide_gap_rejected_with_line(self):
        with pytest.raises(CsvFormatError, match="line 4"):
            load_csv(f"{DATA}/wide_gap.csv", CsvLayout(steps_per_year=4.0))

    @pytest.mark.parametrize("text", ["", "\n \n,,\n"], ids=["no-lines", "blank-lines"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match="file is empty"):
            load_csv(path, CsvLayout(steps_per_year=12.0))

    @pytest.mark.parametrize(
        "header, body",
        [("series,step,value", "a,0,1.0\na,1,2.0\n"), (" a ", "1.0\n2.0\n")],
        ids=["long", "wide"],
    )
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path, header, body):
        path = tmp_path / "blank_first.csv"
        path.write_text(f"\n , \n{header}\n{body}")
        [entry] = load_csv(path, CsvLayout(steps_per_year=12.0)).entries
        assert entry.name == "a"
        np.testing.assert_array_equal(entry.series.values, [1.0, 2.0])
        # a bad header names its own line
        path.write_text(f"\n\nseries,,value\n{body}")
        with pytest.raises(CsvFormatError, match="line 3: "):
            load_csv(path, CsvLayout(steps_per_year=12.0))

    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"series,step,value\na,0,1.0\r\na,1,\xe9\n", 31),
            (b"a\r1.0\r\n\xff\xfe\n", 7),
            (b"\xef\xbb\xbfseries,step,value\r\na,0,1.0\na,1,\xe9\n", 34),
        ],
        ids=["long", "wide", "long-after-a-byte-order-mark"],
    )
    def test_a_file_that_is_not_utf8_names_its_line(self, tmp_path, data, offset):
        # \r\n and a lone \r each end one line, as the reader counts them, and
        # bytes count from the file's first, a byte-order mark's three included
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(CsvFormatError) as raised:
            load_csv(path, CsvLayout(steps_per_year=12.0))
        assert str(raised.value).startswith(f"{path}: line 3: byte {offset}, 0x{data[offset]:02x}, is not UTF-8")

    @pytest.mark.parametrize("read", [read_series, load_monthly], ids=["series", "dataset"])
    @pytest.mark.parametrize(
        "data, line, offset",
        [
            (b"value\nx\n" + b"1.0\n" * 5000 + b"\xff\n", 5003, 20008),
            (
                b"series,step,value\na,0,x\n" + b"".join(b"a,%d,1.0\n" % i for i in range(1, 3000)) + b"\xff\n",
                3002,
                31906,
            ),
        ],
        ids=["value-column", "long"],
    )
    def test_a_byte_that_is_not_utf8_is_reported_before_any_other_fault(self, tmp_path, read, data, line, offset):
        # the bad byte lies past the first 8 KiB, which a decoder that streams the file reads
        # and parses first, so such a reader reported the cell 'x' on line 2
        path = tmp_path / "two_faults.csv"
        path.write_bytes(data)
        with pytest.raises(CsvFormatError) as raised:
            read(path)
        assert str(raised.value) == f"{path}: line {line}: byte {offset}, 0xff, is not UTF-8 (invalid start byte)"

    @pytest.mark.parametrize(
        "read, text",
        [
            (load_monthly, "series,step,value\na,0,1.0\na,1,2.0,x\n"),
            (read_series, "series,step,value\na,0,1.0\na,1,2.0,x\n"),
            (load_monthly, "a,b\n1.0,2.0\n3.0,4.0,5.0\n"),
            (read_series, "when,value\nx,1.0\ny,2.0,z\n"),
        ],
        ids=["long", "long-series", "wide", "value-column"],
    )
    def test_a_row_with_more_cells_than_its_header_is_rejected(self, tmp_path, read, text):
        # every layout with a header has one width rule; extra cells used to be dropped unread but in wide files
        path = tmp_path / "wide_row.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as raised:
            read(path)
        assert str(raised.value) == f"{path}: line 3: more cells than header columns"

    def test_a_long_row_without_its_columns_names_the_count(self, tmp_path):
        path = tmp_path / "short_row.csv"
        path.write_text("series,step,value\na,0,1.0\na,1\n")
        with pytest.raises(CsvFormatError) as raised:
            load_monthly(path)
        assert str(raised.value) == f"{path}: line 3: expected 3 columns, got 2"

    @pytest.mark.parametrize(
        "text",
        ["series,step,value\na,1,2.0\na,0,1.0\nb,0,3.0\n", "a,b\r\n1.0,3.0\r\n2.0,\r\n"],
        ids=["long", "wide"],
    )
    def test_a_byte_order_mark_reads_like_the_file_without_it(self, tmp_path, text):
        # spreadsheet exports write one; it used to stay in the first header cell
        bare, marked = tmp_path / "bare.csv", tmp_path / "marked.csv"
        bare.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        csv_layout = CsvLayout(steps_per_year=12.0)
        expected = load_csv(bare, csv_layout)
        assert [e.name for e in expected.entries] == ["a", "b"]
        assert dataset_equal(load_csv(marked, csv_layout), expected)

    def test_custom_frequency_requires_test_length(self):
        with pytest.raises(ValueError, match="test length"):
            load_csv(f"{DATA}/long_two_series.csv", CsvLayout(steps_per_year=52.0))
        ds = load_csv(f"{DATA}/long_two_series.csv", CsvLayout(steps_per_year=52.0, test_length=2))
        assert ds.entries[0].test_length == 2

    def test_six_hourly_defaults_to_42_test_steps(self):
        ds = load_csv(f"{DATA}/long_two_series.csv", CsvLayout(steps_per_year=SIX_HOURLY))
        assert [e.test_length for e in ds.entries] == [42, 42]

    def test_round_trip_through_write_csv(self, tmp_path):
        layout = CsvLayout(steps_per_year=12.0)
        original = load_csv(f"{DATA}/long_two_series.csv", layout)
        path = tmp_path / "written.csv"
        oracles.write_csv(original, path)
        assert dataset_equal(load_csv(path, layout), original)

    def test_round_trip_preserves_full_float_precision(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(9)
        ds = Dataset(
            entries=(
                SeriesEntry(
                    name="x", series=TimeSeries(values=values, steps_per_year=12.0), test_length=18
                ),
            )
        )
        path = tmp_path / "precise.csv"
        oracles.write_csv(ds, path)
        again = load_csv(path, CsvLayout(steps_per_year=12.0))
        assert np.array_equal(again.entries[0].series.values, values)


class TestReadSeries:
    def test_bare_numbers_and_a_value_column_read_in_row_order(self, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("3.0\n1.0\n\n2.0\n")
        column = tmp_path / "column.csv"
        column.write_text("when, value\nx,3.0\ny,1.0\nz,2.0\n")
        for path in (bare, column):  # no steps: the first value is step 0
            values, first_step = read_series(path)
            np.testing.assert_array_equal(values, [3.0, 1.0, 2.0])
            assert first_step == 0

    def test_a_header_without_a_value_column_names_its_line(self, tmp_path):
        path = tmp_path / "no_value.csv"
        path.write_text("\nwhen,amount\nx,1.0\n")
        with pytest.raises(CsvFormatError, match="line 2: header must contain a 'value' column"):
            read_series(path)

    @pytest.mark.parametrize("good_lines", [2, 5000], ids=["first-chunk", "past-the-first-chunk"])
    def test_a_file_that_is_not_utf8_names_its_line(self, tmp_path, good_lines):
        # the offset counts from the file's first byte, also past the 8 KiB a streaming decoder reads first
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1.0\n" * good_lines + b"\xff\xfe\n")
        with pytest.raises(CsvFormatError) as raised:
            read_series(path)
        assert str(raised.value) == (
            f"{path}: line {good_lines + 1}: byte {4 * good_lines}, 0xff, is not UTF-8 (invalid start byte)"
        )

    @pytest.mark.parametrize(
        "text",
        ["".join(f"{10.0 + i}\n" for i in range(48)), "value\n3.0\n1.0\n", "series,step,value\na,1,2.0\na,0,1.0\n"],
        ids=["bare-numbers", "value-column", "long"],
    )
    def test_a_byte_order_mark_reads_like_the_file_without_it(self, tmp_path, text):
        bare, marked = tmp_path / "bare.csv", tmp_path / "marked.csv"
        bare.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        expected, _ = read_series(bare)
        assert expected.size >= 2
        np.testing.assert_array_equal(read_series(marked)[0], expected)

    @pytest.mark.parametrize("text, line", [("1.0,9\n2.0,9\n3.0,9\n", 1), ("1.0\n2.0\n3.0,9\n", 3)])
    def test_bare_numbers_hold_one_value_per_row(self, tmp_path, text, line):
        # a second column used to be dropped unread
        path = tmp_path / "two_columns.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as raised:
            read_series(path)
        assert str(raised.value) == f"{path}: line {line}: 2 cells; a file of bare numbers holds one per row"

    def test_one_long_series_reads_in_step_order(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("step,value,series\n2,30.0,a\n0,10.0,a\n1,20.0,a\n")
        np.testing.assert_array_equal(read_series(path)[0], [10.0, 20.0, 30.0])
        path.write_text("step,value,series\n7,30.0,a\n5,10.0,a\n6,20.0,a\n")
        values, first_step = read_series(path)
        np.testing.assert_array_equal(values, [10.0, 20.0, 30.0])
        assert first_step == 5

    def test_long_checks_apply_to_one_series(self, tmp_path):
        with pytest.raises(CsvFormatError, match="duplicate step 1"):
            read_series(f"{DATA}/long_duplicate_step.csv")
        path = tmp_path / "gap.csv"
        path.write_text("series,step,value\na,0,1.0\na,2,3.0\n")
        with pytest.raises(CsvFormatError, match="series 'a' has no step 1"):
            read_series(path)

    def test_more_than_one_long_series_is_rejected_with_the_count(self):
        # rows of two series used to be joined into one series, their steps ignored
        with pytest.raises(CsvFormatError, match="holds 2 series"):
            read_series(f"{DATA}/long_two_series.csv")


def write_one_series(path, header: str) -> None:
    """Series 'a' at steps 2, 0, 1, in that row order, with values 30, 10, 20, each cell under the column that
    ``header`` names; any column but series, step and note, a misspelt or capitalized one too, holds the value."""
    rows = []
    for step in (2, 0, 1):
        cells = {"series": "a", "step": str(step), "note": "x"}
        rows.append(",".join(cells.get(name.strip().lower(), repr(10.0 * (step + 1))) for name in header.split(",")))
    path.write_text("\n".join([header, *rows]) + "\n")


class TestTheHeaderGivesTheLayout:
    @pytest.mark.parametrize(
        "header, long",
        [
            ("series,step,value", True),
            (" series , step , value ", True),
            ("series,step,value,note", True),
            ("value,series,step", True),
            ("step,note,value,series", True),
            ("series,step,vaule", False),
            ("Series,Step,Value", False),
            ("series,value", False),
            ("step,value", False),
        ],
    )
    def test_both_readers_take_the_same_headers_as_long(self, tmp_path, header, long):
        # long, with any more columns and in any order, load_csv reads the one series 'a' and
        # read_series its values, each in step order
        path = tmp_path / "one.csv"
        write_one_series(path, header)

        def load_csv_reads_long() -> bool:
            try:
                entries = load_csv(path, CsvLayout()).entries
            except CsvFormatError:
                return False
            return [(e.name, list(e.series.values)) for e in entries] == [("a", [10.0, 20.0, 30.0])]

        def read_series_reads_long() -> bool:
            try:
                return list(read_series(path)[0]) == [10.0, 20.0, 30.0]
            except CsvFormatError:
                return False

        assert load_csv_reads_long() == read_series_reads_long() == long

    @pytest.mark.parametrize("header", ["series,step,vaule", "Series,Step,Value"])
    def test_a_misspelt_long_header_reads_as_wide(self, tmp_path, header):
        # the error says how the header was read, and what a long one names
        path = tmp_path / "misspelt.csv"
        path.write_text(f"{header}\na,0,1.0\na,1,2.0\n")
        with pytest.raises(CsvFormatError) as raised:
            load_csv(path, CsvLayout(steps_per_year=12.0))
        assert str(raised.value) == (
            f"{path}: line 2: value 'a' is not numeric; "
            "the header was read as wide, and a long header names all of series, step and value"
        )

    def test_a_wide_files_cell_error_starts_with_the_line_and_the_cell(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,x\n")
        with pytest.raises(CsvFormatError) as raised:
            load_csv(path, CsvLayout(steps_per_year=12.0))
        assert str(raised.value).startswith(f"{path}: line 3: value 'x' is not numeric; the header was read as wide")


class TestTheFirstRow:
    """One rule for both readers: a first row whose first cell is a number is data, any other is a header."""

    READERS = {"read_series": read_series, "load_csv": load_monthly}

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize(
        "header, row",
        [("series,step,value,value", "a,0,1.0,9.0"), ("value,value", "1.0,9.0"), ("a,b,a", "1.0,2.0,3.0")],
    )
    def test_a_header_that_names_a_column_twice_is_rejected(self, tmp_path, reader, header, row):
        # a long or value column given twice used to be read from its first copy, the second dropped unread
        path = tmp_path / "twice.csv"
        path.write_text(f"\n{header}\n{row}\n{row}\n")
        with pytest.raises(CsvFormatError) as raised:
            self.READERS[reader](path)
        assert str(raised.value) == f"{path}: line 2: duplicate column names in header"

    def test_repeated_empty_names_are_trailing_commas(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("series,step,value,,\na,1,2.0\na,0,1.0,,\n")
        np.testing.assert_array_equal(read_series(path)[0], [1.0, 2.0])
        [entry] = load_monthly(path).entries
        np.testing.assert_array_equal(entry.series.values, [1.0, 2.0])

    @pytest.mark.parametrize(
        "text, line", [("10.0\n11.0\n12.0\n", 1), ("\n \n10.0\n11.0\n", 3), ("2019,2020\n1.0,2.0\n", 1)],
        ids=["bare-numbers", "after-blank-lines", "numeric-first-series-name"],
    )
    def test_load_csv_rejects_a_file_without_a_header(self, tmp_path, text, line):
        # a file of bare numbers used to load as one series named by its first value
        path = tmp_path / "headless.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as raised:
            load_monthly(path)
        assert str(raised.value) == f"{path}: line {line}: a number, not a header; a dataset file names its columns"


class TestDatasetInvariants:
    def test_duplicate_names_rejected(self):
        entry = SeriesEntry(
            name="x", series=TimeSeries(values=np.arange(10.0), steps_per_year=12.0), test_length=2
        )
        with pytest.raises(ValueError, match="unique"):
            Dataset(entries=(entry, entry))

    def test_nonpositive_test_length_rejected(self):
        with pytest.raises(ValueError, match="test length"):
            Dataset(
                entries=(
                    SeriesEntry(
                        name="x",
                        series=TimeSeries(values=np.arange(10.0), steps_per_year=12.0),
                        test_length=0,
                    ),
                )
            )

    @pytest.mark.parametrize("test_length", [2.5, np.float64(3.0), 0, -1], ids=["2.5", "float64-3", "0", "-1"])
    def test_test_length_must_be_an_integer_of_at_least_one(self, test_length):
        # a float length used to pass and only failed in run_benchmark, as a slice index
        ts = TimeSeries(values=np.arange(10.0), steps_per_year=12.0)
        with pytest.raises(ValueError, match="series 'x': test length must be an integer >= 1"):
            Dataset(entries=(SeriesEntry(name="x", series=ts, test_length=test_length),))
        with pytest.raises(ValueError, match="test length must be an integer >= 1"):
            CsvLayout(steps_per_year=12.0, test_length=test_length)

    def test_integer_test_lengths_of_any_integer_type_pass(self):
        ts = TimeSeries(values=np.arange(10.0), steps_per_year=12.0)
        for test_length in (1, np.int64(3)):
            assert CsvLayout(steps_per_year=12.0, test_length=test_length).test_length == test_length
            assert len(Dataset(entries=(SeriesEntry(name="x", series=ts, test_length=test_length),))) == 1

    def test_non_finite_series_values_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            TimeSeries(values=np.array([1.0, np.nan, 2.0]), steps_per_year=12.0)


class TestSeasonalNaive:
    def test_exactly_periodic_series_scores_zero(self):
        season = np.array([1.0, 3.0, 2.0, 5.0])
        values = np.tile(season, 5)
        ts = TimeSeries(values=values[:-4], steps_per_year=4.0)
        fc = seasonal_naive(ts, 4)
        np.testing.assert_array_equal(fc.mean, values[-4:])

    def test_horizon_of_one_season_repeats_it_verbatim(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(30)
        ts = TimeSeries(values=values, steps_per_year=12.0)
        fc = seasonal_naive(ts, 12)
        np.testing.assert_array_equal(fc.mean, values[-12:])

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(40)
        ts = TimeSeries(values=values, steps_per_year=12.0)
        horizon = 18
        fc = seasonal_naive(ts, horizon)
        expected = [values[40 - 12 + (h % 12)] for h in range(horizon)]
        np.testing.assert_array_equal(fc.mean, expected)
        residuals = values[12:] - values[:-12]
        np.testing.assert_allclose(fc.variance, np.mean(residuals**2))

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter than one season"):
            seasonal_naive(TimeSeries(values=np.arange(5.0), steps_per_year=12.0), 3)


class TestRunBenchmark:
    def test_identical_series_give_identical_scores(self):
        rng = np.random.default_rng(4)
        t = np.arange(52) / 4.0
        values = 0.2 * t + np.sin(2 * np.pi * t) + 0.3 * rng.standard_normal(52)
        entries = tuple(
            SeriesEntry(name=f"copy{i}", series=TimeSeries(values=values, steps_per_year=4.0), test_length=8)
            for i in range(3)
        )
        report = run_benchmark(Dataset(entries=entries))
        assert len(report.scores) == 3
        maes = {s.report.mae for s in report.scores}
        assert len(maes) == 1
        assert report.median_mae == maes.pop()

    def test_parallelism_does_not_change_results(self, parallel_reports):
        serial, threaded = parallel_reports["serial"], parallel_reports["threaded"]
        assert serial.deterministic_view() == threaded.deterministic_view()
        for a, b in zip(serial.scores, threaded.scores):
            np.testing.assert_array_equal(a.report.abs_errors, b.report.abs_errors)
            np.testing.assert_array_equal(a.report.crps_per_step, b.report.crps_per_step)
            np.testing.assert_array_equal(a.report.ll_per_step, b.report.ll_per_step)

    def test_failures_recorded_never_dropped(self):
        rng = np.random.default_rng(6)
        t = np.arange(52) / 4.0
        good = 0.2 * t + np.sin(2 * np.pi * t) + 0.3 * rng.standard_normal(52)
        entries = (
            SeriesEntry(name="good", series=TimeSeries(values=good, steps_per_year=4.0), test_length=8),
            SeriesEntry(name="flat", series=TimeSeries(values=np.ones(52), steps_per_year=4.0), test_length=8),
            SeriesEntry(name="tiny", series=TimeSeries(values=good[:10], steps_per_year=4.0), test_length=8),
            SeriesEntry(name="none", series=TimeSeries(values=good[:8], steps_per_year=4.0), test_length=8),
        )
        report = run_benchmark(Dataset(entries=entries))
        assert len(report.scores) + len(report.failures) == 4
        assert [f.name for f in report.failures] == ["flat", "tiny", "none"]
        assert "ConstantSeriesError" in report.failures[0].reason
        # perfbench's classifier matches the two length reasons as written here
        assert report.failures[1].reason == "ValueError: need at least 8 observations, got 2"
        assert report.failures[2].reason == "ValueError: test length 8 leaves no training data (length 8)"

    def test_the_length_reasons_are_the_pipelines_own_and_perfbench_classifies_them(self, perfbench):
        values = np.sin(np.arange(10.0))
        entries = (
            SeriesEntry(name="tiny", series=TimeSeries(values=values, steps_per_year=4.0), test_length=8),
            SeriesEntry(name="none", series=TimeSeries(values=values[:8], steps_per_year=4.0), test_length=8),
        )
        tiny, none = run_benchmark(Dataset(entries=entries)).failures
        with pytest.raises(ValueError) as err:
            standardized_posterior(TimeSeries(values=values[:2], steps_per_year=4.0), 8)
        assert tiny.reason == "ValueError: " + str(err.value)
        length_error = perfbench("run").LENGTH_ERROR
        assert length_error.match(tiny.reason) and length_error.match(none.reason)

    @pytest.mark.parametrize(
        "parallelism, error",
        [
            pytest.param(1, TypeError, id="1"),
            pytest.param(2, TypeError, id="2"),
            # a bare ValueError, such as numpy's shape mismatch, is a bug too
            pytest.param(1, ValueError, id="1-ValueError"),
            pytest.param(2, ValueError, id="2-ValueError"),
        ],
    )
    def test_programming_errors_propagate(self, monkeypatch, parallelism, error):
        def broken(*args, **kwargs):
            raise error("a bug, not a series failure")

        monkeypatch.setattr(gpforecast.bench, "standardized_posterior", broken)
        entries = tuple(
            SeriesEntry(name=name, series=TimeSeries(values=np.arange(30.0), steps_per_year=12.0), test_length=8)
            for name in ("a", "b")
        )
        with pytest.raises(error, match="a bug"):
            run_benchmark(Dataset(entries=entries), parallelism=parallelism)

    def test_a_theta_made_for_another_spec_propagates(self, monkeypatch):
        # the trainer hands back the double-seasonal medians for a single-seasonal series: a bug, not bad data
        real_train = gpforecast.forecasting.train

        def wrong_spec(spec, priors, ts, restarts=1):
            result = real_train(spec, priors, ts, restarts)
            return dataclasses.replace(result, theta=median_hyperparams(default_spec("double-seasonal")))

        monkeypatch.setattr(gpforecast.forecasting, "train", wrong_spec)
        values = np.sin(np.arange(36.0) * np.pi / 6.0)
        entries = (SeriesEntry(name="s", series=TimeSeries(values=values, steps_per_year=12.0), test_length=8),)
        with pytest.raises(ValueError, match="spec trains") as raised:
            run_benchmark(Dataset(entries=entries))
        assert type(raised.value) is ValueError

    @pytest.mark.parametrize("parallelism", [float("nan"), 2.5, "2", 0], ids=["nan", "2.5", "str", "0"])
    def test_a_parallelism_that_is_no_integer_at_least_1_is_rejected_before_any_work(self, monkeypatch, parallelism):
        # a NaN passed a bare `< 1` check, and a thread pool of NaN workers never starts one
        monkeypatch.setattr(gpforecast.bench, "standardized_posterior", lambda *args, **kwargs: pytest.fail("work ran"))
        entries = (SeriesEntry(name="a", series=TimeSeries(values=np.arange(30.0), steps_per_year=12.0), test_length=8),)
        with pytest.raises(ValueError, match="parallelism must be an integer >= 1"):
            run_benchmark(Dataset(entries=entries), parallelism=parallelism)

    def test_scores_keep_their_bits_at_scales_whose_variance_has_no_float(self):
        # scaling by 2^k is exact, and the scores are taken in standardized
        # units, so they cannot see k, even at 2^+-560 where the variance in
        # the series' own units, std^2 times the standardized one, under- or
        # overflows float64
        rng = np.random.default_rng(9)
        t = np.arange(52) / 4.0
        base = 0.2 * t + np.sin(2 * np.pi * t) + 0.3 * rng.standard_normal(52)
        views = []
        for k in (0, -560, 560):
            entry = SeriesEntry(name="s", series=TimeSeries(values=2.0**k * base, steps_per_year=4.0), test_length=8)
            views.append(run_benchmark(Dataset(entries=(entry,))).deterministic_view())
        assert len(views[0]["scores"]) == 1
        assert views[1] == views[0] and views[2] == views[0]

    def test_all_failures_leaves_none_medians(self):
        entries = (
            SeriesEntry(name="flat", series=TimeSeries(values=np.ones(30), steps_per_year=12.0), test_length=18),
        )
        report = run_benchmark(Dataset(entries=entries))
        assert report.median_mae is None
        assert len(report.failures) == 1


FIXED_TERMINATIONS = (
    "CONVERGENCE: PREDICTED DECREASE OF F <= DECREASE_TOL",
    "CONVERGENCE: LARGEST GRADIENT COMPONENT <= GRAD_TOL",
    "ABNORMAL: NO STRONG-WOLFE STEP after a penalty evaluation",
)


def fixed_report() -> BenchReport:
    """Deterministic hand-built report used for formatting tests."""
    rng = np.random.default_rng(123)
    theta = median_hyperparams(default_spec("single-seasonal"), default_priors())
    scores = []
    for i, name in enumerate(["airline", "retail", "energy"]):
        y = rng.standard_normal(8)
        mu = y + 0.1 * rng.standard_normal(8)
        sigma2 = np.full(8, 0.5 + 0.1 * i)
        fit = TrainResult(
            theta=theta,
            objective=-10.0 * i,
            iterations=9 + 3 * i,
            converged=i != 2,
            seconds=0.125 * (i + 1),
            nfev=12 + 4 * i,
            termination=FIXED_TERMINATIONS[i],
            penalty_evals=2 * (i == 2),
            series=None,
        )
        scores.append(SeriesScore(name=name, report=score(y, mu, sigma2), fit=fit))
    return BenchReport(
        scores=tuple(scores),
        failures=(SeriesFailure(name="flatline", reason="ConstantSeriesError: series is constant"),),
        total_seconds=0.875,
    )


def golden_machine_lines() -> list[str]:
    return (DATA / "golden_report.jsonl").read_text(encoding="utf-8").splitlines()


class TestEmitReport:
    def test_human_format_matches_golden_file(self):
        with open(f"{DATA}/golden_report.txt", "r", encoding="utf-8") as fh:
            golden = fh.read()
        assert emit_report(fixed_report(), fmt="human") == golden

    def test_machine_format_matches_golden_file(self):
        # pins key order and number formatting, which the round trip below does not see
        with open(f"{DATA}/golden_report.jsonl", "r", encoding="utf-8") as fh:
            golden = fh.read()
        assert emit_report(fixed_report(), fmt="machine") == golden

    def test_machine_format_round_trips(self):
        report = fixed_report()
        parsed = parse_machine_report(emit_report(report, fmt="machine"))
        assert [r["series"] for r in parsed["series"]] == ["airline", "retail", "energy"]
        for record, s in zip(parsed["series"], report.scores):
            assert record["mae"] == s.report.mae
            assert record["crps"] == s.report.crps
            assert record["ll"] == s.report.ll
            assert record["train_seconds"] == s.train_seconds
            assert record["converged"] == s.converged
            for key in ("iterations", "nfev", "penalty_evals", "termination"):
                assert record[key] == getattr(s.fit, key)
        assert parsed["failures"] == [
            {"record": "failure", "series": "flatline", "reason": "ConstantSeriesError: series is constant"}
        ]
        agg = parsed["aggregate"]
        assert agg["scored"] == 3 and agg["failed"] == 1
        assert agg["median_mae"] == report.median_mae
        assert (agg["iterations"], agg["nfev"], agg["penalty_evals"]) == (36, 48, 2)

    def test_empty_report_still_emits_aggregate_marker(self):
        empty = BenchReport(scores=(), failures=(), total_seconds=0.0)
        text = emit_report(empty, fmt="human")
        assert "no series scored" in text
        parsed = parse_machine_report(emit_report(empty, fmt="machine"))
        assert parsed["aggregate"]["median_mae"] is None

    @pytest.mark.parametrize("line", ["[1]", "3", '"x"', "null"])
    def test_a_line_that_is_not_an_object_is_rejected(self, line):
        text = emit_report(fixed_report(), fmt="machine")
        with pytest.raises(ValueError, match="machine report line 2: expected a JSON object"):
            parse_machine_report("\n".join([text.splitlines()[0], line, *text.splitlines()[1:]]))

    def test_the_deterministic_view_holds_every_value_but_the_timing(self):
        report = fixed_report()
        assert report.deterministic_view() == {
            "scores": [
                (s.name, s.report.mae, s.report.crps, s.report.ll, s.converged)
                + (s.fit.iterations, s.fit.nfev, s.fit.penalty_evals, s.fit.termination)
                for s in report.scores
            ],
            "failures": [("flatline", "ConstantSeriesError: series is constant")],
            "medians": tuple(
                float(np.median([getattr(s.report, key) for s in report.scores])) for key in ("mae", "crps", "ll")
            ),
        }

    def test_two_reports_end_to_end_are_rejected(self):
        lines = golden_machine_lines()
        with pytest.raises(ValueError, match="machine report line 6: a series record after the aggregate"):
            parse_machine_report("\n".join(lines + lines))

    @pytest.mark.parametrize(
        "lineno, edit",
        [
            pytest.param(1, lambda r: {"record": "series", "mae": "x"}, id="a-series-record-of-one-score"),
            pytest.param(1, lambda r: {**r, "objective": 7.5}, id="a-series-record-with-a-key-more"),
            pytest.param(4, lambda r: {"record": "failure", "series": r["series"]}, id="a-failure-without-reason"),
            pytest.param(5, lambda r: {"record": "aggregate"}, id="a-bare-aggregate"),
        ],
    )
    def test_a_record_without_exactly_its_declared_keys_is_rejected(self, lineno, edit):
        lines = golden_machine_lines()
        record = edit(json.loads(lines[lineno - 1]))
        lines[lineno - 1] = json.dumps(record)
        with pytest.raises(ValueError, match=f"machine report line {lineno}: a {record['record']} record has keys"):
            parse_machine_report("\n".join(lines))

    def test_an_aggregate_that_miscounts_the_records_is_rejected(self):
        lines = golden_machine_lines()
        with pytest.raises(ValueError, match="machine report line 4: the aggregate miscounts the records before it"):
            parse_machine_report("\n".join(lines[1:]))

    @pytest.mark.parametrize(
        "lineno, key, value, json_type",
        [
            pytest.param(1, "series", 7, "a string", id="a-series-name-that-is-a-number"),
            pytest.param(4, "reason", None, "a string", id="a-reason-that-is-null"),
            pytest.param(1, "mae", "x", "a number", id="a-score-that-is-a-string"),
            pytest.param(2, "ll", True, "a number", id="a-score-that-is-true"),
            pytest.param(3, "train_seconds", "0.375", "a number", id="a-timing-that-is-a-string"),
            pytest.param(5, "total_seconds", False, "a number", id="a-timing-that-is-false"),
            pytest.param(1, "converged", "maybe", "a boolean", id="a-converged-that-is-a-string"),
            pytest.param(3, "converged", 0, "a boolean", id="a-converged-that-is-0"),
            pytest.param(2, "nfev", 16.0, "an integer", id="an-nfev-that-is-a-float"),
            pytest.param(3, "termination", None, "a string", id="a-termination-that-is-null"),
            pytest.param(5, "penalty_evals", False, "an integer", id="a-summed-count-that-is-false"),
            pytest.param(5, "scored", 3.0, "an integer", id="a-count-that-is-a-float"),
            pytest.param(5, "failed", True, "an integer", id="a-count-that-is-true"),
            pytest.param(5, "median_ll", True, "a number or null", id="a-median-that-is-true"),
            pytest.param(5, "median_mae", "0.0658", "a number or null", id="a-median-that-is-a-string"),
            # json.dumps writes these as NaN, Infinity and -Infinity, tokens that json.loads takes but no JSON
            # standard has, and that emit_report never writes
            pytest.param(1, "mae", math.nan, "a number", id="a-score-that-is-nan"),
            pytest.param(3, "train_seconds", math.inf, "a number", id="a-timing-that-is-infinity"),
            pytest.param(5, "median_mae", math.nan, "a number or null", id="a-median-that-is-nan"),
            pytest.param(5, "median_ll", -math.inf, "a number or null", id="a-median-that-is-minus-infinity"),
        ],
    )
    def test_a_value_not_of_its_declared_json_type_is_rejected(self, lineno, key, value, json_type):
        lines = golden_machine_lines()
        record = json.loads(lines[lineno - 1])
        lines[lineno - 1] = json.dumps({**record, key: value})
        with pytest.raises(ValueError) as raised:
            parse_machine_report("\n".join(lines))
        held = f"{record['record']} key {key!r} holds {json.dumps(value)}, not {json_type}"
        assert str(raised.value) == f"machine report line {lineno}: {held}"

    def test_the_machine_format_writes_no_nan(self):
        # the writer keeps the reader's rule: a value that is no JSON number is an error, not a NaN token
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(BenchReport(scores=(), failures=(), total_seconds=math.nan), fmt="machine")

    def test_a_number_may_be_written_as_a_json_integer(self):
        lines = golden_machine_lines()
        lines[0] = json.dumps({**json.loads(lines[0]), "mae": 0, "train_seconds": 1})
        lines[4] = json.dumps({**json.loads(lines[4]), "median_ll": -1, "total_seconds": 2})
        parsed = parse_machine_report("\n".join(lines))
        assert (parsed["series"][0]["mae"], parsed["aggregate"]["median_ll"]) == (0, -1)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(fixed_report(), fmt="xml")


COUNTED = TimeSeries(values=np.sin(np.arange(24) / 2.0), steps_per_year=12.0)
# each count the package checks: a call that passes n as the count, and the message of its check
COUNT_CHECKS = {
    "CsvLayout": (lambda n: CsvLayout(test_length=n), "test length must be an integer >= 1"),
    "Dataset": (
        lambda n: Dataset(entries=(SeriesEntry("x", COUNTED, n),)),
        "series 'x': test length must be an integer >= 1",
    ),
    "seasonal_naive": (lambda n: seasonal_naive(COUNTED, n), "horizon must be an integer >= 1"),
    "run_benchmark": (
        lambda n: run_benchmark(Dataset(entries=(SeriesEntry("x", COUNTED, 8),)), parallelism=n),
        "parallelism must be an integer >= 1",
    ),
    "forecast": (lambda n: forecast(COUNTED, n), "horizon must be an integer >= 1"),
    "fit": (
        lambda n: fit(median_hyperparams(default_spec()), prepare_series(default_spec(), COUNTED), n),
        "horizon must be an integer >= 0",
    ),
    "train": (
        lambda n: train(default_spec(), default_priors(), COUNTED, restarts=n),
        "restarts must be an integer >= 1",
    ),
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("entry", COUNT_CHECKS)
def test_a_bool_is_not_a_count(entry, flag):
    # bool is a numbers.Integral, so True passed each check as 1 and False fit's as 0
    call, message = COUNT_CHECKS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {flag!r}")):
        call(flag)
