import math
import re
import warnings

import numpy as np
import pytest

from gpforecast import IllConditionedModelError, forecasting, load_priors, training
from gpforecast.cli import main


@pytest.fixture()
def monthly_series_csv(tmp_path):
    rng = np.random.default_rng(71)
    t = np.arange(48) / 12.0
    values = 10.0 + 0.5 * t + np.sin(2 * np.pi * t) + 0.2 * rng.standard_normal(48)
    path = tmp_path / "series.csv"
    path.write_text("value\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return path


@pytest.fixture()
def quarterly_dataset_csv(tmp_path):
    rng = np.random.default_rng(72)
    lines = ["series,step,value"]
    for name in ("a", "b"):
        t = np.arange(40) / 4.0
        values = 0.3 * t + np.sin(2 * np.pi * t) + 0.3 * rng.standard_normal(40)
        lines.extend(f"{name},{i},{float(v)!r}" for i, v in enumerate(values))
    path = tmp_path / "dataset.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestForecastCommand:
    def test_writes_forecast_csv(self, monthly_series_csv, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        code = main(
            ["forecast", str(monthly_series_csv), "--freq", "monthly", "--horizon", "6", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,mean,variance"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert int(first[0]) == 48
        assert float(first[2]) > 0

    def test_defaults_horizon_by_frequency(self, monthly_series_csv, capsys):
        code = main(["forecast", str(monthly_series_csv), "--freq", "monthly"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 18

    def test_headerless_input(self, tmp_path, capsys):
        rng = np.random.default_rng(73)
        values = np.sin(np.arange(30) / 2.0) + 0.1 * rng.standard_normal(30)
        path = tmp_path / "bare.csv"
        path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        assert main(["forecast", str(path), "--freq", "monthly", "--horizon", "3"]) == 0

    def test_shuffled_one_series_long_file_forecasts_like_its_bare_numbers(self, tmp_path, capsys):
        rng = np.random.default_rng(75)
        values = 5.0 + np.sin(np.arange(30) / 2.0) + 0.1 * rng.standard_normal(30)
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        rows = [f"m,{i},{float(v)!r}" for i, v in enumerate(values)]
        long = tmp_path / "long.csv"
        long.write_text("series,step,value\n" + "\n".join(rng.permutation(rows)) + "\n")
        outputs = []
        for path in (bare, long):
            assert main(["forecast", str(path), "--freq", "monthly", "--horizon", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].startswith("30,")

    def test_the_step_column_continues_a_long_files_own_steps(self, monthly_series_csv, tmp_path, capsys):
        values = monthly_series_csv.read_text().split()[1:]
        long = tmp_path / "long.csv"
        rows = [f"m,{i},{v}" for i, v in enumerate(values, start=1)]
        long.write_text("series,step,value\n" + "\n".join(rows) + "\n")
        outputs = []
        for path in (monthly_series_csv, long):
            assert main(["forecast", str(path), "--freq", "monthly", "--horizon", "3"]) == 0
            outputs.append([line.split(",") for line in capsys.readouterr().out.splitlines()[1:]])
        # steps 1-48 go on at 49; the value column has no steps, so its 48 rows count from 0
        assert [row[0] for row in outputs[1]] == ["49", "50", "51"]
        assert [row[0] for row in outputs[0]] == ["48", "49", "50"]
        assert [row[1:] for row in outputs[0]] == [row[1:] for row in outputs[1]]

    def test_long_file_of_two_series_returns_error(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("series,step,value\na,1,5.0\na,0,4.0\nb,0,100.0\nb,1,101.0\n")
        assert main(["forecast", str(path), "--freq", "monthly", "--horizon", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: holds 2 series; a forecast reads one\n"

    @pytest.mark.parametrize(
        "bad, message",
        [("nan", "value nan is not finite"), ("-inf", "value -inf is not finite"), ("soon", "value 'soon' is not numeric")],
    )
    def test_bad_value_names_its_line(self, tmp_path, capsys, bad, message):
        # the blank line 3 still counts, so the bad value stands on line 5
        path = tmp_path / "bad.csv"
        path.write_text(f"value\n1.0\n\n2.0\n{bad}\n3.0\n")
        assert main(["forecast", str(path), "--freq", "monthly", "--horizon", "1"]) == 1
        assert f"line 5: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file_returns_error(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert main(["forecast", str(path), "--freq", "monthly"]) == 1
        assert capsys.readouterr().err == f"error: {path}: file is empty\n"

    def test_missing_file_returns_error(self, capsys):
        code = main(["forecast", "nope.csv", "--freq", "monthly"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["train", "fit", "predict"])
    def test_numerical_failure_is_an_error_not_a_traceback(self, monthly_series_csv, capsys, monkeypatch, stage):
        def failing(*args, **kwargs):
            raise IllConditionedModelError(f"{stage} could not factorize")

        monkeypatch.setattr(forecasting, stage, failing)
        assert main(["forecast", str(monthly_series_csv), "--freq", "monthly", "--horizon", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {stage} could not factorize\n"

    def test_not_utf8_names_the_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1.0\n2.0\n\xff\xfe\n")
        assert main(["forecast", str(path), "--freq", "monthly"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: line 3: ")

    def test_nonconvergence_warning_names_the_termination(self, monthly_series_csv, capsys, nonconverging_training):
        # forecast's warning is printed once, as one stderr line, and none escapes as a Python warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["forecast", str(monthly_series_csv), "--freq", "monthly", "--horizon", "2"])
        assert code == 0
        pattern = r"warning: training did not converge for series of length 48: " + re.escape(nonconverging_training)
        assert re.fullmatch(pattern + "\n", capsys.readouterr().err)

    def test_training_that_evaluates_nowhere_warns_on_stderr(self, monthly_series_csv, capsys, monkeypatch):
        def failing(self, theta):
            raise IllConditionedModelError("rigged")

        monkeypatch.setattr(training.MapObjective, "at", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["forecast", str(monthly_series_csv), "--freq", "monthly", "--horizon", "2"])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: training failed to evaluate the objective anywhere; returning prior medians",
            "warning: training did not converge for series of length 48: no trial point could be evaluated",
        ]

    def test_custom_priors_flow_through_forecast(self, monthly_series_csv, tmp_path, capsys):
        priors_file = tmp_path / "priors.txt"
        assert main(["priors", "--output", str(priors_file)]) == 0
        code = main(
            [
                "forecast",
                str(monthly_series_csv),
                "--freq",
                "monthly",
                "--horizon",
                "2",
                "--priors",
                str(priors_file),
            ]
        )
        assert code == 0


class TestBenchCommand:
    def test_human_report(self, quarterly_dataset_csv, capsys):
        code = main(["bench", str(quarterly_dataset_csv), "--freq", "quarterly"])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregate: scored=2 failed=0" in out

    def test_machine_report_round_trips(self, quarterly_dataset_csv, capsys):
        from gpforecast import parse_machine_report

        code = main(["bench", str(quarterly_dataset_csv), "--freq", "quarterly", "--format", "machine"])
        assert code == 0
        parsed = parse_machine_report(capsys.readouterr().out)
        assert parsed["aggregate"]["scored"] == 2

    def test_wide_layout_in_parallel(self, tmp_path, capsys):
        from gpforecast import CsvLayout, emit_report, load_csv, parse_machine_report, run_benchmark
        from gpforecast.bench import TIMING

        rng = np.random.default_rng(74)
        t = np.arange(36) / 12.0
        columns = [10.0 + k * t + np.sin(2 * np.pi * t + k) + 0.2 * rng.standard_normal(36) for k in range(3)]
        columns[2] = columns[2][:30]  # a shorter series ends with empty cells
        rows = [",".join(repr(float(c[i])) if i < c.size else "" for c in columns) for i in range(36)]
        path = tmp_path / "wide.csv"
        path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        out = tmp_path / "report.jsonl"
        flags = ["--freq", "monthly", "--test-length", "6"]
        assert main(["bench", str(path), *flags, "--format", "machine", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""

        dataset = load_csv(path, CsvLayout(steps_per_year=12.0, test_length=6))
        report = run_benchmark(dataset, parallelism=2)
        expected = parse_machine_report(emit_report(report, "machine"))
        parsed = parse_machine_report(out.read_text())

        def untimed(record):
            return {key: value for key, value in record.items() if key not in TIMING}

        assert [untimed(r) for r in parsed["series"]] == [untimed(r) for r in expected["series"]]
        assert [r["series"] for r in parsed["series"]] == ["a", "b", "c"]
        assert parsed["failures"] == expected["failures"] == []
        assert untimed(parsed["aggregate"]) == untimed(expected["aggregate"])

        assert main(["bench", str(path), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        agg = expected["aggregate"]
        for key in ("median_mae", "median_crps", "median_ll"):
            assert f"  {key:<11} {agg[key]:.4f}" in lines

    @pytest.mark.parametrize(
        "option",
        [
            ["--layout", "wide"],  # the header gives it: long, as this one names series, step and value
            ["--parallel", "2"],  # a thread pool was no faster than serial; run_benchmark keeps its parallelism
        ],
        ids=["layout", "parallel"],
    )
    def test_a_removed_option_is_refused(self, quarterly_dataset_csv, capsys, option):
        with pytest.raises(SystemExit) as raised:
            main(["bench", str(quarterly_dataset_csv), "--freq", "quarterly", *option])
        assert raised.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_a_file_of_bare_numbers_is_an_error_at_its_first_line(self, tmp_path, capsys):
        # it used to score one series named by its first value, built from the rest
        path = tmp_path / "bare.csv"
        path.write_text("".join(f"{10.0 + math.sin(i / 2.0)!r}\n" for i in range(48)))
        assert main(["bench", str(path), "--freq", "monthly"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 1: a number, not a header; a dataset file names its columns\n"

    def test_a_frequency_whose_span_in_years_overflows_is_an_error(
        self, monthly_series_csv, quarterly_dataset_csv, capsys
    ):
        # each used to fail in training as a bare "math domain error", bench's a bug's traceback
        assert main(["forecast", str(monthly_series_csv), "--freq", "5e-324", "--horizon", "3"]) == 1
        assert capsys.readouterr().err == "error: steps_per_year 5e-324 is too small: the span in years overflows\n"
        assert main(["bench", str(quarterly_dataset_csv), "--freq", "1e-308", "--test-length", "6"]) == 1
        assert capsys.readouterr().err == "error: steps_per_year 1e-308 is too small: the span in years overflows\n"

    def test_failures_fail_the_run_unless_allowed(self, tmp_path, capsys):
        lines = ["series,step,value"]
        lines.extend(f"flat,{i},1.0" for i in range(40))
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["bench", str(path), "--freq", "quarterly"]) == 1
        assert main(["bench", str(path), "--freq", "quarterly", "--allow-failures"]) == 0


class TestPriorsCommand:
    def test_printed_priors_parse_back(self, tmp_path, capsys):
        out = tmp_path / "priors.txt"
        assert main(["priors", "--output", str(out)]) == 0
        loaded = load_priors(out)
        assert loaded["s2_rbf"].nu == -1.5
        assert loaded["tau_sm2"].nu == 1.6

    def test_stdout_output(self, capsys):
        assert main(["priors"]) == 0
        assert "s2_rbf" in capsys.readouterr().out

    def test_custom_priors_are_used(self, tmp_path, capsys):
        custom = tmp_path / "custom.txt"
        assert main(["priors", "--output", str(custom)]) == 0
        text = custom.read_text().replace("ell_rbf = 1.1", "ell_rbf = 0.9")
        custom.write_text(text)
        out = tmp_path / "echo.txt"
        assert main(["priors", "--priors", str(custom), "--output", str(out)]) == 0
        assert load_priors(out)["ell_rbf"].nu == 0.9

    def test_a_byte_order_mark_is_read_past(self, tmp_path, capsys):
        marked = tmp_path / "marked.txt"
        assert main(["priors", "--output", str(marked)]) == 0
        text = marked.read_bytes()
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["priors", "--priors", str(marked)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == text

    def test_a_file_that_is_not_utf8_names_the_file_line_and_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        assert main(["priors", "--output", str(bad)]) == 0
        text = bad.read_bytes()
        bad.write_bytes(text + b"\xff\n")
        assert main(["priors", "--priors", str(bad)]) == 1
        line = text.count(b"\n") + 1
        expected = f"error: {bad}: line {line}: byte {len(text)}, 0xff, is not UTF-8 (invalid start byte)\n"
        assert capsys.readouterr().err == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["forecast", "series.csv", "--freq", "monthly", "--config", "train.cfg"],
        ["bench", "data.csv", "--freq", "monthly", "--config", "train.cfg"],
        ["bench", "data.csv", "--freq", "monthly", "--seed", "1"],
    ],
    ids=["forecast-config", "bench-config", "bench-seed"],
)
def test_training_takes_no_settings_on_the_command_line(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err
