import numpy as np
import pytest

from gpforecast import TrainConfig, cli, load_priors
from gpforecast.cli import load_train_config, main


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

    def test_missing_file_returns_error(self, capsys):
        code = main(["forecast", "nope.csv", "--freq", "monthly"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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

    def test_failures_fail_the_run_unless_allowed(self, tmp_path, capsys):
        lines = ["series,step,value"]
        lines.extend(f"flat,{i},1.0" for i in range(40))
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["bench", str(path), "--freq", "quarterly"]) == 1
        assert main(["bench", str(path), "--freq", "quarterly", "--allow-failures"]) == 0

    def test_negative_seed_fails_before_any_series_runs(self, quarterly_dataset_csv, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_benchmark", lambda *args, **kwargs: pytest.fail("a series ran"))
        assert main(["bench", str(quarterly_dataset_csv), "--freq", "quarterly", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "seed must be >= 0" in captured.err and not captured.out


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
        from gpforecast import default_priors, save_priors

        save_priors(default_priors(), custom)
        text = custom.read_text().replace("ell_rbf = 1.1", "ell_rbf = 0.9")
        custom.write_text(text)
        out = tmp_path / "echo.txt"
        assert main(["priors", "--priors", str(custom), "--output", str(out)]) == 0
        assert load_priors(out)["ell_rbf"].nu == 0.9


class TestTrainConfigFile:
    def test_overrides_defaults(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# tighter run\nmax_iters = 50\nrestarts = 2\nseed = 9\n")
        config = load_train_config(path)
        assert config == TrainConfig(max_iters=50, restarts=2, seed=9)

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("max_iters = 50\nbogus = 1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_train_config(path)

    def test_repeated_key_reports_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("max_iters = 50\nseed = 1\nmax_iters = 60\n")
        with pytest.raises(ValueError, match="line 3: duplicate"):
            load_train_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("max_iters = soon\n")
        with pytest.raises(ValueError, match="line 1"):
            load_train_config(path)

    @pytest.mark.parametrize(("line", "message"), [("grad_tol = nan", "tolerances"), ("seed = -1", "seed")])
    def test_value_that_train_config_rejects_names_the_file(self, monthly_series_csv, tmp_path, capsys, line, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(line + "\n")
        code = main(["forecast", str(monthly_series_csv), "--freq", "monthly", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and message in err

    def test_config_flows_through_cli(self, monthly_series_csv, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("max_iters = 150\n")
        code = main(
            ["forecast", str(monthly_series_csv), "--freq", "monthly", "--horizon", "2", "--config", str(cfg)]
        )
        assert code == 0

    def test_custom_priors_flow_through_forecast(self, monthly_series_csv, tmp_path, capsys):
        from gpforecast import default_priors, save_priors

        priors_file = tmp_path / "priors.txt"
        save_priors(default_priors(), priors_file)
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
