import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gpforecast import (
    ConstantSeriesError,
    HyperParams,
    KernelSpec,
    Standardizer,
    Term,
    TimeSeries,
    default_horizon,
    default_priors,
    default_spec,
    fit,
    forecast,
    map_objective,
    median_hyperparams,
    parse_frequency,
    predict,
    seasonal_naive,
)
from gpforecast import forecasting, gp
from gpforecast.forecasting import DAILY_PERIOD, MIN_SERIES_LENGTH, SIX_HOURLY
from gpforecast.gp import JITTER_START, prepare_series
from gpforecast.kernels import zero_lag_variance


def handed_grid(monkeypatch, n: int, steps_per_year: float, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The time points of standardized_posterior's forecast: the grid train prepares and the x* fit lays out.

    Training is stubbed out (theta is the prior medians), and fit hands
    both to ``build_cross``.
    """
    handed = {}

    def fake_train(spec, priors, ts, restarts):
        return SimpleNamespace(theta=median_hyperparams(spec, default_priors()), series=prepare_series(spec, ts))

    def recording(column, s2_lin, x_star, x):
        handed["x"], handed["x_star"] = x, x_star
        return real_cross(column, s2_lin, x_star, x)

    real_cross = gp.build_cross
    monkeypatch.setattr(forecasting, "train", fake_train)
    monkeypatch.setattr(gp, "build_cross", recording)
    monkeypatch.setattr(forecasting, "predict", lambda state: None)
    forecasting.standardized_posterior(TimeSeries(values=np.sin(np.arange(n)), steps_per_year=steps_per_year), horizon)
    return handed["x"], handed["x_star"]


class TestTimeIndex:
    def test_monthly_one_year_is_exact(self, monkeypatch):
        x, _ = handed_grid(monkeypatch, 14, 12.0, 3)
        assert x[12] == 1.0
        assert x[0] == 0.0

    def test_quarterly_half_year(self, monkeypatch):
        x, _ = handed_grid(monkeypatch, 8, 4.0, 3)
        assert x[2] == 0.5

    def test_six_hourly_full_year(self, monkeypatch):
        # 4 steps/day * 365.25 days/year = 1461 steps/year
        x, _ = handed_grid(monkeypatch, 1462, 1461.0, 3)
        assert x[1461] == 1.0

    def test_future_index_continues_the_grid(self, monkeypatch):
        x, x_star = handed_grid(monkeypatch, 10, 12.0, 3)
        assert x.size == 10
        np.testing.assert_array_equal(x_star, np.array([10.0, 11.0, 12.0]) / 12.0)

    @pytest.mark.parametrize("steps_per_year", [12.0, 4.0, 1461.0, 52.18, 365.25, 7.3])
    @pytest.mark.parametrize("n, horizon", [(8, 1), (48, 18), (131, 6), (597, 42)])
    def test_train_and_fit_split_one_grid(self, monkeypatch, steps_per_year, n, horizon):
        x, x_star = handed_grid(monkeypatch, n, steps_per_year, horizon)
        grid = np.arange(n + horizon) / steps_per_year
        assert np.concatenate((x, x_star)).tobytes() == grid.tobytes()

    def test_time_series_is_one_class_wherever_it_is_imported(self):
        # tools and perfbench import it from the package root and from forecasting
        import gpforecast

        assert gpforecast.TimeSeries is forecasting.TimeSeries is gp.TimeSeries is TimeSeries

    def test_bad_frequency_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.zeros(3), steps_per_year=0.0)
        with pytest.raises(ValueError):
            parse_frequency("-4")
        with pytest.raises(ValueError):
            parse_frequency("sometimes")

    def test_parse_frequency_names(self):
        assert parse_frequency("monthly") == 12.0
        assert parse_frequency("quarterly") == 4.0
        assert parse_frequency("1461") == 1461.0


class TestDefaultSpec:
    def test_single_seasonal_composition(self):
        spec = default_spec("single-seasonal")
        assert len(spec.terms) == 6
        assert tuple(t.kind for t in spec.terms) == ("PER", "LIN", "RBF", "SM1", "SM2", "WN")
        assert spec.terms[0].period == 1.0

    def test_double_seasonal_composition(self):
        spec = default_spec("double-seasonal")
        assert len(spec.terms) == 7
        assert tuple(t.kind for t in spec.terms) == ("PER", "PER2", "LIN", "RBF", "SM1", "SM2", "WN")
        periods = [t.period for t in spec.terms]
        assert periods[:2] == pytest.approx([1.0 / 52.18, 1.0 / 365.25])

    def test_unknown_mode(self):
        for mode in ("triple", "single", "Single-Seasonal"):
            with pytest.raises(ValueError, match="mode must be"):
                default_spec(mode)

    def test_default_horizons(self):
        assert default_horizon(12.0) == 18
        assert default_horizon(4.0) == 8
        assert default_horizon(1461.0) == 42
        with pytest.raises(ValueError):
            default_horizon(52.0)


class TestStandardizer:
    def test_round_trip_is_exact_to_float_precision(self):
        rng = np.random.default_rng(0)
        values = 100.0 + 7.0 * rng.standard_normal(50)
        std = Standardizer.fit(values)
        back = std.inverse(std.transform(values))
        np.testing.assert_allclose(back, values, rtol=1e-12, atol=1e-12)

    def test_transform_has_zero_mean_unit_variance(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(5.0, 9.0, size=40)
        z = Standardizer.fit(values).transform(values)
        assert float(z.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float(z.std()) == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeriesError):
            Standardizer.fit(np.full(10, 3.3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_series_rejected_by_length_before_any_reduction(self):
        with pytest.raises(ValueError, match="length 0") as info:
            Standardizer.fit(np.empty(0))
        assert not isinstance(info.value, ConstantSeriesError)


class TestForecast:
    def test_sine_series_forecast_is_accurate(self, sine_forecast_run):
        assert sine_forecast_run["mae_standardized"] <= 0.1

    def test_forecast_shapes_and_positivity(self, sine_forecast_run):
        fc = sine_forecast_run["forecast"]
        assert fc.horizon == 18
        assert fc.mean.shape == (18,)
        assert fc.variance.shape == (18,)
        assert np.all(fc.variance > 0)

    def test_noise_series_forecasts_stay_calibrated(self, noise_forecast_runs):
        mean_passes = sum(1 for r in noise_forecast_runs if r["mean_ok"])
        sd_passes = sum(1 for r in noise_forecast_runs if r["sd_ok"])
        assert mean_passes >= 18, f"forecast means inside +-0.5 in only {mean_passes}/20 runs"
        assert sd_passes >= 18, f"predictive sd inside [0.5, 2.0]x in only {sd_passes}/20 runs"

    # 2^510 puts n std^2, the sum np.std takes, past the float range while std^2 fits
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("k", [1, 480, -480, 510])
    def test_power_of_two_scaling_is_bit_exact(self, k, sign):
        a = sign * 2.0**k
        rng = np.random.default_rng(31)
        t = np.arange(40) / 12.0
        base = np.sin(2 * np.pi * t) + 0.3 * rng.standard_normal(40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fc1, _ = forecast(TimeSeries(values=base, steps_per_year=12.0), 6)
            fc2, _ = forecast(TimeSeries(values=a * base, steps_per_year=12.0), 6)
        np.testing.assert_array_equal(fc2.mean, a * fc1.mean)
        np.testing.assert_array_equal(fc2.variance, a * a * fc1.variance)

    def test_general_affine_equivariance(self):
        rng = np.random.default_rng(37)
        t = np.arange(48) / 12.0
        base = 0.5 * t + np.sin(2 * np.pi * t) + 0.2 * rng.standard_normal(48)
        a, b = 3.0, 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fc1, _ = forecast(TimeSeries(values=base, steps_per_year=12.0), 6)
            fc2, _ = forecast(TimeSeries(values=a * base + b, steps_per_year=12.0), 6)
        np.testing.assert_allclose(fc2.mean, a * fc1.mean + b, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(fc2.variance, a * a * fc1.variance, rtol=1e-3)

    # a = +-2^k scales the standardizer's mean and std exactly, so the
    # standardized series, the training and the posterior keep their bits.
    # A general a y + b moves the standardized series by rounding, and the
    # optimizer can amplify that (on monthly series whose cycle is not
    # yearly, means moved by more than 1e-6 sd in 88 of 500 draws and by
    # 2.5 sd in 2), so that map is checked at the trained theta: the
    # posterior and the map back to the data's units
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(24, 200),
        frequency=st.sampled_from([(12.0, "single-seasonal"), (1461.0, "double-seasonal")]),
        k=st.integers(-500, 480),
        sign=st.sampled_from([1.0, -1.0]),
        log2_scale=st.floats(-20.0, 20.0),
        shift=st.floats(-100.0, 100.0),
    )
    def test_forecast_is_affine_equivariant(self, seed, n, frequency, k, sign, log2_scale, shift):
        steps_per_year, mode = frequency
        rng = np.random.default_rng(seed)
        t = np.arange(n) / steps_per_year
        base = np.sin(2 * np.pi * t * rng.uniform(0.5, 4.0)) + rng.normal(0.0, 0.5) * t + 0.3 * rng.standard_normal(n)

        def forecast_of(values):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return forecast(TimeSeries(values=values, steps_per_year=steps_per_year), 6, mode=mode)

        fc, result = forecast_of(base)
        exact = sign * 2.0**k
        scaled, _ = forecast_of(exact * base)
        np.testing.assert_array_equal(scaled.mean, exact * fc.mean)
        np.testing.assert_array_equal(scaled.variance, exact * exact * fc.variance)
        a = sign * 2.0**log2_scale
        b = shift * abs(a)
        ts = TimeSeries(values=a * base + b, steps_per_year=steps_per_year)
        standardizer = Standardizer.fit(ts.values)
        series = prepare_series(default_spec(mode), TimeSeries(standardizer.transform(ts.values), steps_per_year))
        posterior = predict(fit(result.theta, series, 6))
        mean = standardizer.inverse(posterior.mean)
        variance = standardizer.inverse_variance(posterior.observation_variance)
        assert np.max(np.abs(mean - (a * fc.mean + b)) / np.sqrt(a * a * fc.variance)) <= 1e-6
        assert np.max(np.abs(variance / (a * a * fc.variance) - 1.0)) <= 1e-6

    def test_constant_series_raises(self):
        with pytest.raises(ConstantSeriesError):
            forecast(TimeSeries(values=np.ones(20), steps_per_year=12.0), 3)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            forecast(TimeSeries(values=np.arange(7.0), steps_per_year=12.0), 3)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            forecast(TimeSeries(values=np.arange(12.0), steps_per_year=12.0), 0)

    @pytest.mark.parametrize("horizon", [2.5, 0, -1, "3"])
    def test_a_horizon_that_is_no_integer_at_least_1_is_rejected_before_training(self, monkeypatch, horizon):
        monkeypatch.setattr(forecasting, "train", lambda *args, **kwargs: pytest.fail("training ran"))
        ts = TimeSeries(values=np.sin(np.arange(24) / 2.0), steps_per_year=12.0)
        for make in (forecast, forecasting.standardized_posterior, seasonal_naive):
            with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
                make(ts, horizon)

    def test_nonconvergence_warning_quotes_the_termination(self, nonconverging_training):
        ts = TimeSeries(values=np.sin(np.arange(48) / 2.0), steps_per_year=12.0)
        expected = f"training did not converge for series of length 48: {nonconverging_training}"
        with pytest.warns(UserWarning, match=re.escape(expected)) as record:
            _, result = forecast(ts, 3)
        assert [str(w.message) for w in record] == [expected]
        assert not result.converged and result.termination == nonconverging_training

    def test_a_forecast_loads_neither_scipy_optimize_nor_scipy_special(self):
        # a fresh process, so that no other test's imports count
        src = str(Path(forecasting.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import gpforecast\n"
            "values = 10.0 + np.sin(np.pi * np.arange(48) / 6.0) + 0.02 * np.arange(48)\n"
            "gpforecast.forecast(gpforecast.TimeSeries(values, 12.0), 6)\n"
            "print(*sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.special'))))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert run.stdout.split() == []

    def test_standardized_posterior_hands_restarts_to_train(self, monkeypatch):
        real_train, handed = forecasting.train, []

        def recording(spec, priors, ts, restarts=1):
            handed.append(restarts)
            return real_train(spec, priors, ts, restarts)

        monkeypatch.setattr(forecasting, "train", recording)
        ts = TimeSeries(values=np.sin(np.arange(24) / 2.0), steps_per_year=12.0)
        forecasting.standardized_posterior(ts, 3)
        forecasting.standardized_posterior(ts, 3, restarts=3)
        assert handed == [1, 3]


class TestDoubleSeasonal:
    def test_six_hourly_series_with_daily_pattern(self):
        # 30 days of 6-hour steps: a daily cycle plus a weekly level shift
        rng = np.random.default_rng(47)
        n = 120
        steps = np.arange(n)
        daily = np.sin(2.0 * np.pi * steps / 4.0)
        weekly = 0.5 * np.sin(2.0 * np.pi * steps / 28.0)
        values = 3.0 + daily + weekly + 0.1 * rng.standard_normal(n)
        ts = TimeSeries(values=values, steps_per_year=1461.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fc, result = forecast(ts, 8, mode="double-seasonal")
        assert fc.mean.shape == (8,)
        assert np.all(fc.variance > 0)
        # the daily cycle extrapolates: the forecast must track its phase
        future_daily = np.sin(2.0 * np.pi * np.arange(n, n + 8) / 4.0)
        assert float(np.mean(np.abs(fc.mean - 3.0 - future_daily))) < 0.75


class TestExactlyPeriodicSixHourly:
    """An exactly repeating 6-hourly series under the double-seasonal model.

    Such series drive the noise variance toward zero, the regime where the
    covariance sits closest to singular.
    """

    DAY = np.array([0.2, 1.5, -0.4, -1.1])  # one day of four 6-hourly steps

    def series(self, n):
        week = np.tile(self.DAY, 7) + np.repeat(np.linspace(-1.0, 1.0, 7), 4)
        return TimeSeries(values=np.resize(week, n), steps_per_year=SIX_HOURLY)

    @pytest.mark.parametrize("n", [MIN_SERIES_LENGTH, 224])
    def test_long_horizon_forecast_is_finite_with_positive_variance(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fc, _ = forecast(self.series(n), 4 * n, mode="double-seasonal")
        assert np.all(np.isfinite(fc.mean))
        assert np.all(np.isfinite(fc.variance))
        assert np.all(fc.variance > 0)

    @pytest.mark.parametrize(("n", "period_scale"), [(MIN_SERIES_LENGTH, 1e-14), (224, 1e-13)])
    def test_gradient_at_escalated_jitter_matches_finite_differences(self, n, period_scale):
        # Hyperparameters near the prior never escalate the jitter on this
        # grid: the Gram is computed positive semi-definite to rounding.  A
        # daily period shrunk by period_scale puts PER2's phase at 1e14 to
        # 1e16 radians, where its rounding is 0.01 rad or more, so the
        # computed Gram is indefinite at about the level of s2_per2.  y is
        # drawn from that model so the objective stays well scaled for
        # central differences.
        spec = KernelSpec(
            terms=tuple(
                Term("PER2", period=DAILY_PERIOD * period_scale) if t.kind == "PER2" else t
                for t in default_spec("double-seasonal").terms
            )
        )
        priors = default_priors()
        x = np.arange(n) / SIX_HOURLY
        theta = oracles.replace(median_hyperparams(spec, priors), s2_per2=1e-2, s2_noise=1e-12)
        zeros = TimeSeries(np.zeros(n), SIX_HOURLY)
        y = fit(theta, prepare_series(spec, zeros)).chol_lower @ np.random.default_rng(0).standard_normal(n)
        ts = TimeSeries(y, SIX_HOURLY)
        u = np.log(theta.values)

        def jitter_multiple(u_vec):
            moved = HyperParams.from_log(spec, u_vec)
            mean_diag = float(np.mean(zero_lag_variance(spec, moved.values, x) + moved.s2_noise))
            return fit(moved, prepare_series(spec, ts)).jitter / (JITTER_START * mean_diag)

        multiple = jitter_multiple(u)
        assert multiple > 10.0
        # every finite-difference point factorizes at the same jitter level
        h = 1e-5
        for k in range(u.size):
            for step in (h, -h):
                assert jitter_multiple(u + step * np.eye(u.size)[k]) == pytest.approx(multiple, rel=1e-9)

        def objective(u_vec):
            return map_objective(spec, priors, HyperParams.from_log(spec, u_vec), ts)[0]

        fd = oracles.central_difference(objective, u, h=h)
        _, analytic = map_objective(spec, priors, theta, ts)
        assert float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))) <= 1e-4


class TestHorizonMonotonicity:
    def test_rbf_variance_grows_with_distance(self):
        # fixed hyperparameters: the property is about the model, not training
        spec = KernelSpec(terms=(Term("RBF"), Term("WN")))
        theta = HyperParams.of(spec, s2_rbf=1.0, ell_rbf=1.0, s2_noise=0.1)
        rng = np.random.default_rng(41)
        # 20 training points on [0, 4], then 40 more steps
        state = fit(theta, prepare_series(spec, TimeSeries(rng.standard_normal(20), 19.0 / 4.0)), 40)
        posterior = predict(state)
        diffs = np.diff(posterior.observation_variance)
        assert np.all(diffs >= -1e-12)
