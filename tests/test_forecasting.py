import warnings

import numpy as np
import pytest

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
    future_time_index,
    make_time_index,
    map_objective,
    median_hyperparams,
    parse_frequency,
    predict,
    zero_lag_variance,
)
from gpforecast.forecasting import DAILY_PERIOD, MIN_SERIES_LENGTH, SIX_HOURLY
from gpforecast.gp import JITTER_START, prepare_series
from gpforecast.kernels import regular_lags


class TestTimeIndex:
    def test_monthly_one_year_is_exact(self):
        ts = TimeSeries(values=np.zeros(14), steps_per_year=12.0)
        index = make_time_index(ts)
        assert index[12] == 1.0
        assert index[0] == 0.0

    def test_quarterly_half_year(self):
        ts = TimeSeries(values=np.zeros(4), steps_per_year=4.0)
        assert make_time_index(ts)[2] == 0.5

    def test_six_hourly_full_year(self):
        # 4 steps/day * 365.25 days/year = 1461 steps/year
        ts = TimeSeries(values=np.zeros(1462), steps_per_year=1461.0)
        assert make_time_index(ts)[1461] == 1.0

    def test_future_index_continues_the_grid(self):
        ts = TimeSeries(values=np.zeros(10), steps_per_year=12.0)
        future = future_time_index(ts, 3)
        np.testing.assert_array_equal(future, np.array([10.0, 11.0, 12.0]) / 12.0)

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
        with pytest.raises(ValueError):
            default_spec("triple")

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

    def test_constant_series_raises(self):
        with pytest.raises(ConstantSeriesError):
            forecast(TimeSeries(values=np.ones(20), steps_per_year=12.0), 3)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            forecast(TimeSeries(values=np.arange(7.0), steps_per_year=12.0), 3)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            forecast(TimeSeries(values=np.arange(12.0), steps_per_year=12.0), 0)


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
        x = make_time_index(self.series(n))
        assert regular_lags(x) is not None
        theta = median_hyperparams(spec, priors).replace(s2_per2=1e-2, s2_noise=1e-12)
        y = fit(theta, prepare_series(spec, x, np.zeros(n))).chol_lower @ np.random.default_rng(0).standard_normal(n)
        u = np.log(theta.values)

        def jitter_multiple(u_vec):
            moved = HyperParams.from_log(spec, u_vec)
            mean_diag = float(np.mean(zero_lag_variance(spec, moved, x) + moved.s2_noise))
            return fit(moved, prepare_series(spec, x, y)).jitter / (JITTER_START * mean_diag)

        multiple = jitter_multiple(u)
        assert multiple > 10.0
        # every finite-difference point factorizes at the same jitter level
        h = 1e-5
        for k in range(u.size):
            for step in (h, -h):
                assert jitter_multiple(u + step * np.eye(u.size)[k]) == pytest.approx(multiple, rel=1e-9)

        def objective(u_vec):
            return map_objective(spec, priors, HyperParams.from_log(spec, u_vec), x, y)[0]

        fd = oracles.central_difference(objective, u, h=h)
        _, analytic = map_objective(spec, priors, theta, x, y)
        assert float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))) <= 1e-4


class TestHorizonMonotonicity:
    def test_rbf_variance_grows_with_distance(self):
        # fixed hyperparameters: the property is about the model, not training
        spec = KernelSpec(terms=(Term("RBF"), Term("WN")))
        theta = HyperParams.of(spec, s2_rbf=1.0, ell_rbf=1.0, s2_noise=0.1)
        rng = np.random.default_rng(41)
        x = np.linspace(0.0, 4.0, 20)
        y = rng.standard_normal(20)
        x_star = 4.0 + np.linspace(0.05, 5.0, 40)
        state = fit(theta, prepare_series(spec, x, y), x_star)
        posterior = predict(state)
        diffs = np.diff(posterior.observation_variance)
        assert np.all(diffs >= -1e-12)
