import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gpforecast import crps_gaussian, score


def mae_of(y, mu):
    """score's MAE at unit variances, which MAE does not read."""
    return score(y, mu, np.ones(np.shape(y))).mae


class TestMae:
    def test_zero_when_exact(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mae_of(y, y) == 0.0

    def test_simple_case(self):
        assert mae_of(np.array([1.0, -1.0]), np.array([0.0, 0.0])) == 1.0

    def test_random_vectors_match_direct_recomputation(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(18)
        mu = rng.standard_normal(18)
        direct = sum(abs(a - b) for a, b in zip(y, mu)) / 18.0
        assert mae_of(y, mu) == pytest.approx(direct, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            score(np.zeros(3), np.zeros(4), np.ones(3))


class TestCrps:
    def test_value_at_center(self):
        # closed form at y == mu: sigma * (sqrt(2/pi) - 1/sqrt(pi))
        for sigma in (0.5, 1.0, 3.7):
            expected = 0.23369497725510913 * sigma
            assert crps_gaussian(1.0, 1.0, sigma) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_limit_recovers_absolute_error(self):
        for y, mu in ((1.3, 0.4), (-2.0, 1.0), (0.5, 0.49)):
            assert abs(crps_gaussian(y, mu, 1e-6) - abs(y - mu)) <= 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_quadrature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mu = float(rng.normal(0.0, 2.0))
        sigma = float(rng.uniform(0.1, 3.0))
        y = mu + float(rng.uniform(-3.0, 3.0)) * sigma
        assert crps_gaussian(y, mu, sigma) == pytest.approx(
            oracles.crps_by_quadrature(y, mu, sigma), abs=1e-6
        )

    @settings(max_examples=50, deadline=None)
    @given(
        y=st.integers(-80, 80),
        mu=st.integers(-80, 80),
        sigma=st.floats(0.01, 10.0),
        shift=st.integers(-800, 800),
    )
    def test_translation_invariant_exactly_on_binary_grid(self, y, mu, sigma, shift):
        # eighths add exactly in binary floating point, so the shifted
        # difference is bit-identical and the scores must be too
        y, mu, shift = y / 8.0, mu / 8.0, shift / 8.0
        assert crps_gaussian(y + shift, mu + shift, sigma) == crps_gaussian(y, mu, sigma)

    @settings(max_examples=50, deadline=None)
    @given(
        y=st.floats(-10.0, 10.0),
        mu=st.floats(-10.0, 10.0),
        sigma=st.floats(0.01, 10.0),
        shift=st.floats(-100.0, 100.0),
    )
    def test_translation_invariant_for_arbitrary_floats(self, y, mu, sigma, shift):
        shifted = crps_gaussian(y + shift, mu + shift, sigma)
        assert shifted == pytest.approx(crps_gaussian(y, mu, sigma), rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        y=st.floats(-10.0, 10.0),
        mu=st.floats(-10.0, 10.0),
        sigma=st.floats(0.01, 10.0),
        scale=st.floats(0.01, 100.0),
    )
    def test_scales_linearly(self, y, mu, sigma, scale):
        scaled = crps_gaussian(scale * y, scale * mu, scale * sigma)
        assert scaled == pytest.approx(scale * crps_gaussian(y, mu, sigma), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "mu_wrong,sigma_wrong",
        [(0.5, 1.0), (0.0, 2.0), (0.0, 0.5), (-1.0, 1.5), (2.0, 1.0)],
    )
    def test_proper_score_prefers_the_true_distribution(self, mu_wrong, sigma_wrong):
        # Monte Carlo: E[CRPS(true)] < E[CRPS(mismatched)] by > 3 paired SEs
        rng = np.random.default_rng(12345)
        draws = rng.normal(0.0, 1.0, size=100_000)
        true_scores = crps_gaussian(draws, 0.0, 1.0)
        wrong_scores = crps_gaussian(draws, mu_wrong, sigma_wrong)
        diff = wrong_scores - true_scores
        margin = float(diff.mean())
        stderr = float(diff.std(ddof=1) / math.sqrt(diff.size))
        assert margin > 3.0 * stderr

    def test_matches_the_normal_cdf_of_scipy_special(self):
        # the package computes 2 Phi(z) - 1 as erf(z / sqrt(2)); scipy is the oracle here only
        from scipy.special import ndtr

        z = np.linspace(-38.0, 38.0, 7601)
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        expected = 2.5 * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))
        got = crps_gaussian(0.25 + 2.5 * z, 0.25, 2.5)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-14)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            crps_gaussian(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            crps_gaussian(0.0, 0.0, -1.0)


class TestLogLikelihood:
    def test_perfect_forecast_unit_variance(self):
        y = np.array([0.3, -0.7, 1.1])
        assert score(y, y, np.ones(3)).ll == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_single_step_unit_residual(self):
        assert score(np.array([1.0]), np.array([0.0]), np.array([1.0])).ll == pytest.approx(
            -1.4189385332046727, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_density_oracle(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(18)
        mu = rng.standard_normal(18)
        sigma2 = rng.uniform(0.1, 4.0, size=18)
        assert score(y, mu, sigma2).ll == pytest.approx(oracles.gaussian_logpdf_mean(y, mu, sigma2), abs=1e-12)

    def test_maximized_at_squared_residual(self):
        y, mu = np.array([2.0]), np.array([0.5])
        best = float((y[0] - mu[0]) ** 2)
        at_best = score(y, mu, np.array([best])).ll
        for factor in (0.25, 0.5, 2.0, 4.0):
            assert at_best > score(y, mu, np.array([best * factor])).ll

    def test_rejects_bad_variances_and_lengths(self):
        with pytest.raises(ValueError, match="variances must be finite and > 0"):
            score(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="length mismatch"):
            score(np.zeros(2), np.zeros(2), np.ones(3))

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_rejects_negative_and_nonfinite_variances(self, bad):
        with pytest.raises(ValueError, match="variances must be finite and > 0"):
            score(np.zeros(2), np.zeros(2), np.array([1.0, bad]))

    @pytest.mark.parametrize(
        "y, mu, name",
        [
            ([np.nan, 1.0], [0.0, 0.0], "actuals"),
            ([np.inf, 1.0], [0.0, 0.0], "actuals"),
            ([0.0, -np.inf], [0.0, 0.0], "actuals"),
            ([0.0, 0.0], [np.nan, 1.0], "means"),
            ([0.0, 0.0], [1.0, np.inf], "means"),
        ],
        ids=["nan-actual", "inf-actual", "minus-inf-actual", "nan-mean", "inf-mean"],
    )
    def test_rejects_nonfinite_actuals_and_means_by_name(self, y, mu, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            score(np.array(y), np.array(mu), np.ones(2))

    def test_rejects_no_test_step(self):
        with pytest.raises(ValueError, match="need at least one test step"):
            score(np.zeros(0), np.zeros(0), np.ones(0))


class TestScoreReport:
    def test_aggregates_match_components(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(18)
        mu = rng.standard_normal(18)
        sigma2 = rng.uniform(0.2, 2.0, size=18)
        report = score(y, mu, sigma2)
        assert report.mae == pytest.approx(sum(abs(a - b) for a, b in zip(y, mu)) / 18.0, abs=1e-15)
        assert report.ll == pytest.approx(oracles.gaussian_logpdf_mean(y, mu, sigma2), abs=1e-12)
        assert report.mae == float(np.mean(report.abs_errors))
        assert report.ll == float(np.mean(report.ll_per_step))
        assert report.crps == pytest.approx(float(np.mean(crps_gaussian(y, mu, np.sqrt(sigma2)))), abs=1e-15)
        assert report.abs_errors.shape == (18,)
        assert report.crps_per_step.shape == (18,)
        assert report.ll_per_step.shape == (18,)
        assert report.mae >= 0 and report.crps >= 0
