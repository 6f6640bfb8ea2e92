import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, toeplitz

import oracles
from gpforecast import (
    HyperParams,
    IllConditionedModelError,
    KernelSpec,
    Term,
    default_priors,
    default_spec,
    fit,
    log_marginal_likelihood_and_grad,
    map_objective,
    median_hyperparams,
    predict,
    train,
)
from gpforecast import gp, kernels
from gpforecast.gp import JITTER_START, TimeSeries, prepare_series
from gpforecast.kernels import build_gram, grad_gram, lag_column

FULL_SPEC = default_spec("single-seasonal")
PRIORS = default_priors()
MEDIANS = median_hyperparams(FULL_SPEC, PRIORS)

WN_SPEC = KernelSpec(terms=(Term("WN"),))


def grid_lengths(rng):
    """30 grid lengths drawn from 4 .. 60, then the two shortest grids, 2 and 3."""
    yield from (int(rng.integers(4, 61)) for _ in range(30))
    yield from (2, 3)


def dense_jittered_gram(spec, theta, x):
    """The Gram from the scalar oracle, plus the base jitter."""
    gram = np.array([[oracles.composition_value(spec, theta, a, b) for b in x] for a in x])
    return gram + JITTER_START * float(np.mean(np.diag(gram))) * np.eye(len(x))


def jittered_gram(spec, theta, x, jitter=None):
    """The pairwise oracle's Gram plus ``jitter`` (default the base jitter): the matrix factorized, to rounding."""
    gram = oracles.dense_gram(spec, theta, x)
    if jitter is None:
        jitter = JITTER_START * float(np.mean(np.diag(gram)))
    return gram + jitter * np.eye(len(x))


def factorized_gram(spec, theta, x):
    """The matrix the implementation factorizes, bit for bit: the Toeplitz layout of its lag column, plus the base jitter.

    ``x`` is a series' grid, x_0 = 0, so its lags are x itself.
    """
    values = theta.values
    column = lag_column(spec, values, grad_gram(spec, values, gp.Differences.of(spec, x)))
    gram = build_gram(column, math.sqrt(theta.s2_lin) * x)
    return gram + JITTER_START * float(np.mean(np.diag(gram))) * np.eye(len(x))


class TestLogMarginalLikelihood:
    def test_zero_observations_under_unit_noise_are_standard_normal(self):
        # unit noise, observations 0: log density of a standard normal at 0, once per point
        series = prepare_series(WN_SPEC, TimeSeries(np.zeros(3), 2.0))
        value = log_marginal_likelihood_and_grad(HyperParams.of(WN_SPEC, s2_noise=1.0).values, series)[0]
        assert value == pytest.approx(3 * -0.9189385332046727, abs=1e-6)

    def test_two_points_identity_covariance(self):
        theta = HyperParams.of(WN_SPEC, s2_noise=1.0)
        series = prepare_series(WN_SPEC, TimeSeries(np.array([1.0, -1.0]), 1.0))
        value = log_marginal_likelihood_and_grad(theta.values, series)[0]
        assert value == pytest.approx(-2.8378770664093453, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_inverse_oracle(self, seed):
        rng = np.random.default_rng(seed)
        series = prepare_series(FULL_SPEC, TimeSeries(rng.standard_normal(5), rng.uniform(0.5, 12.0)))
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        value = log_marginal_likelihood_and_grad(theta.values, series)[0]
        expected = oracles.dense_log_mvn(jittered_gram(FULL_SPEC, theta, series.x), series.y)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            fit(HyperParams.of(WN_SPEC, s2_noise=1.0), prepare_series(WN_SPEC, TimeSeries(np.zeros((2, 1)), 1.0)))
        with pytest.raises(ValueError):
            fit(HyperParams.of(WN_SPEC, s2_noise=1.0), prepare_series(WN_SPEC, TimeSeries(np.empty(0), 1.0)))


class TestRegularGridOnly:
    """The series carries its grid: step i at i / steps_per_year, and fit's test points are the next h steps."""

    ENTRY_POINTS = {
        "prepare_series": lambda ts: prepare_series(FULL_SPEC, ts),
        "train": lambda ts: train(FULL_SPEC, PRIORS, ts),
        "map_objective": lambda ts: map_objective(FULL_SPEC, PRIORS, MEDIANS, ts),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_points_reject_a_series_of_one_step(self, entry):
        with pytest.raises(ValueError, match="at least 2 steps"):
            self.ENTRY_POINTS[entry](TimeSeries(np.array([0.5]), 12.0))

    @pytest.mark.parametrize("steps_per_year", [12.0, 4.0, 1461.0, 52.18])
    @pytest.mark.parametrize(("n", "h"), [(2, 1), (3, 2), (24, 18), (115, 8), (132, 42), (500, 16)])
    def test_grids_are_arange_over_steps_per_year_bit_for_bit(self, n, h, steps_per_year, monkeypatch):
        # x is arange(n) / s, and x followed by fit's x* is arange(n + h) / s
        crossed = []

        def recording(column, s2_lin, x_star, x):
            crossed.append((x_star, x))
            return real(column, s2_lin, x_star, x)

        real = gp.build_cross
        monkeypatch.setattr(gp, "build_cross", recording)
        rng = np.random.default_rng(int(steps_per_year) + n)
        series = prepare_series(FULL_SPEC, TimeSeries(rng.standard_normal(n), steps_per_year))
        assert series.x.tobytes() == (np.arange(n) / steps_per_year).tobytes()
        fit(MEDIANS, series, h)
        x_star, x = crossed.pop()
        assert np.concatenate((x, x_star)).tobytes() == (np.arange(n + h) / steps_per_year).tobytes()

    @pytest.mark.parametrize("horizon", [-1, 2.5, "3"])
    def test_fit_rejects_a_horizon_that_is_no_integer_at_least_0(self, horizon):
        series = prepare_series(FULL_SPEC, TimeSeries(np.sin(np.arange(24) / 2.0), 12.0))
        with pytest.raises(ValueError, match="horizon must be an integer >= 0"):
            fit(MEDIANS, series, horizon)

    @pytest.mark.parametrize("mode", ["single-seasonal", "double-seasonal"])
    def test_fit_without_test_points_gives_the_objectives_log_marginal(self, mode):
        spec = default_spec(mode)
        rng = np.random.default_rng(29)
        for n in (2, 24, 132):
            series = prepare_series(spec, TimeSeries(rng.standard_normal(n), 12.0))
            theta = oracles.replace(oracles.random_hyperparams(spec, PRIORS, rng), s2_noise=0.05)
            expected = log_marginal_likelihood_and_grad(theta.values, series)[0]
            state = fit(theta, series, horizon=0)
            oracle = oracles.dense_log_mvn(jittered_gram(spec, theta, series.x, state.jitter), series.y)
            assert abs(oracle - expected) <= 1e-10 * abs(expected)
            assert state.cross.shape == (0, n) and state.prior_variance.shape == (0,)


class TestGradient:
    def test_noise_only_closed_form(self):
        # d lml / d log s2 = -n/2 + y'y / (2 s2) for a pure noise model
        rng = np.random.default_rng(3)
        y = rng.standard_normal(6)
        s2 = 0.7
        series = prepare_series(WN_SPEC, TimeSeries(y, 1.0))
        _, grad = log_marginal_likelihood_and_grad(HyperParams.of(WN_SPEC, s2_noise=s2).values, series)
        expected = -3.0 + float(y @ y) / (2.0 * s2)
        assert grad[0] == pytest.approx(expected, rel=1e-6)

    def test_zero_gradient_at_noise_mle(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(6)
        s2_hat = float(np.mean(y * y))
        series = prepare_series(WN_SPEC, TimeSeries(y, 1.0))
        _, grad = log_marginal_likelihood_and_grad(HyperParams.of(WN_SPEC, s2_noise=s2_hat).values, series)
        assert abs(grad[0]) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_composition_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        ts = TimeSeries(rng.standard_normal(8), rng.uniform(0.5, 12.0))
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        u = np.log(theta.values)

        def f(u_vec):
            theta_u = HyperParams.from_log(FULL_SPEC, u_vec)
            return log_marginal_likelihood_and_grad(theta_u.values, prepare_series(FULL_SPEC, ts))[0]

        fd = oracles.central_difference(f, u, h=1e-5)
        _, analytic = log_marginal_likelihood_and_grad(theta.values, prepare_series(FULL_SPEC, ts))
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        assert float(rel.max()) <= 1e-5

    def test_value_and_grad_agree_with_separate_calls(self, monkeypatch):
        # on the Cholesky fallback the objective factorizes the Gram fit factorizes
        # (test_fit_factors_as_the_objectives_fallback checks the factor's bits)
        monkeypatch.setattr(gp, "LEVINSON_MIN_ERROR_RATIO", 2.0)  # every E_k / E_0 is <= 1
        rng = np.random.default_rng(9)
        ts = TimeSeries(rng.standard_normal(5), rng.uniform(0.5, 12.0))
        series = prepare_series(FULL_SPEC, ts)
        value, grad = log_marginal_likelihood_and_grad(MEDIANS.values, series)
        jitter = fit(MEDIANS, prepare_series(FULL_SPEC, ts)).jitter
        x, y = series.x, series.y
        assert value == pytest.approx(oracles.dense_log_mvn(jittered_gram(FULL_SPEC, MEDIANS, x, jitter), y), abs=1e-8)
        np.testing.assert_array_equal(grad, log_marginal_likelihood_and_grad(MEDIANS.values, series)[1])


class TestRegularGrid:
    """LML and MAP gradient on the time-index grids ``arange(n) / steps_per_year``, where the Gram is Toeplitz.

    These checks use acceptance criteria 1 and 2's tolerances on the grids
    a forecast trains on.
    """

    GRIDS = [("single-seasonal", 12.0), ("double-seasonal", 1461.0)]

    @pytest.mark.parametrize(("mode", "steps_per_year"), GRIDS)
    def test_log_marginal_matches_dense_oracle(self, mode, steps_per_year):
        spec = default_spec(mode)
        rng = np.random.default_rng(int(steps_per_year))
        for n in grid_lengths(rng):
            x = np.arange(n) / steps_per_year
            y = rng.standard_normal(n)
            theta = oracles.random_hyperparams(spec, PRIORS, rng)
            cov = np.array([[oracles.composition_value(spec, theta, a, b) for b in x] for a in x])
            jitter = JITTER_START * float(np.mean(np.diag(cov)))
            series = prepare_series(spec, TimeSeries(y, steps_per_year))
            state = fit(theta, series)
            assert state.jitter == pytest.approx(jitter, rel=1e-12)
            expected = oracles.dense_log_mvn(cov + state.jitter * np.eye(n), y)
            # the objective, on the Levinson path or its Cholesky fallback
            assert abs(log_marginal_likelihood_and_grad(theta.values, series)[0] - expected) <= 1e-8

    @pytest.mark.parametrize(("mode", "steps_per_year"), GRIDS)
    def test_map_gradient_matches_finite_differences(self, mode, steps_per_year):
        spec = default_spec(mode)
        rng = np.random.default_rng(int(steps_per_year) + 1)
        for n in grid_lengths(rng):
            ts = TimeSeries(rng.standard_normal(n), steps_per_year)
            theta = oracles.random_hyperparams(spec, PRIORS, rng)

            def objective(u_vec, spec=spec, ts=ts):
                return map_objective(spec, PRIORS, HyperParams.from_log(spec, u_vec), ts)[0]

            fd = oracles.central_difference(objective, np.log(theta.values), h=1e-5)
            _, analytic = map_objective(spec, PRIORS, theta, ts)
            rel = float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))
            assert rel <= 1e-4

    @pytest.mark.parametrize("n", [8, 48, 132, 224, 336])
    @pytest.mark.parametrize(("mode", "steps_per_year"), GRIDS)
    def test_log_marginal_and_gradient_match_long_double_oracles(self, mode, steps_per_year, n):
        # the value against a long-double Cholesky, the gradient against a
        # long-double K^-1 (oracles.longdouble_lml_gradient).  Tolerances are
        # relative to max(1, |value|) and max(1, max |grad|): 1e-9 for both,
        # 2e-6 and 5e-6 at the near-noiseless point, whose Gram (condition
        # number ~1e9) amplifies float64 rounding; measured worst 1.1e-11
        # elsewhere and 1.8e-7 there.
        full = default_spec(mode)
        without_lin = KernelSpec(terms=tuple(t for t in full.terms if t.kind != "LIN"))
        medians = median_hyperparams(full, PRIORS)
        points = [
            (full, medians, 1e-9, 1e-9),
            (full, oracles.replace(medians, s2_lin=37.0, s2_bias=23.0), 1e-9, 1e-9),
            (without_lin, median_hyperparams(without_lin, PRIORS), 1e-9, 1e-9),
            (full, oracles.replace(medians, s2_noise=5e-8), 2e-6, 5e-6),
        ]
        x = np.arange(n) / steps_per_year
        y = np.random.default_rng(n).standard_normal(n)
        for spec, theta, value_tol, grad_tol in points:
            value, grad = log_marginal_likelihood_and_grad(theta.values, prepare_series(spec, TimeSeries(y, steps_per_year)))
            oracle_value = oracles.longdouble_log_mvn(jittered_gram(spec, theta, x), y)
            oracle_grad = oracles.longdouble_lml_gradient(spec, theta, x, y)
            assert abs(value - oracle_value) <= value_tol * max(1.0, abs(oracle_value))
            assert np.max(np.abs(grad - oracle_grad)) <= grad_tol * max(1.0, np.max(np.abs(oracle_grad)))

    @pytest.mark.parametrize("n", [132, 336])
    def test_log_marginal_matches_long_double_oracle_down_to_near_noiseless(self, n):
        # Levinson alone is 10-300x less accurate than the Cholesky factor
        # once min E_k / E_0 falls below about 1e-5 (1e-6 off at n=336,
        # s2_noise=1e-7); below LEVINSON_MIN_ERROR_RATIO the objective takes
        # the Cholesky path, whose worst error over this sweep is about 2e-9.
        # The oracle takes the very matrix factorized: near noiseless, the
        # pairwise oracle's rounding of x_i - x_j alone moves the value by
        # 1.8e-8 relative.
        spec = default_spec("double-seasonal")
        medians = median_hyperparams(spec, PRIORS)
        x = np.arange(n) / 1461.0
        y = np.random.default_rng(n).standard_normal(n)
        for s2_noise in np.logspace(-7, -1, 13):
            theta = oracles.replace(medians, s2_noise=float(s2_noise))
            oracle = oracles.longdouble_log_mvn(factorized_gram(spec, theta, x), y)
            value = log_marginal_likelihood_and_grad(theta.values, prepare_series(spec, TimeSeries(y, 1461.0)))[0]
            assert abs(value - oracle) <= 1e-8 * max(1.0, abs(oracle)), s2_noise

    @pytest.mark.parametrize("lin", [True, False])
    @pytest.mark.parametrize("n", [132, 336])
    def test_inverse_diagonal_sums_match_long_double_inverse(self, n, lin):
        # K^-1's subdiagonal sums, which the gradient reads, from each path's
        # (g, p, beta), against the long-double inverse of the matrix that path
        # solves with.  The error grows as 1 / s2_noise.  The bounds are about
        # 2.5x the worst measured over this sweep, by the two-correlation sums
        # and the four-correlation ones alike: 4.4e-15 / s2_noise on the
        # Levinson path (near its bound), 3.4e-16 / s2_noise on the Cholesky path.
        full = default_spec("double-seasonal")
        spec = full if lin else KernelSpec(terms=tuple(t for t in full.terms if t.kind != "LIN"))
        medians = median_hyperparams(spec, PRIORS)
        series = prepare_series(spec, TimeSeries(np.random.default_rng(n).standard_normal(n), 1461.0))
        x = series.x
        on_levinson = 0
        for s2_noise in np.logspace(-7, -1, 4):
            theta = oracles.replace(medians, s2_noise=float(s2_noise))
            column = lag_column(spec, theta.values, grad_gram(spec, theta.values, series.diffs))
            v = math.sqrt(theta.s2_lin) * x if lin else np.zeros(n)
            levinson = gp._levinson_solve(column, v, series.y, theta.s2_noise)
            if levinson is not None:  # T with diagonal column[0] + jitter, plus v v^T
                on_levinson += 1
                t = np.asarray(column, dtype=np.longdouble)
                t[0] = float(column[0]) + levinson[2]
                matrix = toeplitz(t)
                if lin:
                    exact_v = np.asarray(v, dtype=np.longdouble)
                    matrix += np.outer(exact_v, exact_v)
                self._check_inverse_sums(levinson, matrix, series, 1e-14 / s2_noise)
            cholesky_path = gp._cholesky_grid_solve(column, v, series.y)
            gram = build_gram(column, v)  # as factorized: its diagonal plus the jitter
            np.fill_diagonal(gram, np.diag(gram) + cholesky_path[2])
            self._check_inverse_sums(cholesky_path, gram, series, 1e-15 / s2_noise)
        assert on_levinson >= 1

    @staticmethod
    def _check_inverse_sums(solved, matrix, series, tol):
        g, p, beta = solved[3:]
        sums = gp._toeplitz_plus_rank1_inverse_sums(g, p, beta, series.index, series.lengths)
        oracle = oracles.longdouble_inverse_diagonal_sums(matrix)
        assert float(np.max(np.abs(sums - oracle)) / np.max(np.abs(oracle))) <= tol

    @pytest.mark.parametrize(("mode", "steps_per_year"), GRIDS)
    def test_levinson_path_matches_the_cholesky_fallback(self, mode, steps_per_year, monkeypatch):
        # at prior draws above the conditioning bound the two paths solve one
        # matrix; measured worst differences 1.7e-13 (value), 4.9e-13 (gradient)
        spec = default_spec(mode)
        rng = np.random.default_rng(int(steps_per_year) + 2)
        real_cholesky = gp.cholesky
        factorized = []

        def counting(*args, **kwargs):
            factorized.append(None)
            return real_cholesky(*args, **kwargs)

        monkeypatch.setattr(gp, "cholesky", counting)
        compared = 0
        for _ in range(20):
            n = int(rng.integers(8, 201))
            ts = TimeSeries(rng.standard_normal(n), steps_per_year)
            theta = oracles.random_hyperparams(spec, PRIORS, rng)
            factorized.clear()
            value, grad = log_marginal_likelihood_and_grad(theta.values, prepare_series(spec, ts))
            if factorized:  # below the bound: this draw took the Cholesky path already
                continue
            with monkeypatch.context() as forced:
                forced.setattr(gp, "LEVINSON_MIN_ERROR_RATIO", 2.0)  # every E_k / E_0 is <= 1
                value_chol, grad_chol = log_marginal_likelihood_and_grad(theta.values, prepare_series(spec, ts))
            assert factorized
            compared += 1
            assert abs(value - value_chol) <= 1e-10 * max(1.0, abs(value_chol))
            assert np.max(np.abs(grad - grad_chol)) <= 1e-10 * max(1.0, np.max(np.abs(grad_chol)))
        assert compared >= 15

    def test_overflowing_gram_diagonal_is_ill_conditioned(self):
        # at s2_lin = 1e306 every entry of the monthly Gram is finite, but the
        # sum behind its mean diagonal overflows
        theta = oracles.replace(MEDIANS, s2_lin=1e306)
        ts = TimeSeries(np.random.default_rng(132).standard_normal(132), 12.0)
        with pytest.raises(IllConditionedModelError):
            map_objective(FULL_SPEC, PRIORS, theta, ts)

    @pytest.mark.parametrize("n", [60, 132])
    def test_objective_without_lin_matches_dense_oracle(self, n, monkeypatch):
        # without LIN, v = 0 on the Levinson path
        full = default_spec("single-seasonal")
        spec = KernelSpec(terms=tuple(t for t in full.terms if t.kind != "LIN"))
        rng = np.random.default_rng(n)
        series = prepare_series(spec, TimeSeries(rng.standard_normal(n), 12.0))
        x, y = series.x, series.y

        def refuse(*args, **kwargs):
            raise AssertionError("the evaluation left the Levinson path")

        for _ in range(3):
            # s2_noise well above the conditioning bound keeps Levinson's path
            theta = oracles.replace(oracles.random_hyperparams(spec, PRIORS, rng), s2_noise=0.05)
            with monkeypatch.context() as patched:
                patched.setattr(gp, "cholesky", refuse)
                value, grad = log_marginal_likelihood_and_grad(theta.values, series)
            assert abs(value - oracles.dense_log_mvn(dense_jittered_gram(spec, theta, x), y)) <= 1e-8

            def lml(u_vec, spec=spec, series=series):
                return log_marginal_likelihood_and_grad(HyperParams.from_log(spec, u_vec).values, series)[0]

            fd = oracles.central_difference(lml, np.log(theta.values), h=1e-5)
            assert float(np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd)))) <= 1e-5

    def test_leading_levinson_block_gives_the_full_runs_leading_error_ratios_bit_for_bit(self):
        # a near-noiseless evaluation first runs Levinson on T's leading
        # 64 lags; its E_k / E_0 are the full run's leading ones, bit for bit,
        # so a block that fails the conditioning bound means the full run does
        spec = default_spec("double-seasonal")
        rng = np.random.default_rng(64)
        block = gp._LEVINSON_BLOCK
        outcomes = {"both pass": 0, "both fail": 0, "block passes, full fails": 0}
        for _ in range(300):
            n = int(rng.integers(block + 1, 400))
            theta = oracles.random_hyperparams(spec, PRIORS, rng)
            theta = oracles.replace(theta, s2_noise=float(10 ** rng.uniform(-9, -1)))
            lags = np.arange(n) / 1461.0
            values = theta.values
            column = lag_column(spec, values, grad_gram(spec, values, gp.Differences.of(spec, lags)))
            t0 = float(column[0]) * (1.0 + JITTER_START)
            _, phi = gp.levinson(np.concatenate((column[n - 2 : 0 : -1], [t0], column[1 : n - 1])), column[1:])
            _, phi_block = gp.levinson(
                np.concatenate((column[block - 2 : 0 : -1], [t0], column[1 : block - 1])), column[1:block]
            )
            assert np.array_equal(phi_block, phi[:block])
            full, leading = gp._levinson(column, t0), gp._levinson(column[:block], t0)
            if leading is None:
                assert full is None
                outcomes["both fail"] += 1
            elif full is None:
                outcomes["block passes, full fails"] += 1
            else:
                assert np.array_equal(leading[1], full[1][: leading[1].size])
                outcomes["both pass"] += 1
        assert min(outcomes.values()) > 0, outcomes

    def test_leading_levinson_block_leaves_every_result_as_it_was(self, monkeypatch):
        # with and without the leading-block check, each evaluation takes the
        # same path and gives the same bits, down to near noiseless
        spec = default_spec("double-seasonal")
        medians = median_hyperparams(spec, PRIORS)
        series = prepare_series(spec, TimeSeries(np.random.default_rng(224).standard_normal(224), 1461.0))
        thetas = [oracles.replace(medians, s2_noise=float(s2)) for s2 in np.logspace(-9, -1, 17)]
        checked = [log_marginal_likelihood_and_grad(theta.values, series) for theta in thetas]
        monkeypatch.setattr(gp, "_LEVINSON_BLOCK", 10**9)
        for theta, (value, grad) in zip(thetas, checked):
            unchecked_value, unchecked_grad = log_marginal_likelihood_and_grad(theta.values, series)
            assert value == unchecked_value and np.array_equal(grad, unchecked_grad)

    def test_scipy_private_levinson_keeps_its_yule_walker_convention(self):
        # gp imports levinson from scipy.linalg._solve_toeplitz, a private
        # module: on the Yule-Walker system T_{n-1} ar = c[1:], given as
        # (c[n-2], ..., c[1], c[0], ..., c[n-2]), its reflection coefficients
        # after the first must give the squared Cholesky diagonal of T_n
        # through c0 prod (1 - phi_j^2), and (1, -ar) / E_{n-1} = T^-1 e_0.
        from scipy.linalg._solve_toeplitz import levinson

        assert gp.levinson is levinson
        n = 9
        c = 0.9 ** np.arange(n) * np.cos(np.arange(n) / 2.0)
        c[0] += 0.2
        t = toeplitz(c)
        m = n - 1
        ar, phi = levinson(np.concatenate((c[m - 1 : 0 : -1], c[:m])), c[1:])
        errors = c[0] * np.cumprod(np.concatenate(([1.0], 1.0 - phi[1:] ** 2)))
        np.testing.assert_allclose(errors, np.diag(cholesky(t, lower=True)) ** 2, rtol=1e-12, atol=0)
        g = np.concatenate(([1.0], -ar)) / errors[-1]
        np.testing.assert_allclose(t @ g, np.eye(n)[0], rtol=0, atol=1e-12)

    def test_objective_factorizes_only_below_the_conditioning_bound(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cholesky called")

        spec = default_spec("double-seasonal")
        theta = median_hyperparams(spec, PRIORS)
        ts = TimeSeries(np.random.default_rng(48).standard_normal(48), 1461.0)
        # the objective factorizes nothing above the conditioning bound
        monkeypatch.setattr(gp, "cholesky", refuse)
        map_objective(spec, PRIORS, theta, ts)
        # near noiseless, min E_k / E_0 falls below it: the Cholesky path
        with pytest.raises(AssertionError, match="cholesky called"):
            map_objective(spec, PRIORS, oracles.replace(theta, s2_noise=5e-8), ts)

    def test_fallback_lays_the_gram_out_from_the_evaluated_column(self, monkeypatch):
        # below the conditioning bound the evaluation factorizes the Toeplitz
        # layout of the column it already holds: one pass over the terms and
        # one three-column solve, also when a jitter level fails
        spec = default_spec("double-seasonal")
        theta = oracles.replace(median_hyperparams(spec, PRIORS), s2_noise=5e-8)
        ts = TimeSeries(np.random.default_rng(224).standard_normal(224), 1461.0)
        calls = {"grad_gram": 0, "cho_solve": 0, "cholesky": 0, "build_gram": 0}

        def counting(module, name, fail_first=False):
            real = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                if fail_first and calls[name] == 1:
                    raise gp.LinAlgError("rigged")
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        for name in ("grad_gram", "cho_solve", "build_gram"):
            counting(gp, name)
        counting(gp, "cholesky", fail_first=True)
        value, grad = map_objective(spec, PRIORS, theta, ts)
        # each Cholesky try lays out the column of grad_gram's one pass
        assert calls == {"grad_gram": 1, "cho_solve": 1, "cholesky": 2, "build_gram": 2}
        assert np.isfinite(value) and np.all(np.isfinite(grad))

    @pytest.mark.parametrize(
        ("mode", "steps_per_year", "n"),
        [("double-seasonal", 1461.0, 336), ("single-seasonal", 12.0, 132), ("double-seasonal", 1461.0, 1461)],
    )
    def test_objective_evaluation_holds_no_n_by_n_array(self, mode, steps_per_year, n):
        # on the Levinson path an evaluation holds O(n) floats, about 40 n at these sizes
        spec = default_spec(mode)
        theta = median_hyperparams(spec, PRIORS)
        ts = TimeSeries(np.random.default_rng(n).standard_normal(n), steps_per_year)
        map_objective(spec, PRIORS, theta, ts)  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            map_objective(spec, PRIORS, theta, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 8 * n


class TestFitState:
    def test_factor_solves_back_to_y(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(10)
        state = fit(MEDIANS, prepare_series(FULL_SPEC, TimeSeries(y, rng.uniform(0.5, 12.0))))
        lower = state.chol_lower
        assert np.array_equal(lower, np.tril(lower))
        assert np.all(np.diag(lower) > 0)
        reconstructed = lower @ (lower.T @ state.alpha)
        np.testing.assert_allclose(reconstructed, y, rtol=1e-8, atol=1e-10)

    def test_factor_upper_triangle_is_zero(self):
        # chol_lower is a true lower-triangular matrix, not LAPACK's factor over the Gram's upper triangle
        y = np.random.default_rng(4).standard_normal(30)
        state = fit(MEDIANS, prepare_series(FULL_SPEC, TimeSeries(y, 12.0)))
        assert not np.any(np.triu(state.chol_lower, 1))

    def test_fit_is_idempotent(self):
        ts = TimeSeries(np.sin(np.arange(5.0) / 4.0), 4.0)
        a = fit(MEDIANS, prepare_series(FULL_SPEC, ts))
        b = fit(MEDIANS, prepare_series(FULL_SPEC, ts))
        np.testing.assert_array_equal(a.chol_lower, b.chol_lower)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_jitter_gives_up_on_an_indefinite_gram(self, monkeypatch):
        # no jitter up to JITTER_MAX makes [[1, 2], [2, 1]] (eigenvalues 3 and -1)
        # positive definite; each level factorizes a fresh layout
        builds = []

        def counting(*args, **kwargs):
            builds.append(None)
            return build_gram(*args, **kwargs)

        monkeypatch.setattr(gp, "build_gram", counting)
        with pytest.raises(IllConditionedModelError, match="not positive definite"):
            gp._cholesky_solve(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2))
        assert len(builds) == round(math.log10(gp.JITTER_MAX / JITTER_START)) + 1 == 7

    @pytest.mark.parametrize(
        ("mode", "steps_per_year", "n"), [("double-seasonal", 1461.0, 224), ("single-seasonal", 12.0, 132)]
    )
    def test_fit_factors_as_the_objectives_fallback(self, mode, steps_per_year, n, monkeypatch):
        # near noiseless the objective falls back to the Cholesky routine; at the
        # same theta fit's factor and jitter are, bit for bit, the ones it made
        spec = default_spec(mode)
        theta = oracles.replace(median_hyperparams(spec, PRIORS), s2_noise=5e-8)
        series = prepare_series(spec, TimeSeries(np.random.default_rng(n).standard_normal(n), steps_per_year))
        made = []

        def recording(*args):
            lower, jitter, solved = real(*args)
            made.append((lower, jitter))
            return lower, jitter, solved

        real = gp._cholesky_solve
        with monkeypatch.context() as patched:
            patched.setattr(gp, "_cholesky_solve", recording)
            log_marginal_likelihood_and_grad(theta.values, series)
        assert len(made) == 1
        state = fit(theta, series, 18)
        np.testing.assert_array_equal(state.chol_lower, made[0][0])
        assert state.jitter == made[0][1]

    def test_base_jitter_scale(self):
        state = fit(HyperParams.of(WN_SPEC, s2_noise=2.0), prepare_series(WN_SPEC, TimeSeries(np.zeros(4), 1.0)))
        assert state.jitter == pytest.approx(JITTER_START * 2.0)


class TestPredict:
    def test_far_extrapolation_reverts_to_prior(self):
        # the grid continued until 12 lengthscales past the last training point
        spec = KernelSpec(terms=(Term("RBF"),))
        theta = HyperParams.of(spec, s2_rbf=1.7, ell_rbf=0.8)
        rng = np.random.default_rng(11)
        steps_per_year = 7.0 / 3.0
        h = math.ceil(12.0 * theta.ell_rbf * steps_per_year)
        grid = np.arange(8 + h) / steps_per_year
        x, x_star = grid[:8], grid[8:]
        assert x_star[-1] - x[-1] >= 12.0 * theta.ell_rbf
        posterior = predict(fit(theta, prepare_series(spec, TimeSeries(rng.standard_normal(8), steps_per_year)), h))
        assert abs(posterior.mean[-1]) <= 1e-6
        assert abs(posterior.latent_variance[-1] - 1.7) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_inverse_oracle(self, seed):
        rng = np.random.default_rng(seed)
        steps_per_year = rng.uniform(0.5, 12.0)
        grid = np.arange(6) / steps_per_year
        x, x_star = grid[:4], grid[4:]
        y = rng.standard_normal(4)
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        state = fit(theta, prepare_series(FULL_SPEC, TimeSeries(y, steps_per_year)), x_star.size)
        posterior = predict(state)
        mean, latent = oracles.dense_posterior(
            jittered_gram(FULL_SPEC, theta, x),
            oracles.dense_cross(FULL_SPEC, theta, x_star, x),
            np.diag(oracles.dense_cross(FULL_SPEC, theta, x_star, x_star)),
            y,
        )
        np.testing.assert_allclose(posterior.mean, mean, atol=1e-8)
        np.testing.assert_allclose(posterior.latent_variance, latent, atol=1e-8)
        np.testing.assert_allclose(
            posterior.observation_variance, latent + theta.s2_noise, atol=1e-8
        )

    def test_empty_test_set(self):
        state = fit(MEDIANS, prepare_series(FULL_SPEC, TimeSeries(np.array([0.3, -0.1]), 1.0)), 0)
        posterior = predict(state)
        assert posterior.mean.size == 0
        assert posterior.latent_variance.size == 0
        assert posterior.observation_variance.size == 0

    def test_latent_variance_never_negative(self):
        spec = KernelSpec(terms=(Term("RBF"), Term("WN")))
        theta = HyperParams.of(spec, s2_rbf=1.0, ell_rbf=5.0, s2_noise=1e-8)
        # almost coincident points: 180 steps per unit, so 19 span 0.1
        state = fit(theta, prepare_series(spec, TimeSeries(np.zeros(12), 180.0)), 7)
        posterior = predict(state)
        assert np.all(posterior.latent_variance >= 0.0)
        assert np.all(posterior.observation_variance >= theta.s2_noise)


class TestGridFinalStep:
    """fit's one pass over the n + h lags: the test points continue the training grid."""

    # (mode, steps per year, n, h): h <= n, and horizons far longer than the series
    CASES = [
        ("single-seasonal", 12.0, 40, 18),
        ("single-seasonal", 12.0, 24, 600),
        ("double-seasonal", 1461.0, 56, 42),
        ("double-seasonal", 1461.0, 16, 400),
    ]

    @staticmethod
    def case(mode, steps_per_year, n, h, seed=0):
        spec = default_spec(mode)
        rng = np.random.default_rng([n, h, seed])
        theta = oracles.replace(oracles.random_hyperparams(spec, PRIORS, rng), s2_noise=0.05)
        x = np.arange(n) / steps_per_year
        x_star = np.arange(n, n + h) / steps_per_year
        return spec, theta, x, x_star, prepare_series(spec, TimeSeries(rng.standard_normal(n), steps_per_year))

    @pytest.mark.parametrize(("mode", "steps_per_year", "n", "h"), CASES)
    def test_posterior_matches_dense_oracle(self, mode, steps_per_year, n, h):
        for seed in range(3):
            spec, theta, x, x_star, series = self.case(mode, steps_per_year, n, h, seed)
            posterior = predict(fit(theta, series, x_star.size))
            cov = dense_jittered_gram(spec, theta, x)
            cross = np.array([[oracles.composition_value(spec, theta, a, b, False) for b in x] for a in x_star])
            prior = np.array([oracles.composition_value(spec, theta, a, a, False) for a in x_star])
            mean, latent = oracles.dense_posterior(cov, cross, prior, series.y)
            np.testing.assert_allclose(posterior.mean, mean, rtol=0, atol=1e-8)
            np.testing.assert_allclose(posterior.latent_variance, latent, rtol=0, atol=1e-8)
            np.testing.assert_array_equal(posterior.observation_variance, posterior.latent_variance + theta.s2_noise)

    @pytest.mark.parametrize(("mode", "steps_per_year", "n", "h"), CASES)
    def test_cross_covariance_equals_dense_cross_to_rounding(self, mode, steps_per_year, n, h):
        # lags (n + j - i) / steps_per_year round differently from x*_j - x_i
        spec, theta, x, x_star, series = self.case(mode, steps_per_year, n, h)
        expected = oracles.dense_cross(spec, theta, x_star, x)
        cross = fit(theta, series, x_star.size).cross
        assert float(np.max(np.abs(cross - expected))) <= 1e-13 * float(np.max(np.abs(expected)))

    @pytest.mark.parametrize(("mode", "steps_per_year", "n", "h"), CASES)
    def test_gram_and_prior_variance_keep_their_bits(self, mode, steps_per_year, n, h):
        spec, theta, x, x_star, series = self.case(mode, steps_per_year, n, h)
        grid, plain = fit(theta, series, x_star.size), fit(theta, series)  # plain: no test points
        np.testing.assert_array_equal(grid.chol_lower, plain.chol_lower)
        np.testing.assert_array_equal(grid.alpha, plain.alpha)
        assert grid.jitter == plain.jitter
        # the summed variances have the bits of a second pass over the terms at a zero difference
        np.testing.assert_array_equal(grid.prior_variance, oracles.two_pass_prior_variance(spec, theta, x_star))

    def test_one_pass_over_the_continued_lags(self, monkeypatch):
        calls = []

        def recording(name, real):
            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                calls.append((name, out.shape))
                return out

            return call

        # fit's own calls go through gp's names, a call made inside a kernels function through kernels'
        real = {name: getattr(kernels, name) for name in ("grad_gram", "lag_column")}
        for module in (gp, kernels):
            for name, function in real.items():
                monkeypatch.setattr(module, name, recording(name, function))
        spec, theta, x, x_star, series = self.case("single-seasonal", 12.0, 40, 18)
        fit(theta, series, x_star.size)
        # one pass and one sum over the 40 + 18 lags: zero_lag_variance makes neither
        assert calls == [("grad_gram", (11, 58)), ("lag_column", (58,))]


class TestLongHorizons:
    """Horizons far longer than the series, on the one prediction path."""

    @pytest.mark.parametrize("h", [400, 1500])
    @pytest.mark.parametrize("n", [8, 24])
    @pytest.mark.parametrize(("mode", "steps_per_year"), [("single-seasonal", 12.0), ("double-seasonal", 1461.0)])
    def test_trained_forecast_stays_finite_and_below_the_prior(self, mode, steps_per_year, n, h):
        spec = default_spec(mode)
        rng = np.random.default_rng([n, h])
        y = oracles.standardize(np.sin(2.0 * np.pi * np.arange(n) / 4.0) + 0.3 * rng.standard_normal(n))
        result = train(spec, PRIORS, TimeSeries(y, steps_per_year))
        assert result.converged
        x_star = np.arange(n, n + h) / steps_per_year
        posterior = predict(fit(result.theta, result.series, h))
        assert np.all(np.isfinite(posterior.mean))
        assert np.all(posterior.observation_variance > 0.0)
        assert np.all(posterior.latent_variance <= kernels.zero_lag_variance(spec, result.theta.values, x_star))
