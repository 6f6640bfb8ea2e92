import math

import numpy as np
import pytest

import oracles
from gpforecast import (
    HyperParams,
    KernelSpec,
    Term,
    TrainConfig,
    default_priors,
    default_spec,
    fit,
    log_prior,
    map_objective,
    median_hyperparams,
    train,
)
from gpforecast import training
from gpforecast.gp import JITTER_START

FULL_SPEC = default_spec("single-seasonal")
PRIORS = default_priors()
WN_SPEC = KernelSpec(terms=(Term("WN"),))


def sine_series(n=24):
    x = np.arange(n) / 12.0
    y = np.sin(2.0 * np.pi * x)
    return x, (y - y.mean()) / y.std()


class TestMapObjective:
    def test_single_point_noise_model_is_sum_of_audited_parts(self):
        s2 = 0.8
        theta = HyperParams(s2_noise=s2)
        x, y = np.array([0.0]), np.array([0.0])
        value, _ = map_objective(WN_SPEC, PRIORS, theta, x, y)
        from scipy.stats import norm

        gauss = float(norm.logpdf(0.0, scale=math.sqrt(s2 * (1.0 + JITTER_START))))
        expected = gauss + oracles.lognormal_logpdf(s2, -1.5, 1.0)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_sine_series_component_sum_oracle(self):
        x, y = sine_series(24)
        theta = median_hyperparams(FULL_SPEC, PRIORS)
        state = fit(FULL_SPEC, theta, x, y)
        from gpforecast import build_gram

        cov = build_gram(FULL_SPEC, theta, x) + state.jitter * np.eye(24)
        expected = oracles.dense_log_mvn(cov, y) + sum(
            oracles.lognormal_logpdf(theta.get(name), PRIORS[name].nu, PRIORS[name].lam)
            for name in FULL_SPEC.trainable_names()
        )
        assert map_objective(FULL_SPEC, PRIORS, theta, x, y)[0] == pytest.approx(expected, abs=1e-8)

    def test_objective_grad_composes_likelihood_and_prior(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0.0, 4.0, size=8))
        y = rng.standard_normal(8)
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        u = theta.to_log_vector(FULL_SPEC)

        def f(u_vec):
            return map_objective(FULL_SPEC, PRIORS, theta.with_log_vector(FULL_SPEC, u_vec), x, y)[0]

        fd = oracles.central_difference(f, u, h=1e-5)
        _, analytic = map_objective(FULL_SPEC, PRIORS, theta, x, y)
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        assert float(rel.max()) <= 1e-5


class TestTrain:
    def test_objective_never_below_start(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            x = np.arange(36) / 12.0
            y = oracles.standardize(np.cumsum(rng.standard_normal(36)))
            result = train(FULL_SPEC, PRIORS, x, y)
            start, _ = map_objective(FULL_SPEC, PRIORS, median_hyperparams(FULL_SPEC, PRIORS), x, y)
            assert result.objective >= start - 1e-12

    def test_deterministic_for_single_restart(self):
        rng = np.random.default_rng(17)
        x = np.arange(40) / 12.0
        y = oracles.standardize(np.sin(2 * np.pi * x) + 0.2 * rng.standard_normal(40))
        a = train(FULL_SPEC, PRIORS, x, y)
        b = train(FULL_SPEC, PRIORS, x, y)
        assert a.theta == b.theta
        assert a.objective == b.objective

    def test_iteration_budget_flags_but_still_returns(self):
        rng = np.random.default_rng(21)
        x = np.arange(48) / 12.0
        y = oracles.standardize(np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal(48))
        config = TrainConfig(max_iters=2)
        result = train(FULL_SPEC, PRIORS, x, y, config)
        assert not result.converged
        start, _ = map_objective(FULL_SPEC, PRIORS, median_hyperparams(FULL_SPEC, PRIORS), x, y)
        assert result.objective >= start - 1e-12

    def test_restarts_never_hurt_and_stay_deterministic(self):
        rng = np.random.default_rng(23)
        x = np.arange(36) / 12.0
        y = oracles.standardize(rng.standard_normal(36))
        single = train(FULL_SPEC, PRIORS, x, y, TrainConfig())
        multi_a = train(FULL_SPEC, PRIORS, x, y, TrainConfig(restarts=3, seed=5))
        multi_b = train(FULL_SPEC, PRIORS, x, y, TrainConfig(restarts=3, seed=5))
        assert multi_a.theta == multi_b.theta
        assert multi_a.objective >= single.objective - 1e-9

    def test_converged_is_the_status_of_the_restart_holding_the_best_point(self, monkeypatch):
        rng = np.random.default_rng(23)
        x = np.arange(36) / 12.0
        y = oracles.standardize(rng.standard_normal(36))
        config = TrainConfig(restarts=3, seed=5)
        real_minimize = training.minimize
        finals = []

        def recording(*args, **kwargs):
            result = real_minimize(*args, **kwargs)
            finals.append(result.fun)
            return result

        monkeypatch.setattr(training, "minimize", recording)
        reference = train(FULL_SPEC, PRIORS, x, y, config)
        best = int(np.argmin(finals))

        def rigged(best_succeeds):
            calls = iter(range(len(finals)))

            def minimize(*args, **kwargs):
                result = real_minimize(*args, **kwargs)
                restart = next(calls)
                result.status = 0 if (restart == best) == best_succeeds else 1
                result.message = f"restart {restart}"
                return result

            return minimize

        for best_succeeds in (False, True):
            monkeypatch.setattr(training, "minimize", rigged(best_succeeds))
            result = train(FULL_SPEC, PRIORS, x, y, config)
            assert result.theta == reference.theta
            assert result.converged is best_succeeds
            assert result.termination == f"restart {best}"

    def test_termination_is_the_optimizer_message(self):
        x, y = sine_series(48)
        stopped = train(FULL_SPEC, PRIORS, x, y, TrainConfig(max_iters=1))
        assert not stopped.converged
        assert "ITERATIONS REACHED LIMIT" in stopped.termination
        finished = train(FULL_SPEC, PRIORS, x, y)
        assert finished.converged
        assert finished.termination.startswith("CONVERGENCE")

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_nfev_counts_every_objective_evaluation(self, monkeypatch, restarts):
        rng = np.random.default_rng(23)
        x = np.arange(36) / 12.0
        y = oracles.standardize(rng.standard_normal(36))
        real_objective = training.map_objective
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real_objective(*args, **kwargs)

        monkeypatch.setattr(training, "map_objective", counting)
        result = train(FULL_SPEC, PRIORS, x, y, TrainConfig(restarts=restarts, seed=5))
        assert result.nfev == len(calls) >= result.iterations > 0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            train(FULL_SPEC, PRIORS, np.arange(3.0), np.zeros(3))

    def test_model_without_noise_term_rejected(self):
        spec = KernelSpec(terms=(Term("RBF"),))
        with pytest.raises(ValueError, match="WN"):
            train(spec, PRIORS, np.arange(8.0), np.zeros(8))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_iters=0)
        with pytest.raises(ValueError):
            TrainConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            TrainConfig(restarts=0)

    def test_linear_trend_makes_linear_term_dominant(self):
        # deterministic input, so a single run settles the claim
        x = np.arange(48) / 12.0
        y = oracles.standardize(x.copy())
        result = train(FULL_SPEC, PRIORS, x, y)
        variances = oracles.mean_signal_variances(FULL_SPEC, result.theta, x)
        lin = variances.pop("LIN")
        assert lin > max(variances.values())


class TestArdBehavior:
    def test_white_noise_absorbed_by_noise_term(self, ard_replicates):
        passes = 0
        for run in ard_replicates:
            theta = run["theta_white"]
            signal = [theta.s2_per, theta.s2_bias, theta.s2_lin, theta.s2_rbf, theta.s2_sm1, theta.s2_sm2]
            if 0.5 <= theta.s2_noise <= 1.5 and all(v < 0.2 for v in signal):
                passes += 1
        assert passes >= 18, f"only {passes}/20 white-noise replicates satisfied the ARD bounds"

    def test_seasonal_signal_raises_periodic_variance(self, ard_replicates):
        wins = sum(1 for run in ard_replicates if run["theta_sine"].s2_per > run["theta_white"].s2_per)
        assert wins >= 18, f"periodic variance rose in only {wins}/20 paired replicates"


class TestSpeed:
    def test_typical_series_trains_fast(self, speed_run):
        assert speed_run.seconds < 5.0, f"training took {speed_run.seconds:.2f}s (hard ceiling 5s)"
        # soft target: under a second on a commodity core
        print(f"train(n=115) took {speed_run.seconds:.3f}s, converged={speed_run.converged}")
