import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from gpforecast import (
    HyperParams,
    InvalidHyperparameterError,
    KernelSpec,
    PriorSpec,
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
from gpforecast import gp, kernels, training
from gpforecast.gp import JITTER_START, prepare_series

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
        theta = HyperParams.of(WN_SPEC, s2_noise=s2)
        x, y = np.array([0.0]), np.array([0.0])
        value, _ = map_objective(WN_SPEC, PRIORS, theta, x, y)
        from scipy.stats import norm

        gauss = float(norm.logpdf(0.0, scale=math.sqrt(s2 * (1.0 + JITTER_START))))
        expected = gauss + oracles.lognormal_logpdf(s2, -1.5, 1.0)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_sine_series_component_sum_oracle(self):
        x, y = sine_series(24)
        theta = median_hyperparams(FULL_SPEC, PRIORS)
        state = fit(theta, prepare_series(FULL_SPEC, x, y))
        from gpforecast import build_gram

        cov = build_gram(FULL_SPEC, theta, x) + state.jitter * np.eye(24)
        expected = oracles.dense_log_mvn(cov, y) + sum(
            oracles.lognormal_logpdf(getattr(theta, name), PRIORS[name].nu, PRIORS[name].lam)
            for name in FULL_SPEC.trainable_names()
        )
        assert map_objective(FULL_SPEC, PRIORS, theta, x, y)[0] == pytest.approx(expected, abs=1e-8)

    def test_objective_grad_composes_likelihood_and_prior(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0.0, 4.0, size=8))
        y = rng.standard_normal(8)
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        u = np.log(theta.values)

        def f(u_vec):
            return map_objective(FULL_SPEC, PRIORS, HyperParams.from_log(FULL_SPEC, u_vec), x, y)[0]

        fd = oracles.central_difference(f, u, h=1e-5)
        _, analytic = map_objective(FULL_SPEC, PRIORS, theta, x, y)
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        assert float(rel.max()) <= 1e-5

    @pytest.mark.parametrize(("mode", "steps_per_year"), [("single-seasonal", 12.0), ("double-seasonal", 1461.0)])
    def test_prepared_series_gives_exactly_the_public_objective(self, monkeypatch, mode, steps_per_year):
        # train prepares the series once and evaluates the optimizer's u; every
        # evaluation must give the bits map_objective gives from the arrays
        spec = default_spec(mode)
        rng = np.random.default_rng(int(steps_per_year))
        points = []
        for n in (8, 48, 132, 224, 336):
            x = 3.5 + np.arange(n) / steps_per_year
            y = rng.standard_normal(n)
            perm = rng.permutation(n)
            theta = oracles.random_hyperparams(spec, PRIORS, rng)
            points += [(theta, x, y), (theta, x[perm], y[perm])]
        # near noiseless, the grid evaluation falls back to the Cholesky path
        x = np.arange(224) / steps_per_year
        points.append((median_hyperparams(spec, PRIORS).replace(s2_noise=5e-8), x, rng.standard_normal(224)))
        for theta, x, y in points:
            u = np.log(theta.values)
            [(value, grad)] = train_evaluations(monkeypatch, spec, x, y, [u])
            public_value, public_grad = map_objective(spec, PRIORS, HyperParams.from_log(spec, u), x, y)
            assert -value == public_value
            assert np.array_equal(-grad, public_grad)

    def test_every_train_evaluation_equals_the_public_objective(self, monkeypatch):
        evaluated = record_evaluations(monkeypatch)
        x, y = sine_series(48)
        y = y + 0.3 * np.random.default_rng(48).standard_normal(48)
        train(FULL_SPEC, PRIORS, x, y)
        assert len(evaluated) > 1
        for u, (value, grad) in evaluated:
            public_value, public_grad = map_objective(FULL_SPEC, PRIORS, HyperParams.from_log(FULL_SPEC, u), x, y)
            assert -value == public_value and np.array_equal(-grad, public_grad)

    def test_prepared_series_is_checked_against_its_spec(self):
        # train hands its prepared series on; fit checks theta against its spec
        x, y = sine_series(24)
        result = train(FULL_SPEC, PRIORS, x, y, TrainConfig(max_iters=2))
        series = result.series
        assert series.spec == FULL_SPEC and np.array_equal(series.x, x) and np.array_equal(series.y, y)
        other = default_spec("double-seasonal")
        with pytest.raises(InvalidHyperparameterError, match="spec trains"):
            fit(median_hyperparams(other, PRIORS), series)

    def test_evaluations_make_no_hyperparams_and_one_pass_over_the_terms(self, monkeypatch):
        # the optimizer's u goes straight to the objective: a HyperParams is
        # made for the final theta only, and each evaluation evaluates each
        # stationary term once (LIN's value is summed without term_parts)
        made, parts = [], []
        real_init, real_parts = HyperParams.__init__, kernels.term_parts

        def counting_init(self, *args, **kwargs):
            made.append(None)
            real_init(self, *args, **kwargs)

        def counting_parts(*args, **kwargs):
            parts.append(None)
            return real_parts(*args, **kwargs)

        x, y = sine_series(48)
        y = y + 0.3 * np.random.default_rng(48).standard_normal(48)
        evaluated = record_evaluations(monkeypatch)
        monkeypatch.setattr(HyperParams, "__init__", counting_init)
        monkeypatch.setattr(kernels, "term_parts", counting_parts)
        result = train(FULL_SPEC, PRIORS, x, y)
        assert len(made) == 1 and result.nfev == len(evaluated) > 1 and result.penalty_evals == 0
        assert len(parts) == result.nfev * sum(t.kind != "LIN" for t in FULL_SPEC.terms)


def record_evaluations(monkeypatch):
    """(u, (value, gradient)) of each objective call train hands L-BFGS-B, filled as train runs."""
    real_minimize = training.minimize
    evaluated = []

    def recording_minimize(fun, u0, **kwargs):
        def recorded(u):
            out = fun(u)
            evaluated.append((u.copy(), out))
            return out

        return real_minimize(recorded, u0, **kwargs)

    monkeypatch.setattr(training, "minimize", recording_minimize)
    return evaluated


def train_evaluations(monkeypatch, spec, x, y, us):
    """train's objective (value, gradient), as handed to L-BFGS-B, at each of ``us``."""
    returned = []

    def trials(fun, u0, **kwargs):
        returned.extend(fun(np.array(u)) for u in us)
        return SimpleNamespace(nit=0, nfev=len(us), status=0, message="trials")

    monkeypatch.setattr(training, "minimize", trials)
    train(spec, PRIORS, x, y)
    return returned


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
        assert a.penalty_evals == 0

    def test_grid_is_detected_once_per_train(self, monkeypatch):
        calls = []
        real = kernels.regular_lags

        def counting(x):
            calls.append(None)
            return real(x)

        monkeypatch.setattr(gp, "regular_lags", counting)
        monkeypatch.setattr(kernels, "regular_lags", counting)
        x, y = sine_series(60)
        result = train(FULL_SPEC, PRIORS, x, y)
        assert result.nfev > 1 and len(calls) == 1

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

    def test_returns_the_best_evaluated_point_not_the_optimizers_x(self, monkeypatch):
        # L-BFGS-B's result.x can be worse than a point it evaluated (an ABNORMAL
        # stop) or tie with one elsewhere, so train keeps its own best evaluation
        x, y = sine_series(36)
        nu = PRIORS.columns(FULL_SPEC)[0]
        rng = np.random.default_rng(4)
        candidates = [nu + rng.normal(0.0, 0.3, size=nu.size) for _ in range(5)]
        values = [value for value, _ in train_evaluations(monkeypatch, FULL_SPEC, x, y, candidates)]
        ranked = [candidates[k] for k in np.argsort(values)]  # best first
        # (status, points) of each restart: the first, which converges, holds the best
        # point between two others, and neither restart returns its best point as x
        restarts = iter([(0, [ranked[2], ranked[0], ranked[4]]), (1, [ranked[1], ranked[3]])])

        def stub(fun, u0, **kwargs):
            status, points = next(restarts)
            evaluated = [fun(np.array(u))[0] for u in points]
            worst = int(np.argmax(evaluated))
            return SimpleNamespace(
                x=points[worst], fun=evaluated[worst], nit=1, nfev=len(points), status=status, message=f"stop {status}"
            )

        monkeypatch.setattr(training, "minimize", stub)
        result = train(FULL_SPEC, PRIORS, x, y, TrainConfig(restarts=2, seed=3))
        assert result.theta == HyperParams.from_log(FULL_SPEC, ranked[0])
        assert result.objective == -min(values)
        assert result.converged and result.termination == "stop 0"
        assert result.nfev == 5

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
        calls = record_evaluations(monkeypatch)
        result = train(FULL_SPEC, PRIORS, x, y, TrainConfig(restarts=restarts, seed=5))
        assert result.nfev == len(calls) >= result.iterations > 0

    def test_overflowing_trial_point_is_a_penalty(self, monkeypatch):
        # exp(800) overflows to inf, which the hyperparameter check rejects
        x, y = sine_series(24)
        returned = []

        def one_trial(fun, u0, **kwargs):
            returned.append(fun(np.full(u0.size, 800.0)))
            return SimpleNamespace(nit=0, nfev=1, status=0, message="one trial")

        monkeypatch.setattr(training, "minimize", one_trial)
        with pytest.warns(UserWarning, match="returning prior medians"):
            result = train(FULL_SPEC, PRIORS, x, y)
        [(value, grad)] = returned
        assert value == training._PENALTY and not grad.any()
        assert result.theta == median_hyperparams(FULL_SPEC, PRIORS)
        assert result.objective == float("-inf") and not result.converged
        assert result.penalty_evals == 1

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            train(FULL_SPEC, PRIORS, np.arange(3.0), np.zeros(3))

    def test_model_without_noise_term_rejected(self):
        spec = KernelSpec(terms=(Term("RBF"),))
        with pytest.raises(ValueError, match="WN"):
            train(spec, PRIORS, np.arange(8.0), np.zeros(8))

    def test_trainable_without_a_prior_rejected(self):
        partial = PriorSpec(entries={name: p for name, p in PRIORS.entries.items() if name != "tau_sm2"})
        x, y = sine_series(24)
        with pytest.raises(KeyError, match="tau_sm2"):
            train(FULL_SPEC, partial, x, y)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"max_iters": 0}, "max_iters"),
            ({"max_iters": math.nan}, "max_iters"),
            ({"grad_tol": 0.0}, "tolerances"),
            ({"grad_tol": math.nan}, "tolerances"),
            ({"grad_tol": math.inf}, "tolerances"),
            ({"objective_tol": -1.0}, "tolerances"),
            ({"objective_tol": math.nan}, "tolerances"),
            ({"objective_tol": math.inf}, "tolerances"),
            ({"restarts": 0}, "restarts"),
            ({"restarts": math.nan}, "restarts"),
            ({"restarts": 2, "seed": -1}, "seed"),
        ],
    )
    def test_config_validation(self, bad, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**bad)

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
