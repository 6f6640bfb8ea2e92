import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gpforecast import (
    HyperParams,
    InvalidHyperparameterError,
    IllConditionedModelError,
    KernelSpec,
    PriorSpec,
    Term,
    TimeSeries,
    default_priors,
    default_spec,
    fit,
    log_prior,
    map_objective,
    median_hyperparams,
    predict,
    train,
)
from gpforecast import gp, kernels, training
from gpforecast.forecasting import standardized_posterior
from gpforecast.gp import JITTER_START, prepare_series

FULL_SPEC = default_spec("single-seasonal")
PRIORS = default_priors()
WN_SPEC = KernelSpec(terms=(Term("WN"),))


def sine_series(n=24):
    x = np.arange(n) / 12.0
    y = np.sin(2.0 * np.pi * x)
    return x, (y - y.mean()) / y.std()


class TestMapObjective:
    def test_noise_model_is_sum_of_audited_parts(self):
        s2 = 0.8
        theta = HyperParams.of(WN_SPEC, s2_noise=s2)
        value, _ = map_objective(WN_SPEC, PRIORS, theta, TimeSeries(np.zeros(2), 4.0))
        from scipy.stats import norm

        gauss = 2.0 * float(norm.logpdf(0.0, scale=math.sqrt(s2 * (1.0 + JITTER_START))))
        expected = gauss + oracles.lognormal_logpdf(s2, -1.5, 1.0)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_sine_series_component_sum_oracle(self):
        x, y = sine_series(24)
        ts = TimeSeries(y, 12.0)
        theta = median_hyperparams(FULL_SPEC, PRIORS)
        state = fit(theta, prepare_series(FULL_SPEC, ts))
        cov = oracles.dense_gram(FULL_SPEC, theta, x) + state.jitter * np.eye(24)
        expected = oracles.dense_log_mvn(cov, y) + sum(
            oracles.lognormal_logpdf(getattr(theta, name), PRIORS[name].nu, PRIORS[name].lam)
            for name in FULL_SPEC.trainable_names()
        )
        assert map_objective(FULL_SPEC, PRIORS, theta, ts)[0] == pytest.approx(expected, abs=1e-8)

    def test_objective_grad_composes_likelihood_and_prior(self):
        rng = np.random.default_rng(2)
        ts = TimeSeries(rng.standard_normal(8), rng.uniform(0.5, 12.0))
        theta = oracles.random_hyperparams(FULL_SPEC, PRIORS, rng)
        u = np.log(theta.values)

        def f(u_vec):
            return map_objective(FULL_SPEC, PRIORS, HyperParams.from_log(FULL_SPEC, u_vec), ts)[0]

        fd = oracles.central_difference(f, u, h=1e-5)
        _, analytic = map_objective(FULL_SPEC, PRIORS, theta, ts)
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        assert float(rel.max()) <= 1e-5

    @pytest.mark.parametrize(("mode", "steps_per_year"), [("single-seasonal", 12.0), ("double-seasonal", 1461.0)])
    def test_prepared_series_gives_exactly_the_public_objective(self, mode, steps_per_year):
        # train prepares the series once and evaluates the optimizer's u; every
        # evaluation must give the bits map_objective gives from the series
        spec = default_spec(mode)
        rng = np.random.default_rng(int(steps_per_year))
        points = []
        for n in (8, 48, 132, 224, 336):
            ts = TimeSeries(rng.standard_normal(n), steps_per_year)
            points.append((oracles.random_hyperparams(spec, PRIORS, rng), ts))
        # near noiseless, the grid evaluation falls back to the Cholesky path
        ts = TimeSeries(rng.standard_normal(224), steps_per_year)
        points.append((oracles.replace(median_hyperparams(spec, PRIORS), s2_noise=5e-8), ts))
        for theta, ts in points:
            u = np.log(theta.values)
            [(value, grad)] = train_evaluations(spec, ts, [u])
            public_value, public_grad = map_objective(spec, PRIORS, HyperParams.from_log(spec, u), ts)
            assert -value == public_value
            assert np.array_equal(-grad, public_grad)

    def test_every_train_evaluation_equals_the_public_objective(self, monkeypatch):
        evaluated = record_evaluations(monkeypatch)
        _, y = sine_series(48)
        ts = TimeSeries(y + 0.3 * np.random.default_rng(48).standard_normal(48), 12.0)
        train(FULL_SPEC, PRIORS, ts)
        assert len(evaluated) > 1
        for u, (value, grad) in evaluated:
            public_value, public_grad = map_objective(FULL_SPEC, PRIORS, HyperParams.from_log(FULL_SPEC, u), ts)
            assert -value == public_value and np.array_equal(-grad, public_grad)

    @pytest.mark.parametrize("case", ["overflow", "nan", "ill-conditioned"])
    def test_a_point_it_cannot_evaluate_gives_inf_and_none(self, case):
        # exp(800) overflows and a NaN fails the check; at s2_lin = 1e306 the
        # sum behind the Gram's mean diagonal overflows, where map_objective raises
        ts = TimeSeries(np.random.default_rng(132).standard_normal(132), 12.0)
        medians = median_hyperparams(FULL_SPEC, PRIORS)
        objective = training.MapObjective(prepare_series(FULL_SPEC, ts), PRIORS.columns(FULL_SPEC))
        u = np.log(medians.values)
        if case == "ill-conditioned":
            theta = oracles.replace(medians, s2_lin=1e306)
            with pytest.raises(IllConditionedModelError):
                map_objective(FULL_SPEC, PRIORS, theta, ts)
            u = np.log(theta.values)
        else:
            u[:] = 800.0 if case == "overflow" else math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert objective(u) == (math.inf, None)
        assert objective.best_value == math.inf and objective.best_u is None

    def test_the_object_keeps_the_lowest_value_over_calls_that_fail_between(self):
        ts = TimeSeries(sine_series(36)[1], 12.0)
        nu = PRIORS.columns(FULL_SPEC)[0]
        rng = np.random.default_rng(5)
        candidates = [nu + rng.normal(0.0, 0.3, size=nu.size) for _ in range(4)]
        values = [value for value, _ in train_evaluations(FULL_SPEC, ts, candidates)]
        ranked = [candidates[k] for k in np.argsort(values)]  # best first
        ordered, overflow, nan = sorted(values), np.full(nu.size, 800.0), np.full(nu.size, math.nan)
        # a failure first, then one between successes; each leaves the best point as it was
        points = [overflow, ranked[2], nan, ranked[3], ranked[0], overflow, ranked[1]]
        returned = [math.inf, ordered[2], math.inf, ordered[3], ordered[0], math.inf, ordered[1]]
        best_after = [None, 2, 2, 2, 0, 0, 0]  # the rank of the best point after each call
        objective = training.MapObjective(prepare_series(FULL_SPEC, ts), PRIORS.columns(FULL_SPEC))
        for u, value, best in zip(points, returned, best_after):
            point = u.copy()
            assert objective(point)[0] == value
            point += 1.0  # the object keeps a copy of its best point
            if best is None:
                assert objective.best_value == math.inf and objective.best_u is None
            else:
                assert objective.best_value == ordered[best]
                assert objective.best_u.tobytes() == ranked[best].tobytes()

    def test_prepared_series_is_checked_against_its_spec(self, monkeypatch):
        # train hands its prepared series on; fit checks theta against its spec
        monkeypatch.setattr(training, "MAX_ITERS", 2)
        x, y = sine_series(24)
        result = train(FULL_SPEC, PRIORS, TimeSeries(y, 12.0))
        series = result.series
        assert series.spec == FULL_SPEC and np.array_equal(series.x, x) and np.array_equal(series.y, y)
        other = default_spec("double-seasonal")
        with pytest.raises(ValueError, match="spec trains") as raised:
            fit(median_hyperparams(other, PRIORS), series)
        assert type(raised.value) is ValueError

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

        _, y = sine_series(48)
        ts = TimeSeries(y + 0.3 * np.random.default_rng(48).standard_normal(48), 12.0)
        evaluated = record_evaluations(monkeypatch)
        monkeypatch.setattr(HyperParams, "__init__", counting_init)
        monkeypatch.setattr(kernels, "term_parts", counting_parts)
        result = train(FULL_SPEC, PRIORS, ts)
        assert len(made) == 1 and result.nfev == len(evaluated) > 1 and result.penalty_evals == 0
        assert len(parts) == result.nfev * sum(t.kind != "LIN" for t in FULL_SPEC.terms)

    @pytest.mark.parametrize("mode", ["single-seasonal", "double-seasonal"])
    def test_every_power_of_ten_is_finite_or_rejected_without_a_warning(self, mode):
        # each trainable alone at 10^k: a tiny lengthscale or cosine period
        # overflows a ratio inside its term, a huge variance a product or a
        # sum, and either gives the limit's finite value or rejects theta,
        # in the objective and in a forecast's fit and predict alike
        spec = default_spec(mode)
        medians = median_hyperparams(spec, PRIORS)
        ts = TimeSeries(sine_series(24)[1], 12.0)
        series = prepare_series(spec, ts)

        def forecast(theta):
            posterior = predict(fit(theta, series, 6))
            return posterior.mean, posterior.observation_variance

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in spec.trainable_names():
                for k in [*range(-323, 309, 3), 308]:
                    theta = oracles.replace(medians, **{name: 10.0**k})
                    for evaluate in (lambda: map_objective(spec, PRIORS, theta, ts), lambda: forecast(theta)):
                        try:
                            out = evaluate()
                        except (InvalidHyperparameterError, IllConditionedModelError):
                            continue
                        assert all(np.isfinite(part).all() for part in out), (name, k)


def record_evaluations(monkeypatch):
    """(u, (value, gradient)) of each objective call train hands minimize, filled as train runs."""
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


def train_evaluations(spec, ts, us):
    """train's objective, a ``MapObjective`` of the prepared series, called at each of ``us``: its (value, gradient)."""
    objective = training.MapObjective(prepare_series(spec, ts), PRIORS.columns(spec))
    return [objective(np.array(u)) for u in us]


def two_loop_deviations(evaluations, iterates):
    """Check a run of ``training.minimize`` against the two-loop recursion over every pair.

    ``evaluations`` holds each ``(u, gradient)`` the run evaluated, in order,
    and ``iterates`` each point its callback saw.  Each curvature pair is
    rebuilt from the iterates and their gradients, skipping the pairs
    L-BFGS-B skips.  Returns, per step, 1 - cos of the angle between the step
    and the reference direction over every pair kept before it, and the
    number of those pairs: a memory that dropped its oldest pairs would turn
    away from the reference.
    """
    at = {u.tobytes(): k for k, (u, _) in enumerate(evaluations)}
    points = [evaluations[0][0], *iterates]
    pairs, deviations, used = [], [], []
    for before, after in zip(points, points[1:]):
        k0, k1 = at[before.tobytes()], at[after.tobytes()]
        g0, g1 = evaluations[k0][1], evaluations[k1][1]
        s = after - before
        # every trial lies along the step taken, so no search failed and
        # the model was never reset
        for u, _ in evaluations[k0 + 1 : k1]:
            trial = u - before
            assert float(trial @ s) ** 2 >= (1.0 - 1e-12) * float(trial @ trial) * float(s @ s)
        d = oracles.lbfgs_direction(g0, pairs)
        deviations.append(1.0 - float(s @ d) / math.sqrt(float(s @ s) * float(d @ d)))
        used.append(len(pairs))
        if float(s @ (g1 - g0)) > training._EPS * -float(g0 @ s):
            pairs.append((s, g1 - g0))
    return deviations, used


class TestTrain:
    def test_objective_never_below_start(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            ts = TimeSeries(oracles.standardize(np.cumsum(rng.standard_normal(36))), 12.0)
            result = train(FULL_SPEC, PRIORS, ts)
            start, _ = map_objective(FULL_SPEC, PRIORS, median_hyperparams(FULL_SPEC, PRIORS), ts)
            assert result.objective >= start - 1e-12

    def test_deterministic_for_single_restart(self):
        rng = np.random.default_rng(17)
        x = np.arange(40) / 12.0
        ts = TimeSeries(oracles.standardize(np.sin(2 * np.pi * x) + 0.2 * rng.standard_normal(40)), 12.0)
        a = train(FULL_SPEC, PRIORS, ts)
        b = train(FULL_SPEC, PRIORS, ts)
        assert a.theta == b.theta
        assert a.objective == b.objective
        assert a.penalty_evals == 0

    def test_grid_is_laid_out_once_per_train(self, monkeypatch):
        # the lags' arrays are made when train prepares the series, never per evaluation
        calls = []
        real = kernels.Differences.of

        def counting(spec, d):
            calls.append(None)
            return real(spec, d)

        monkeypatch.setattr(gp.Differences, "of", counting)
        result = train(FULL_SPEC, PRIORS, TimeSeries(sine_series(60)[1], 12.0))
        assert result.nfev > 1 and len(calls) == 1

    def test_iteration_budget_flags_but_still_returns(self, monkeypatch):
        rng = np.random.default_rng(21)
        x = np.arange(48) / 12.0
        ts = TimeSeries(oracles.standardize(np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal(48)), 12.0)
        monkeypatch.setattr(training, "MAX_ITERS", 2)
        result = train(FULL_SPEC, PRIORS, ts)
        assert not result.converged
        start, _ = map_objective(FULL_SPEC, PRIORS, median_hyperparams(FULL_SPEC, PRIORS), ts)
        assert result.objective >= start - 1e-12

    def test_restarts_never_hurt_and_stay_deterministic(self):
        rng = np.random.default_rng(23)
        ts = TimeSeries(oracles.standardize(rng.standard_normal(36)), 12.0)
        single = train(FULL_SPEC, PRIORS, ts)
        multi_a = train(FULL_SPEC, PRIORS, ts, restarts=3)
        multi_b = train(FULL_SPEC, PRIORS, ts, restarts=3)
        assert multi_a.theta == multi_b.theta
        assert multi_a.objective >= single.objective - 1e-9

    def test_converged_is_the_status_of_the_restart_holding_the_best_point(self, monkeypatch):
        rng = np.random.default_rng(23)
        ts = TimeSeries(oracles.standardize(rng.standard_normal(36)), 12.0)
        real_minimize = training.minimize
        finals = []

        def recording(*args, **kwargs):
            result = real_minimize(*args, **kwargs)
            finals.append(result.fun)
            return result

        monkeypatch.setattr(training, "minimize", recording)
        reference = train(FULL_SPEC, PRIORS, ts, restarts=3)
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
            result = train(FULL_SPEC, PRIORS, ts, restarts=3)
            assert result.theta == reference.theta
            assert result.converged is best_succeeds
            assert result.termination == f"restart {best}"

    def test_returns_the_best_evaluated_point_not_the_optimizers_x(self, monkeypatch):
        # minimize's result.x can be worse than a point it evaluated (an ABNORMAL
        # stop) or tie with one elsewhere, so train keeps its own best evaluation
        ts = TimeSeries(sine_series(36)[1], 12.0)
        nu = PRIORS.columns(FULL_SPEC)[0]
        rng = np.random.default_rng(4)
        candidates = [nu + rng.normal(0.0, 0.3, size=nu.size) for _ in range(5)]
        values = [value for value, _ in train_evaluations(FULL_SPEC, ts, candidates)]
        ranked = [candidates[k] for k in np.argsort(values)]  # best first
        # (status, points) of each restart: the first, which converges, holds the best
        # point between two others, and neither restart returns its best point as x
        restarts = iter([(0, [ranked[2], ranked[0], ranked[4]]), (1, [ranked[1], ranked[3]])])

        def stub(fun, u0, **kwargs):
            status, points = next(restarts)
            evaluated = [fun(np.array(u))[0] for u in points]
            worst = int(np.argmax(evaluated))
            return SimpleNamespace(
                x=points[worst],
                fun=evaluated[worst],
                nit=1,
                nfev=len(points),
                penalty_evals=0,
                status=status,
                message=f"stop {status}",
            )

        monkeypatch.setattr(training, "minimize", stub)
        result = train(FULL_SPEC, PRIORS, ts, restarts=2)
        assert result.theta == HyperParams.from_log(FULL_SPEC, ranked[0])
        assert result.objective == -min(values)
        assert result.converged and result.termination == "stop 0"
        assert result.nfev == 5

    @pytest.mark.parametrize("mode", ["single-seasonal", "double-seasonal"])
    def test_every_restart_keeps_a_memory_spanning_the_trainables(self, monkeypatch, mode):
        # each restart starts a fresh model over the trainables, and every step
        # follows every curvature pair kept since that start, so the memory
        # grows past the number of trainables rather than dropping old pairs
        spec = default_spec(mode)
        real_minimize = training.minimize
        runs = []

        def recording(fun, u0, **kwargs):
            evaluations, iterates = [], []

            def recorded(u):
                value, grad = fun(u)
                evaluations.append((u.copy(), grad))
                return value, grad

            result = real_minimize(recorded, u0, callback=iterates.append, **kwargs)
            runs.append((np.size(u0), two_loop_deviations(evaluations, iterates)))
            return result

        monkeypatch.setattr(training, "minimize", recording)
        train(spec, PRIORS, TimeSeries(sine_series(24)[1], 12.0), restarts=3)
        n = len(spec.trainable_names())
        assert [size for size, _ in runs] == [n] * 3
        assert all(max(deviations) <= 1e-10 for _, (deviations, _) in runs)
        assert max(max(used) for _, (_, used) in runs) >= n

    def test_termination_is_the_optimizer_message(self, monkeypatch):
        ts = TimeSeries(sine_series(48)[1], 12.0)
        finished = train(FULL_SPEC, PRIORS, ts)
        assert finished.converged
        assert finished.termination.startswith("CONVERGENCE")
        monkeypatch.setattr(training, "MAX_ITERS", 1)
        stopped = train(FULL_SPEC, PRIORS, ts)
        assert not stopped.converged
        assert stopped.termination == "STOP: ITERATIONS REACHED MAX_ITERS"

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_nfev_counts_every_objective_evaluation(self, monkeypatch, restarts):
        rng = np.random.default_rng(23)
        ts = TimeSeries(oracles.standardize(rng.standard_normal(36)), 12.0)
        calls = record_evaluations(monkeypatch)
        result = train(FULL_SPEC, PRIORS, ts, restarts=restarts)
        assert result.nfev == len(calls) >= result.iterations > 0

    def test_an_evaluation_that_raises_is_a_penalty_and_never_the_result(self, monkeypatch):
        # the objective raises on the first trial step and on the point the
        # line search backs off to: each is one penalty evaluation, and train
        # returns the best of the points it did evaluate
        ts = TimeSeries(sine_series(36)[1], 12.0)
        real_at = training.MapObjective.at
        raising = {2: IllConditionedModelError, 3: InvalidHyperparameterError}
        calls, evaluated = [], []  # evaluated: (theta's values, objective) of each call that returned

        def rigged(self, theta):
            calls.append(None)
            if len(calls) in raising:
                raise raising[len(calls)]("rigged")
            value, grad = real_at(self, theta)
            evaluated.append((tuple(theta.tolist()), value))
            return value, grad

        monkeypatch.setattr(training.MapObjective, "at", rigged)
        result = train(FULL_SPEC, PRIORS, ts)
        assert result.penalty_evals == len(raising)
        assert result.nfev == len(calls) == len(evaluated) + len(raising)
        best_values, best = max(evaluated, key=lambda e: e[1])
        assert result.theta.values == best_values and result.objective == best

    def test_a_penalty_evaluation_does_not_end_the_run(self, monkeypatch):
        # a failed evaluation must not shrink the line search's next step to
        # nothing, nor reach its cubic interpolation: the run goes on to the
        # clean optimum
        ts = TimeSeries(sine_series(36)[1], 12.0)
        clean = train(FULL_SPEC, PRIORS, ts)
        assert clean.converged and clean.penalty_evals == 0
        # each run stops where its model predicts at most DECREASE_TOL nats
        # left to gain, so two runs to the tight optimum, 71.2501, differ by at
        # most about DECREASE_TOL each way; across 1e-4 to 1e-2 this sweep
        # read at most 1.09 DECREASE_TOL
        bound = 2.0 * training.DECREASE_TOL
        assert 71.2501 - bound <= clean.objective <= 71.2502
        assert clean.termination.startswith("CONVERGENCE") and "penalty" not in clean.termination
        real_at, real_minimize, real_cubic = training.MapObjective.at, training.minimize, training._cubic_minimizer
        calls, at_iterates, interpolated = [], [], []  # evaluations so far, at each iterate, and the cubics' arguments

        def rigged_at(k):
            def rigged(self, theta):
                calls.append(None)
                if len(calls) == k:
                    raise IllConditionedModelError("rigged")
                return real_at(self, theta)

            return rigged

        def recording(fun, u0):
            return real_minimize(fun, u0, callback=lambda u: at_iterates.append(len(calls)))

        def checked_cubic(*args):
            interpolated.append(args)
            return real_cubic(*args)

        monkeypatch.setattr(training, "minimize", recording)
        monkeypatch.setattr(training, "_cubic_minimizer", checked_cubic)
        for k in range(2, min(clean.nfev, 20) + 1):
            calls.clear()
            at_iterates.clear()
            monkeypatch.setattr(training.MapObjective, "at", rigged_at(k))
            result = train(FULL_SPEC, PRIORS, ts)
            assert result.penalty_evals == 1, k
            assert abs(result.objective - clean.objective) <= bound, k
            # minimize flags the failure only if it came after the iterate before the last
            in_final_iteration = k > (at_iterates[-2] if len(at_iterates) > 1 else 0)
            assert result.converged is not in_final_iteration, k
            assert result.termination.startswith("CONVERGENCE"), k
            assert result.termination.endswith(" after a penalty evaluation") is in_final_iteration, k
        assert interpolated  # the sweep's line searches zoom
        for a, fa, ga, b, fb, gb in interpolated:
            assert all(math.isfinite(v) for v in (a, ga, b, gb))
            assert all(math.isfinite(v) and v < 1e24 for v in (fa, fb))

    def test_overflowing_trial_point_is_a_penalty(self, monkeypatch):
        # exp(800) overflows to inf, which the hyperparameter check rejects
        ts = TimeSeries(sine_series(24)[1], 12.0)
        real_minimize = training.minimize
        returned = []

        def from_an_overflowing_start(fun, u0, **kwargs):
            def recorded(u):
                returned.append(fun(u))
                return returned[-1]

            return real_minimize(recorded, np.full(u0.size, 800.0), **kwargs)

        monkeypatch.setattr(training, "minimize", from_an_overflowing_start)
        with pytest.warns(UserWarning, match="returning prior medians"):
            result = train(FULL_SPEC, PRIORS, ts)
        [(value, grad)] = returned
        assert value == math.inf and grad is None
        assert result.theta == median_hyperparams(FULL_SPEC, PRIORS)
        assert result.objective == float("-inf") and not result.converged
        assert result.penalty_evals == 1

    def test_every_evaluation_failing_returns_the_prior_medians_unconverged(self, monkeypatch):
        def failing(self, theta):
            raise IllConditionedModelError("rigged")

        monkeypatch.setattr(training.MapObjective, "at", failing)
        ts = TimeSeries(sine_series(24)[1], 12.0)
        with pytest.warns(UserWarning, match="returning prior medians"):
            result = train(FULL_SPEC, PRIORS, ts, restarts=3)
        assert result.theta == median_hyperparams(FULL_SPEC, PRIORS)
        assert not result.converged and result.objective == float("-inf")
        # each restart's start fails, which ends it at once
        assert result.penalty_evals == result.nfev == 3 and result.iterations == 0

    def test_perfbench_tracer_sees_every_evaluation_of_a_clean_run(self, perfbench):
        # the tracer wraps the likelihood and the priors where training looks
        # them up, so the objective must call them through those names
        tracing = perfbench("tracer")
        ts = TimeSeries(sine_series(36)[1], 12.0)
        with tracing.Tracer() as tracer:
            result = train(FULL_SPEC, PRIORS, ts)
        spans = tracer.summary()
        assert result.penalty_evals == 0 and result.nfev > 1
        for name in ("gp.lml_grad", "priors.log_prior", "priors.grad_log_prior"):
            assert spans[name]["calls"] == result.nfev, name
        assert spans["training.minimize"]["calls"] == 1

    def test_perfbench_tracer_counts_the_failed_evaluations(self, monkeypatch, perfbench):
        tracing = perfbench("tracer")
        real_at = training.MapObjective.at
        calls = []

        def rigged(self, theta):
            calls.append(None)
            if len(calls) == 3:
                raise IllConditionedModelError("rigged")
            return real_at(self, theta)

        monkeypatch.setattr(training.MapObjective, "at", rigged)
        ts = TimeSeries(sine_series(36)[1], 12.0)
        with tracing.Tracer() as tracer:
            result = train(FULL_SPEC, PRIORS, ts)
        assert "gpforecast.training.minimize" not in tracer.absent
        assert tracer.counts["training.penalty_evals"] == result.penalty_evals == 1
        assert tracer.counts["training.nfev"] == result.nfev

    @pytest.mark.parametrize(
        "seed, name, objective",
        [
            (2, "m-trend-69-c0", 47.22334),
            (3, "m-quasi-76-c0", 54.31693),
            (4, "m-quasi-66-c0", 37.17324),
            (6, "m-quasi-102-c0", 84.89213),
            (8, "m-quasi-132-c0", 113.77855),
        ],
    )
    def test_five_restarts_go_on_past_failed_evaluations_on_a_design_series(self, perfbench, seed, name, objective):
        # among the optimum audit's series that meet a failed evaluation, in one
        # of their five restarts; a single restart meets none.  ``objective`` is
        # the best of five at a DECREASE_TOL of 1e-9, which the default stop
        # ends within 2 DECREASE_TOL of (1.3e-3 nats at most here)
        ts, horizon, mode = design_series(perfbench, "monthly-forecast", seed, name)
        _, _, result = standardized_posterior(ts, horizon, mode=mode, restarts=5)
        assert result.penalty_evals >= 1 and result.converged
        assert objective - 2.0 * training.DECREASE_TOL <= result.objective <= objective + 1e-4

    def test_a_single_restart_reaches_the_best_of_five_on_a_quasi_periodic_design_series(self, perfbench):
        # from the prior medians its single restart ended 4.6 nats below the best of 5
        ts, horizon, mode = design_series(perfbench, "monthly-forecast", 20201, "m-quasi-95-c0")
        single, best = (standardized_posterior(ts, horizon, mode=mode, restarts=r)[2] for r in (1, 5))
        assert single.converged and single.objective >= best.objective - 0.1

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            train(FULL_SPEC, PRIORS, TimeSeries(np.zeros(3), 1.0))

    def test_model_without_noise_term_rejected(self):
        spec = KernelSpec(terms=(Term("RBF"),))
        with pytest.raises(ValueError, match="WN"):
            train(spec, PRIORS, TimeSeries(np.zeros(8), 1.0))

    def test_trainable_without_a_prior_rejected(self):
        partial = PriorSpec(entries={name: p for name, p in PRIORS.entries.items() if name != "tau_sm2"})
        with pytest.raises(KeyError, match="tau_sm2"):
            train(FULL_SPEC, partial, TimeSeries(sine_series(24)[1], 12.0))

    @pytest.mark.parametrize("restarts", [2.5, math.nan, 0, -1, "2"])
    def test_restarts_other_than_an_integer_of_at_least_one_rejected(self, monkeypatch, restarts):
        monkeypatch.setattr(training, "minimize", lambda *args, **kwargs: pytest.fail("training ran"))
        with pytest.raises(ValueError, match="restarts must be an integer >= 1"):
            train(FULL_SPEC, PRIORS, TimeSeries(sine_series(24)[1], 12.0), restarts=restarts)

    def test_restarts_of_any_integer_type_accepted(self, monkeypatch):
        ts = TimeSeries(sine_series(24)[1], 12.0)
        starts = [u.tobytes() for restarts in (3, np.int64(3)) for u in train_starts(monkeypatch, FULL_SPEC, ts, restarts)]
        assert len(starts) == 6 and starts[:3] == starts[3:] and len(set(starts)) == 3

    def test_tau_sm1_starts_at_the_periodogram_peak_of_a_two_year_cycle(self, monkeypatch):
        # 100 months of a 2-year cycle: its strongest rfft bin is the 4th, 4 cycles in 100/12 years
        rng = np.random.default_rng(3)
        x = np.arange(100) / 12.0
        y = np.sin(np.pi * x) + 0.1 * rng.standard_normal(100)
        nu, lam = PRIORS.columns(FULL_SPEC)[:2]
        starts = train_starts(monkeypatch, FULL_SPEC, TimeSeries(y, 12.0), restarts=3)
        names = FULL_SPEC.trainable_names()
        k, noise = names.index("tau_sm1"), names.index("s2_noise")
        assert starts[0][k] == pytest.approx(-math.log(2.0 * math.pi * 4.0 * 12.0 / 100.0), rel=1e-12)
        # the noise's start is its variance, 0.01, read from the high bins
        assert abs(starts[0][noise] - math.log(0.01)) <= math.log(2.0)
        assert np.delete(starts[0], [k, noise]).tobytes() == np.delete(nu, [k, noise]).tobytes()
        # the restarts after the first perturb the medians, not the first start
        rng = np.random.default_rng(training.RESTART_SEED)
        for start in starts[1:]:
            assert start.tobytes() == (nu + rng.normal(0.0, 1.0, size=nu.size) * np.sqrt(lam)).tobytes()

    @pytest.mark.parametrize("mode", ["single-seasonal", "double-seasonal"])
    def test_a_cycle_outside_the_tau_sm1_prior_range_keeps_tau_sm1_at_its_median(self, monkeypatch, mode):
        # a yearly peak gives log tau -1.84, below the range's floor of -1.46, and
        # every six-hourly cycle here is daily or weekly; every trainable but the
        # noise, whose variance is 0.01, starts at its median
        rng = np.random.default_rng(4)
        if mode == "single-seasonal":
            steps_per_year, n = 12.0, 120
            x = np.arange(n) / steps_per_year
            y = np.sin(2.0 * np.pi * x)
        else:
            steps_per_year, n = 1461.0, 336
            x = np.arange(n) / steps_per_year
            y = np.sin(2.0 * np.pi * 365.25 * x) + 0.5 * np.sin(2.0 * np.pi * 365.25 / 7.0 * x)
        spec = default_spec(mode)
        [start] = train_starts(monkeypatch, spec, TimeSeries(y + 0.1 * rng.standard_normal(n), steps_per_year))
        noise = spec.trainable_names().index("s2_noise")
        assert abs(start[noise] - math.log(0.01)) <= math.log(2.0)
        assert np.delete(start, noise).tobytes() == np.delete(PRIORS.columns(spec)[0], noise).tobytes()

    @pytest.mark.parametrize("variance", [0.01, 1.0, 4.0])
    def test_white_noise_starts_s2_noise_at_its_variance(self, monkeypatch, variance):
        # the median over 20 seeds is unbiased, and each start is within a factor of 2
        x = np.arange(336) / 12.0
        noise = FULL_SPEC.trainable_names().index("s2_noise")
        errors = []
        for seed in range(20):
            y = math.sqrt(variance) * np.random.default_rng(seed).standard_normal(x.size)
            [start] = train_starts(monkeypatch, FULL_SPEC, TimeSeries(y, 12.0))
            errors.append(start[noise] - math.log(variance))
        assert abs(float(np.median(errors))) <= 0.15
        assert max(map(abs, errors)) <= math.log(2.0)

    @pytest.mark.parametrize("mode", ["single-seasonal", "double-seasonal"])
    def test_exactly_periodic_sines_keep_the_noise_median(self, monkeypatch, mode):
        # whole cycles leave the high bins at rounding level, far below the
        # start's floor of exp(nu - 5 sqrt(lam)); a yearly, daily or weekly cycle
        # keeps tau_sm1's median too
        if mode == "single-seasonal":
            steps_per_year = 12.0
            x = np.arange(120) / steps_per_year
            y = np.sin(2.0 * np.pi * x) + 0.3 * np.cos(4.0 * np.pi * x)
        else:
            steps_per_year = 1461.0
            x = np.arange(336) / steps_per_year
            y = np.sin(2.0 * np.pi * 365.25 * x) + 0.5 * np.sin(2.0 * np.pi * 365.25 / 7.0 * x)
        spec = default_spec(mode)
        [start] = train_starts(monkeypatch, spec, TimeSeries(y, steps_per_year))
        assert start.tobytes() == PRIORS.columns(spec)[0].tobytes()

    def test_a_noise_free_design_series_keeps_the_noise_median(self, monkeypatch, perfbench):
        # h-220-10-c0's high bins read 3.7e-4, below the start's floor of 1.5e-3;
        # started there, its single restart fell 0.17 nats at every audit seed
        ts, horizon, mode = design_series(perfbench, "six-hourly-double", 1, "h-220-10-c0")
        starts = record_starts(monkeypatch)
        standardized_posterior(ts, horizon, mode=mode)
        assert starts[0].tobytes() == PRIORS.columns(default_spec(mode))[0].tobytes()

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_the_shortest_series_start_without_a_warning(self, monkeypatch, n):
        # above 0.4 cycles per step lies one bin at n = 4 and 8 and none at
        # n = 5, which takes its last bin; an all-zero series reads a level of 0
        noise = FULL_SPEC.trainable_names().index("s2_noise")
        nu = PRIORS.columns(FULL_SPEC)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [start] = train_starts(monkeypatch, FULL_SPEC, TimeSeries(np.random.default_rng(n).standard_normal(n), 12.0))
            [zeros] = train_starts(monkeypatch, FULL_SPEC, TimeSeries(np.zeros(n), 12.0))
        assert math.isfinite(start[noise]) and start[noise] != nu[noise]
        assert zeros.tobytes() == nu.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frequency=st.sampled_from([(12.0, "single-seasonal"), (1461.0, "double-seasonal")]),
        k=st.integers(-60, 60),
        sign=st.sampled_from([1.0, -1.0]),
        shift=st.integers(-1000, 1000),
    )
    def test_the_start_is_bit_identical_under_a_power_of_two_affine_map(self, seed, frequency, k, sign, shift):
        # a = +-2^k and b = 2^k times an integer map 128 integer values exactly,
        # and the standardized series only changes sign, which neither the
        # periodogram's peak nor its noise level sees
        steps_per_year, mode = frequency
        rng = np.random.default_rng(seed)
        t = np.arange(128)
        base = np.round(20.0 * np.sin(2.0 * np.pi * t * rng.uniform(0.01, 0.3)) + rng.normal(0.0, 5.0, t.size))
        a = sign * 2.0**k
        with pytest.MonkeyPatch.context() as monkeypatch:
            starts = record_starts(monkeypatch)
            for values in (base, a * base + 2.0**k * shift):
                standardized_posterior(TimeSeries(values=values, steps_per_year=steps_per_year), 6, mode=mode)
        assert starts[0].tobytes() == starts[1].tobytes()

    def test_linear_trend_makes_linear_term_dominant(self):
        # deterministic input, so a single run settles the claim
        x = np.arange(48) / 12.0
        result = train(FULL_SPEC, PRIORS, TimeSeries(oracles.standardize(x.copy()), 12.0))
        variances = oracles.mean_signal_variances(FULL_SPEC, result.theta, x)
        lin = variances.pop("LIN")
        assert lin > max(variances.values())


def design_series(perfbench, workload_name, seed, name):
    """One series of a perfbench workload's design, as its forecast trains on it: the series, horizon and mode."""
    workloads = perfbench("workloads")
    workload = workloads.WORKLOADS[workload_name]
    values = dict(workloads.generate(workload.name, seed))[name]
    return TimeSeries(values[: -workload.horizon], workload.steps_per_year), workload.horizon, workload.mode


def record_starts(monkeypatch):
    """The start ``train`` hands each restart's ``minimize``, evaluated once and not optimized, filled as train runs."""
    starts = []

    def one_evaluation(fun, u0, **kwargs):
        starts.append(u0.copy())
        fun(u0.copy())
        return SimpleNamespace(nit=1, nfev=1, penalty_evals=0, status=0, message="one evaluation")

    monkeypatch.setattr(training, "minimize", one_evaluation)
    return starts


def train_starts(monkeypatch, spec, ts, restarts=1):
    """The start ``train`` hands each restart's ``minimize`` on the series ``ts``."""
    starts = record_starts(monkeypatch)
    train(spec, PRIORS, ts, restarts=restarts)
    return starts


def rosenbrock(u):
    """The n-dimensional Rosenbrock function and its gradient."""
    head, tail = u[:-1], u[1:]
    value = float(np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2))
    grad = np.zeros_like(u)
    grad[:-1] = -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
    grad[1:] += 200.0 * (tail - head**2)
    return value, grad


# a tight stop: DECREASE_TOL in nats for training.minimize, scipy's relative ftol for L-BFGS-B
TIGHT_DECREASE, TIGHT_FTOL = 1e-12, 1e-12


class TestMinimizeOracle:
    # training.minimize is L-BFGS with L-BFGS-B's line-search constants: run to
    # a tight stop, as scipy's L-BFGS-B is, it must end no worse than scipy's
    # with the same limits, and take only steps that meet the strong Wolfe
    # conditions.  Its stop in nats has no counterpart in scipy's relative
    # ftol, which on Rosenbrock, whose minimum is 0, is a test in absolute
    # units of f, so the default stop is checked by TestStopDefault instead
    @pytest.mark.parametrize(
        "case, constants, status, message",
        [
            ("monthly", {}, 0, "CONVERGENCE: LARGEST GRADIENT COMPONENT <= GRAD_TOL"),
            # scipy's L-BFGS-B ends this one in an ABNORMAL line-search stop
            ("six-hourly", {}, None, None),
            ("monthly", {"MAX_ITERS": 3}, 1, "STOP: ITERATIONS REACHED MAX_ITERS"),
            ("rosenbrock", {}, 0, "CONVERGENCE: PREDICTED DECREASE OF F <= DECREASE_TOL"),
        ],
        ids=["monthly-tight", "six-hourly-abnormal", "iteration-limit", "rosenbrock-16"],
    )
    def test_minimize_ends_no_worse_than_scipy_lbfgsb_on_strong_wolfe_steps(
        self, monkeypatch, perfbench, case, constants, status, message
    ):
        runs = []  # (evaluations, iterates, own result, scipy's result) of each restart
        own = training.minimize

        def both(fun, u0):
            evaluations, iterates = [], []

            def recorded(u):
                out = fun(u)
                evaluations.append((u.copy(), *out))
                return out

            result = own(recorded, u0, callback=lambda u: iterates.append(u.copy()))
            options = {
                "maxcor": training.MAX_ITERS,  # so that scipy too keeps every pair
                "maxiter": training.MAX_ITERS,
                "ftol": TIGHT_FTOL,
                "gtol": training.GRAD_TOL,
            }
            theirs = scipy.optimize.minimize(fun, u0, jac=True, method="L-BFGS-B", options=options)
            runs.append((evaluations, iterates, result, theirs))
            return result

        for name, value in {"DECREASE_TOL": TIGHT_DECREASE, **constants}.items():
            monkeypatch.setattr(training, name, value)
        if case == "rosenbrock":
            both(rosenbrock, np.tile([-1.2, 1.0], 8))
        else:
            monkeypatch.setattr(training, "minimize", both)
            if case == "monthly":
                train(FULL_SPEC, PRIORS, TimeSeries(sine_series(36)[1], 12.0))
            else:
                ts, horizon, mode = design_series(perfbench, "six-hourly-double", 1, "h-112-0-c0")
                standardized_posterior(ts, horizon, mode=mode)
        [(evaluations, iterates, ours, theirs)] = runs
        assert ours.fun <= theirs.fun + 1e-3
        assert ours.nfev == len(evaluations) and ours.nit == len(iterates)
        if status is not None:
            assert (ours.status, ours.message) == (status, message)
        if "MAX_ITERS" in constants:
            assert ours.nit == constants["MAX_ITERS"]
        # each iterate is the last point evaluated before it; check both strong
        # Wolfe conditions along the step from the iterate before it
        at = {u.tobytes(): (value, grad) for u, value, grad in evaluations}
        points = [evaluations[0][0], *iterates]
        for before, after in zip(points, points[1:]):
            (f0, g0), (f1, g1) = at[before.tobytes()], at[after.tobytes()]
            s = after - before
            assert f1 <= f0 + training._SUFFICIENT_DECREASE * float(g0 @ s) + 1e-12 * abs(f0)
            assert abs(float(g1 @ s)) <= training._CURVATURE * abs(float(g0 @ s)) * (1.0 + 1e-9)

    def test_each_step_follows_the_two_loop_recursion_over_every_pair(self):
        # rebuild each curvature pair from the iterates and their gradients,
        # skipping the pairs L-BFGS-B skips, and check that each step is
        # parallel to the reference direction over every pair kept so far:
        # a memory that dropped its oldest pairs would turn away from it
        evaluations, iterates = [], []

        def recorded(u):
            value, grad = rosenbrock(u)
            evaluations.append((u.copy(), grad))
            return value, grad

        result = training.minimize(recorded, np.tile([-1.2, 1.0], 8), iterates.append)
        assert result.status == 0
        deviations, used = two_loop_deviations(evaluations, iterates)
        assert used[-1] > 4 * result.x.size  # far more pairs than a short memory would keep
        assert max(deviations) <= 1e-10

    def test_a_failed_search_resets_the_memory_once_then_stops_abnormal(self, monkeypatch):
        # from the eighth evaluation on the gradient has the wrong sign, so no
        # step meets the Wolfe conditions
        evaluations, iterates = [], []

        def lying(u):
            value, grad = rosenbrock(u)
            evaluations.append((u.copy(), grad if len(evaluations) < 7 else -grad))
            return value, evaluations[-1][1]

        for name, value in {"MAX_ITERS": 200, "DECREASE_TOL": 1e-12, "GRAD_TOL": 1e-9}.items():
            monkeypatch.setattr(training, name, value)
        result = training.minimize(lying, np.tile([-1.2, 1.0], 2), iterates.append)
        assert (result.status, result.message) == (2, "ABNORMAL: NO STRONG-WOLFE STEP")
        assert result.nit == len(iterates) > 1 and result.x is iterates[-1]
        assert result.fun == rosenbrock(result.x)[0]
        # two searches of _MAX_TRIALS each after the last iterate; the second, with
        # the memory reset, starts with a unit step along the steepest descent
        last = next(k for k, (u, _) in enumerate(evaluations) if np.array_equal(u, result.x))
        assert result.nfev == len(evaluations) == last + 1 + 2 * training._MAX_TRIALS
        assert np.array_equal(evaluations[last + 1 + training._MAX_TRIALS][0], result.x - evaluations[last][1])


class TestStops:
    # every stop message is reached; the stop in nats reads the model's
    # predicted decrease -g'd / 2 before each line search, once the model
    # holds a pair, and costs no evaluation
    def test_a_start_at_the_minimum_stops_on_the_gradient_at_once(self):
        centre = np.array([0.5, -2.0, 3.0])
        result = training.minimize(lambda u: (0.5 * float((u - centre) @ (u - centre)), u - centre), centre.copy())
        assert (result.status, result.message) == (0, "CONVERGENCE: LARGEST GRADIENT COMPONENT <= GRAD_TOL")
        assert (result.nit, result.nfev, result.penalty_evals) == (0, 1, 0)

    @staticmethod
    def searched(monkeypatch, fail=()):
        """Record each line search's slope g'd and its direction; the searches numbered in ``fail`` find no step."""
        searches, real = [], training._line_search

        def recording(fun, x, f0, d, slope, step):
            searches.append((slope, d.copy(), x.copy()))
            return (None, 0, 0) if len(searches) in fail else real(fun, x, f0, d, slope, step)

        monkeypatch.setattr(training, "_line_search", recording)
        return searches

    def test_the_stop_fires_at_the_first_iterate_whose_predicted_decrease_is_small(self, monkeypatch):
        start = np.tile([-1.2, 1.0], 8)
        monkeypatch.setattr(training, "DECREASE_TOL", 0.0)  # never fires
        searches = self.searched(monkeypatch)
        full = training.minimize(rosenbrock, start)
        assert full.status == 0 and "GRAD_TOL" in full.message and full.nit > 10
        # a Wolfe step always keeps its pair, so every search after the first holds one
        predicted = [-0.5 * slope for slope, *_ in searches]
        for tol in (predicted[len(predicted) // 3], predicted[2 * len(predicted) // 3]):
            first = next(k for k in range(1, len(predicted)) if predicted[k] <= tol)
            monkeypatch.setattr(training, "DECREASE_TOL", tol)
            evaluations, iterates = [], []

            def recorded(u):
                evaluations.append(u.copy())
                return rosenbrock(u)

            searches.clear()
            result = training.minimize(recorded, start, iterates.append)
            assert (result.status, result.message) == (0, "CONVERGENCE: PREDICTED DECREASE OF F <= DECREASE_TOL")
            assert result.nit == first == len(searches)  # stopped before the search from iterate `first`
            assert np.array_equal(result.x, iterates[-1]) and np.array_equal(evaluations[-1], result.x)
        # at inf it fires at the first iterate, the first point whose model holds a pair
        monkeypatch.setattr(training, "DECREASE_TOL", math.inf)
        searches.clear()
        result = training.minimize(rosenbrock, start)
        assert (result.status, result.nit) == (0, 1) and len(searches) == 1

    def test_the_stop_never_fires_on_a_steepest_descent_step_after_a_reset(self, monkeypatch):
        # the second search finds no step, so the model is reset to H = I and
        # the third runs along -g.  DECREASE_TOL is set to that search's
        # -g'd / 2 = |g|^2 / 2: the stop must still wait for the next pair.
        # Rosenbrock scaled by 1e-4 makes g'Hg far larger than g'g, so the
        # failed second search is not stopped either
        def scaled(u):
            value, grad = rosenbrock(u)
            return 1e-4 * value, 1e-4 * grad

        start = np.tile([-1.2, 1.0], 2)
        monkeypatch.setattr(training, "DECREASE_TOL", 0.0)
        searches = self.searched(monkeypatch, fail={2})
        training.minimize(scaled, start)
        predicted = [-0.5 * slope for slope, *_ in searches]
        tol = predicted[2]
        assert predicted[1] > tol
        # search k runs from iterate k - 1, the failed second search having made none
        first = next(k for k in range(3, len(predicted)) if predicted[k] <= tol)
        monkeypatch.setattr(training, "DECREASE_TOL", tol)
        searches = self.searched(monkeypatch, fail={2})
        result = training.minimize(scaled, start)
        assert (result.status, result.message) == (0, "CONVERGENCE: PREDICTED DECREASE OF F <= DECREASE_TOL")
        assert result.nit == first - 1 and len(searches) == first
        (_, _, x), (slope, steepest, same_x) = searches[1:3]
        g = scaled(x)[1]
        assert np.array_equal(same_x, x) and np.array_equal(steepest, -g) and slope == -float(g @ g)


class TestFailedEvaluations:
    # fun reports a point it cannot evaluate as (inf, None); minimize alone
    # knows what that means
    def test_a_failed_start_ends_the_run_at_once(self):
        start = np.tile([-1.2, 1.0], 2)
        evaluations, iterates = [], []

        def failing_at_the_start(u):
            evaluations.append(u.copy())
            return (math.inf, None) if np.array_equal(u, start) else rosenbrock(u)

        result = training.minimize(failing_at_the_start, start, iterates.append)
        assert (result.nit, result.nfev, result.penalty_evals) == (0, 1, 1)
        assert result.status != 0 and result.message.endswith(" after a penalty evaluation")
        assert len(evaluations) == 1 and not iterates

    def test_no_trial_goes_past_a_failed_one_in_its_search(self):
        # the minimum at 2 lies beyond a fence at 1.1: every search backs off
        # from the failed steps toward the fence, and a trial short of it whose
        # slope asks for a longer step still never goes past a failed step
        evaluations, at_iterates = [], [0]

        def fenced(u):
            evaluations.append(float(u[0]))
            if u[0] > 1.1:
                return math.inf, None
            return float((u[0] - 2.0) ** 2), 2.0 * (u - 2.0)

        result = training.minimize(fenced, np.zeros(1), lambda u: at_iterates.append(len(evaluations)))
        failed = [u for u in evaluations if u > 1.1]
        assert result.penalty_evals == len(failed) > 0 and result.nfev == len(evaluations)
        assert result.x[0] <= 1.1 and result.fun == (result.x[0] - 2.0) ** 2
        # the search from the last iterate fails, and so does the one after the
        # memory reset: each ends once its failed step is within _XTOL of its
        # best one, 8 and 9 evaluations in, not after _MAX_TRIALS halvings
        assert (result.status, result.message) == (2, "ABNORMAL: NO STRONG-WOLFE STEP after a penalty evaluation")
        assert result.x[0] == 1.0
        bounds = [*at_iterates, len(evaluations)]
        *iterations, tail = [evaluations[begin:end] for begin, end in zip(bounds, bounds[1:])]
        assert len(tail) == 17
        for search in [*iterations, tail[:8], tail[8:]]:
            for k, u in enumerate(search):
                if u > 1.1:
                    assert all(later < u for later in search[k + 1 :]), search


class TestLineSearch:
    # _line_search by itself, along one coordinate of a seeded quartic with a
    # negative slope at 0, optionally fenced: past the fence fun reports a
    # point it cannot evaluate
    @staticmethod
    def searched(seed, fenced):
        rng = np.random.default_rng(seed)
        a4, a3, a2 = 10.0 ** rng.uniform(-3, 3), rng.normal() * 10.0 ** rng.uniform(-2, 2), rng.normal()
        a1 = -(10.0 ** rng.uniform(-3, 3))
        fence = 10.0 ** rng.uniform(-3, 2) if fenced else math.inf
        evaluated = []  # (step, value, slope)

        def quartic(u):
            t = float(u[0])
            if t > fence:
                evaluated.append((t, math.inf, math.nan))
                return math.inf, None
            value, slope = ((a4 * t + a3) * t + a2) * t * t + a1 * t, ((4.0 * a4 * t + 3.0 * a3) * t + 2.0 * a2) * t + a1
            evaluated.append((t, value, slope))
            return value, np.array([slope])

        found, trials, failures = training._line_search(quartic, np.zeros(1), 0.0, np.ones(1), a1, 10.0 ** rng.uniform(-3, 3))
        return a1, found, trials, failures, evaluated

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), fenced=st.booleans())
    def test_a_search_keeps_its_bracket_and_returns_only_strong_wolfe_steps(self, seed, fenced):
        slope, found, trials, failures, evaluated = self.searched(seed, fenced)
        steps = [t for t, _, _ in evaluated]
        assert trials == len(steps) <= training._MAX_TRIALS
        assert failures == sum(value == math.inf for _, value, _ in evaluated)
        decrease = training._SUFFICIENT_DECREASE * slope
        # before each trial: the best step lo (the first lowest value of
        # sufficient decrease, or 0) and, once one exists, the bracket's far
        # end, the nearest point tried on the side where lo's slope descends
        def far_end(tried):
            return min((p for p in [0.0, *tried] if (p - lo) * g_lo < 0.0), key=lambda p: abs(p - lo), default=None)

        lo, f_lo, g_lo = 0.0, 0.0, slope
        for k, (t, value, t_slope) in enumerate(evaluated):
            if value == math.inf:  # no later trial reaches or passes a failed step
                assert all(later < t for later in steps[k + 1 :]), steps
            assert (t - lo) * g_lo < 0.0, steps  # every trial goes downhill from lo
            hi = far_end(steps[:k])
            if hi is not None:  # inside the bracket, a _SAFEGUARD of it from either end
                margin = training._SAFEGUARD * abs(hi - lo) * (1.0 - 1e-9)
                assert min(abs(t - lo), abs(t - hi)) >= margin and (t - lo) * (t - hi) < 0.0, steps
            if value <= t * decrease and value < f_lo:
                lo, f_lo, g_lo = t, value, t_slope
        if found is not None:
            x, f, g, g_step, step = found
            assert (x[0], f, g_step) == (step, evaluated[-1][1], float(g[0])) and step == steps[-1]
            assert f <= step * decrease * (1.0 - 1e-12)
            assert abs(g_step) <= training._CURVATURE * -slope
            return
        # None: the trials ran out, or the step grew to _MAX_STEP unbracketed,
        # or the bracket's ends are within _XTOL of each other
        hi = far_end(steps)
        narrow = hi is not None and abs(hi - lo) <= training._XTOL * max(hi, lo)
        assert trials == training._MAX_TRIALS or narrow or steps[-1] >= training._MAX_STEP, steps

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_the_cubic_minimizer_is_the_cubics_own(self, seed):
        # c u^2 (k - u), u = t - m, has its local minimum at t = m; two steps'
        # values and slopes determine it
        rng = np.random.default_rng(seed)
        m, c, k = rng.uniform(-5, 5), 10.0 ** rng.uniform(-2, 2), rng.uniform(0.5, 5)
        a, b = m + rng.uniform(-5, 5), m + rng.uniform(-5, 5)

        def cubic(t):
            u = t - m
            return c * u * u * (k - u), c * u * (2.0 * k - 3.0 * u)

        if abs(a - b) > 0.1:
            assert training._cubic_minimizer(a, *cubic(a), b, *cubic(b)) == pytest.approx(m, abs=1e-9 * (1 + abs(m)))


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


class TestStopDefault:
    # the default DECREASE_TOL ends the tight run's optimizer path early: it
    # must cost no more evaluations and give up at most GIVEN_UP nats for
    # them, whatever n.  The bound is set from more series than these tests
    # run, at one BLAS thread against a DECREASE_TOL of 1e-9: the default gave
    # up at most 0.0143 nats and moved the means by at most 4.0e-4
    # standardized units on 24 seeds of the n = 1461 series below (seeds 0-4:
    # 0.0108 nats), and at most 0.0120 nats on the 100 digest series
    # (n <= 336), each with nfev at or below the tight run's
    GIVEN_UP = 0.02
    TIGHT = 1e-9

    @pytest.mark.parametrize(
        "mode, steps_per_year, noise, n",
        [("single-seasonal", 12.0, 0.1, 132), ("double-seasonal", 1461.0, 0.2, 224), ("double-seasonal", 1461.0, 0.0, 112)],
        ids=["monthly-132", "six-hourly-224", "six-hourly-112-noise-free"],
    )
    def test_default_stop_is_close_to_a_tight_one(self, monkeypatch, mode, steps_per_year, noise, n):
        rng = np.random.default_rng(31)
        i = np.arange(n)
        if mode == "single-seasonal":
            signal = np.sin(2 * np.pi * i / 12 + 0.4) + 0.5 * i / n
        else:
            signal = np.sin(2 * np.pi * i / 4 + 0.7) + 0.8 * np.sin(2 * np.pi * i / 28 + 2.1) + 0.3 * i / n
        ts = TimeSeries(20.0 + 3.0 * (signal + noise * rng.standard_normal(n)), steps_per_year)
        self.check(monkeypatch, ts, 18, mode)

    @pytest.mark.parametrize("seed", range(5))
    def test_default_stop_at_a_year_of_six_hourly_steps(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n = 1461
        i = np.arange(n)
        phases = rng.uniform(0, 2 * np.pi, 2)
        signal = np.sin(2 * np.pi * i / 4 + phases[0]) + rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * i / 28 + phases[1])
        signal = signal + rng.uniform(-0.5, 0.5) * i / n
        ts = TimeSeries(20.0 + 3.0 * (signal + 0.1 * rng.standard_normal(n)), 1461.0)
        self.check(monkeypatch, ts, 42, "double-seasonal")

    def check(self, monkeypatch, ts, horizon, mode):
        default_posterior, _, default = standardized_posterior(ts, horizon, mode=mode)
        monkeypatch.setattr(training, "DECREASE_TOL", self.TIGHT)
        tight_posterior, _, tight = standardized_posterior(ts, horizon, mode=mode)
        assert tight.objective - self.GIVEN_UP <= default.objective <= tight.objective
        assert default.nfev <= tight.nfev
        assert np.max(np.abs(default_posterior.mean - tight_posterior.mean)) <= 2e-3
