"""MAP estimation of the kernel hyperparameters.

The objective is the log of prior times marginal likelihood, maximized
over ``u = log(theta)`` so positivity is structural.  :func:`map_objective`
computes it and its gradient from one factorization; :func:`train` hands
its negation to :func:`minimize`, an unbounded L-BFGS written here: an
inverse-Hessian model that keeps every curvature pair, Nocedal and
Wright's bracket-and-zoom strong-Wolfe line search with L-BFGS-B's
constants, and one stop in nats: a restart ends once its model predicts
that the next step gains at most ``DECREASE_TOL``.  It needs no part of
``scipy.optimize``, which a forecast therefore never imports.
The objective is one :class:`MapObjective` per series, built from the
prepared series and the spec's prior columns: :func:`train` minimizes it,
and :func:`map_objective` evaluates one made for the call.  Each evaluation
maps the optimizer's u straight to the objective and gradient: exp(u), one
check that every value is finite and > 0, the likelihood on the prepared
series and the priors on log(exp(u)), with no :class:`HyperParams` made
until the final theta.  A trial point that fails the check, or whose
covariance cannot be factorized, is a failed evaluation, not an error: the
line search takes it as the far end of its bracket and searches short of
it, and :func:`minimize` counts it in ``TrainResult.penalty_evals``.
Both take a ``gp.TimeSeries``, which carries its grid, and
``TrainResult.series`` hands the prepared series on to ``gp.fit``.

The optimizer's quasi-Newton model keeps every curvature pair of a
restart (since its last reset), so it spans the whole parameter space.  Keeping only scipy's
default of 10 pairs it cannot: under a tight relative stop (L-BFGS-B's
ftol at 1e-9) the benchmark's 48 monthly series took 2846 evaluations
against 2039 with 20 pairs, the quasi-periodic ones most.  Kept densely,
as two n x n matrices, every pair costs no more than a short memory: a spec has at
most 15 trainables, one per name of ``PARAM_NAMES`` (13 single-seasonal,
15 double-seasonal).

Training starts at the prior medians (the prior means in log space),
except for two trainables read from one ``rfft`` of the series.  SM1's
``tau_sm1`` starts at the series' strongest cycle if its prior's 95%
range holds it (1.46 to 74 years under the default prior: never a
yearly, weekly or daily cycle), so a quasi-periodic series need not walk
SM1's period down from the median's 10.4 years.  ``s2_noise`` starts at
the noise level of the bins above 0.4 cycles per step if that lies
within ``_NOISE_START_SDS`` prior sds of its median (1.5e-3 to 33 under
the default prior), below which the noise-free design series lie.  A single
start is deterministic.  Extra restarts perturb the prior medians with
one Normal(0, lam) draw per coordinate (:data:`RESTART_SEED`).
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .gp import IllConditionedModelError, PreparedSeries, TimeSeries, log_marginal_likelihood_and_grad, prepare_series
from .kernels import HyperParams, InvalidHyperparameterError, KernelSpec
from .priors import PriorSpec, default_priors, grad_log_prior, log_prior, median_hyperparams

__all__ = ["TrainResult", "map_objective", "train"]

MIN_TRAIN_POINTS = 4

# Each restart stops after MAX_ITERS iterations, once the largest gradient
# component is at most GRAD_TOL, or once its quasi-Newton model predicts that
# the next step gains at most DECREASE_TOL nats of the MAP objective: before a
# line search, with at least one curvature pair kept, -g'd / 2 = g'Hg / 2 <=
# DECREASE_TOL (Nocedal and Wright, Numerical Optimization, 2nd ed., 3.3 and
# 6.1).  Right after the start or a reset the model holds no pair and the test
# waits for one.  A looser DECREASE_TOL changes no iterate and only ends the
# same path earlier.  At 3e-3 the 100 digest series take 1516 evaluations
# (1613 at 1e-3, 1890 under the relative-reduction stop this test replaced)
# and give up at most 0.012 nats against a tight stop.  Being in nats, it
# gives up about as much at n = 1461: at most 0.014 on 24 seeded six-hourly
# series.
MAX_ITERS = 200
GRAD_TOL = 1e-5
DECREASE_TOL = 3e-3

# The line search's constants are L-BFGS-B's: sufficient decrease and
# curvature of the strong Wolfe conditions, the narrowest bracket relative
# to its larger end, trials per search, the longest step.
_SUFFICIENT_DECREASE = 1e-3
_CURVATURE = 0.9
_XTOL = 0.1
_MAX_TRIALS = 20
_MAX_STEP = 1e10
_EPS = float(np.finfo(float).eps)

# Before a minimizer is bracketed each trial step is this multiple of the
# last; inside a bracket a trial keeps this fraction of it from either end.
# A safeguard of 0.05 or 0.2 trains the benchmark series about as well; 0.01
# costs the monthly optimum audit's single restarts 6% more evaluations
# (8257 against 7805), and extrapolating by 2 costs the digest series 4%
# more (2816 against 2715).
_EXTRAPOLATE = 4.0
_SAFEGUARD = 0.1

# Each stop message names the test that fired.
_CONVERGED_GRADIENT = "CONVERGENCE: LARGEST GRADIENT COMPONENT <= GRAD_TOL"
_CONVERGED_DECREASE = "CONVERGENCE: PREDICTED DECREASE OF F <= DECREASE_TOL"
_ITERATION_LIMIT = "STOP: ITERATIONS REACHED MAX_ITERS"
_NO_STEP = "ABNORMAL: NO STRONG-WOLFE STEP"
_FAILED_START = "ABNORMAL: START NOT EVALUATED"

# Seed of the generator that perturbs the starts of restarts after the first.
RESTART_SEED = 0

# White noise of variance s2 puts a median power |Y_k|^2 / n of s2 ln 2 in
# each rfft bin, so the high bins' median over ln 2 starts log s2_noise if it
# lies within this many prior sds of nu: 1.5e-3 to 33 under the default prior.
# Noise-free six-hourly design series read 4.5e-5 to 3.7e-4 and keep the
# median; every noisy monthly one reads at least 1.8e-3.
_NOISE_START_SDS = 5.0


@dataclass(frozen=True)
class TrainResult:
    """``iterations`` and ``nfev`` are the optimizer's iterations and objective evaluations, summed over restarts.

    ``penalty_evals`` counts the failed evaluations (an ill-conditioned or
    invalid trial point), summed over restarts.

    ``termination`` is the optimizer's message for the restart that produced
    ``theta``, e.g. an ``ABNORMAL`` line-search stop behind ``converged=False``,
    ending in " after a penalty evaluation" if its final iteration met one.

    ``series`` is the training series as :func:`train` prepared it, its
    grid included, for ``gp.fit``; it takes no part in comparisons.
    """

    theta: HyperParams
    objective: float
    iterations: int
    converged: bool
    seconds: float
    nfev: int
    termination: str
    penalty_evals: int
    series: PreparedSeries = field(repr=False, compare=False)


def map_objective(
    spec: KernelSpec, priors: PriorSpec, theta: HyperParams, ts: TimeSeries
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood plus log prior, and its gradient over the log-space trainables.

    Both come from one factorization.  Raises :class:`IllConditionedModelError`
    if the covariance cannot be factorized.  ``ts`` is the training series,
    prepared for this call's :class:`MapObjective`, the one :func:`train`
    minimizes.
    """
    values = np.array(theta.for_spec(spec))  # theta is checked before the series
    return MapObjective(prepare_series(spec, ts), priors.columns(spec)).at(values)


class MapObjective:
    """The MAP objective of one prepared series; ``columns`` is ``priors.columns(series.spec)``.

    :meth:`at` evaluates it at theta's values.  Called at u, it returns
    :func:`minimize`'s pair, the negated objective and gradient, or ``(inf,
    None)`` where the evaluation fails, and keeps the lowest value returned
    and its u in ``best_value`` and ``best_u`` (None until then).
    """

    def __init__(self, series: PreparedSeries, columns: np.ndarray):
        self.series, self.columns = series, columns
        self.best_value, self.best_u = math.inf, None

    def at(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """:func:`map_objective` at theta's values, finite and > 0, in the order of the spec's trainables."""
        lml, lml_grad = log_marginal_likelihood_and_grad(theta.tolist(), self.series)
        # reading the optimizer's u instead keeps the digest series' iterations and nfev
        # and moves 97 of the 100 by rounding, their means by at most 5.75e-8 relative
        u = np.log(theta)
        return lml + log_prior(self.columns, u), lml_grad + grad_log_prior(self.columns, u)

    def __call__(self, u: np.ndarray) -> tuple[float, np.ndarray | None]:
        with np.errstate(over="ignore"):  # an overflow to inf fails the check
            theta = np.exp(u)
        objective = -math.inf  # a failed evaluation below, as a non-finite value is
        if theta.min() > 0.0 and theta.max() < math.inf:  # False on NaN
            try:
                objective, grad = self.at(theta)
            except (IllConditionedModelError, InvalidHyperparameterError):
                pass
        value = -objective
        if not math.isfinite(value):
            return math.inf, None
        if value < self.best_value:
            self.best_value, self.best_u = value, u.copy()
        return value, -grad


def minimize(fun, u0: np.ndarray, callback=None) -> SimpleNamespace:
    """Minimize ``fun(u) -> (value, gradient)`` from ``u0`` by unbounded L-BFGS.

    The inverse Hessian model is L-BFGS's with every curvature pair kept:
    ``H = gamma P + Q``, where P and Q are the BFGS updates of I and 0 by
    each pair (s, y) in turn, ``X <- W'XW`` with ``W = I - y s'/s'y``,
    plus ``ss'/s'y`` for Q, and gamma is ``s's/s'y`` of the newest pair.
    L-BFGS-B's ``s'y/y'y``, never larger, measures the stiffest curvature
    the last step met, so its model would move along ARD's flat directions
    at a tiny scale.  A pair is skipped, as L-BFGS-B skips it, unless
    ``s'y > eps (-g's)``.  Lines are searched by bracket and zoom with
    L-BFGS-B's constants (:func:`_line_search`); every step taken meets
    the strong Wolfe conditions.  A search that finds no such step resets
    the model to ``H = I`` and searches again along the steepest descent;
    one that fails with no pair kept ends the run with ``ABNORMAL: NO
    STRONG-WOLFE STEP``.
    Each stop message names the test that fired: ``GRAD_TOL`` on the
    largest gradient component, ``DECREASE_TOL`` on the decrease the model
    predicts for the next step, ``-g'd / 2 = g'Hg / 2`` in nats, tested
    before each line search once the model holds a pair (never at the
    start or right after a reset, and at no evaluation's cost), and
    ``MAX_ITERS`` iterations, each read at the call.  ``fun`` returns
    ``(inf, None)`` at a point it cannot evaluate: a failed trial, or a
    failed start that ends the run with ``ABNORMAL: START NOT EVALUATED``.
    Returns ``x``, ``fun``, ``nit``, ``nfev``, ``penalty_evals`` (the failed
    evaluations), ``status`` (0 converged, 1 iteration limit, 2 abnormal)
    and ``message``.  If the final iteration (the evaluations
    since the iterate before the last) met a failure, ``status`` is not 0
    and ``message`` ends in " after a penalty evaluation".  ``callback(x)``,
    if given, is called once per iteration.  ``fun`` may keep the points and
    must not change them; the gradients it returns are kept, not copied.
    """
    max_iters, decrease_tol, gtol = MAX_ITERS, DECREASE_TOL, GRAD_TOL
    x = np.array(u0, dtype=float)
    n = x.size
    f, g = fun(x)
    f, nit, nfev = float(f), 0, 1
    failed, before_last, at_last = int(f == math.inf), 0, 0  # failures in all, by the last two iterates
    # H = gamma P + Q with P and Q stacked in model, so d = -H g = (-gamma, -1) . (Pg, Qg)
    identity = np.eye(n)
    model, weights = np.array([identity, np.zeros_like(identity)]), np.array([-1.0, -1.0])
    pairs = 0
    status, message = (0, _CONVERGED_GRADIENT) if not failed and np.abs(g).max() <= gtol else (None, "")
    if failed:  # a failed start ends the run
        status, message = 2, _FAILED_START
    while status is None:
        d = weights.dot(model.dot(g))
        slope = float(g.dot(d))  # -g'Hg: the model predicts a decrease of -slope / 2
        if pairs and 0.0 < -0.5 * slope <= decrease_tol:
            status, message = 0, _CONVERGED_DECREASE
            break
        found = None
        if slope < 0.0:  # else d is no descent direction
            # the first step is 1 / |d| = 1 / |g|, as L-BFGS-B takes it, then 1
            step = min(1.0 / math.sqrt(float(d.dot(d))), _MAX_STEP) if nit == 0 else 1.0
            found, trials, failures = _line_search(fun, x, f, d, slope, step)
            nfev += trials
            failed += failures
        if found is None:
            if pairs == 0:
                status, message = 2, _NO_STEP
            model[0], model[1], weights[0] = identity, 0.0, -1.0
            pairs = 0
            continue
        x, f_new, g_new, new_slope, step = found
        nit += 1
        before_last, at_last = at_last, failed
        if callback is not None:
            callback(x)
        curvature = (new_slope - slope) * step  # s'y
        if nit >= max_iters:
            status, message = 1, _ITERATION_LIMIT
        # |g|^2 > n gtol^2 rules the gradient test out for one dot product
        elif g_new.dot(g_new) <= n * gtol * gtol and np.abs(g_new).max() <= gtol:
            status, message = 0, _CONVERGED_GRADIENT
        elif curvature > _EPS * -slope * step:  # else skip the update, as L-BFGS-B does
            s, y = d * step, g_new - g
            s_scaled = s / curvature
            w = identity - y[:, None] * s_scaled  # W = I - y s'/s'y
            model = w.T @ model @ w
            model[1] += s[:, None] * s_scaled
            weights[0] = -float(s.dot(s)) / curvature
            pairs += 1
        f, g = f_new, g_new
    if failed > before_last:
        status, message = status or 2, message + " after a penalty evaluation"
    return SimpleNamespace(x=x, fun=f, nit=nit, nfev=nfev, penalty_evals=failed, status=status, message=message)


def _line_search(fun, x: np.ndarray, f0: float, d: np.ndarray, slope: float, step: float):
    """Search from ``x`` along ``d`` for a step that meets the strong Wolfe conditions, trying ``step`` first.

    Nocedal and Wright's bracket and zoom (Algorithms 3.5 and 3.6).  ``f0``
    and ``slope`` < 0 are ``fun``'s value and derivative along ``d`` at
    ``x``.  The best step ``lo`` meets sufficient decrease (at first 0).  A
    trial that fails sufficient decrease, does not lower the value below
    ``lo``'s or cannot be evaluated (``fun`` gives inf) becomes the far end
    ``hi``; any other becomes ``lo``, and the old ``lo`` becomes ``hi`` if
    the new slope points back to it.  Until ``hi`` exists each step is
    ``_EXTRAPOLATE`` times the last; then it is the cubic's minimizer kept
    ``_SAFEGUARD`` of the bracket from either end, or the midpoint if
    ``hi`` failed or the cubic has none.  The bracket only shrinks, so no
    trial reaches a failed step.  Returns ``((x, f, g, slope, step),
    trials, failures)``, counting the evaluations and the failed ones, or
    ``(None, trials, failures)`` once the bracket is narrower than
    ``_XTOL`` of its larger end, an unbracketed step reaches
    ``_MAX_STEP``, or ``_MAX_TRIALS`` trials run out.
    """
    decrease = _SUFFICIENT_DECREASE * slope
    lo, f_lo, g_lo = 0.0, f0, slope
    hi = f_hi = g_hi = None
    failures = 0
    for trial in range(1, _MAX_TRIALS + 1):
        x_new = d * step + x
        f, g = fun(x_new)
        f, g_step = float(f), (float(g.dot(d)) if f < math.inf else math.nan)
        if f <= f0 + step * decrease and abs(g_step) <= -_CURVATURE * slope:
            return (x_new, f, g, g_step, step), trial, failures
        failures += f == math.inf
        if f > f0 + step * decrease or f >= f_lo:  # also a failed trial
            hi, f_hi, g_hi = step, f, g_step
        else:
            if g_step * (step - lo) > 0.0:  # the minimizer lies back toward lo
                hi, f_hi, g_hi = lo, f_lo, g_lo
            lo, f_lo, g_lo = step, f, g_step
        if hi is None:
            if step >= _MAX_STEP:
                break
            step = min(_EXTRAPOLATE * step, _MAX_STEP)
        elif abs(hi - lo) <= _XTOL * max(lo, hi):
            break
        else:
            cubic = _cubic_minimizer(lo, f_lo, g_lo, hi, f_hi, g_hi) if f_hi < math.inf else math.nan
            margin = _SAFEGUARD * abs(hi - lo)
            # NaN, from a failed hi or a cubic without a minimizer, takes the midpoint
            step = min(max(cubic, min(lo, hi) + margin), max(lo, hi) - margin) if cubic == cubic else 0.5 * (lo + hi)
    return None, trial, failures


def _cubic_minimizer(a: float, fa: float, ga: float, b: float, fb: float, gb: float) -> float:
    """The minimizer of the cubic with values ``fa``, ``fb`` and slopes ``ga``, ``gb`` at steps ``a`` and ``b``.

    Nocedal and Wright's (3.59), in Python floats so that a far-off value
    over- or underflows without a warning; NaN where the cubic has no
    real minimizer.
    """
    d1 = ga + gb - 3.0 * (fa - fb) / (a - b)
    radicand = d1 * d1 - ga * gb
    if not radicand >= 0.0:  # also NaN
        return math.nan
    d2 = math.copysign(math.sqrt(radicand), b - a)
    denominator = gb - ga + 2.0 * d2
    return b - (b - a) * (gb + d2 - d1) / denominator if denominator else math.nan


def train(
    spec: KernelSpec,
    priors: PriorSpec | None,
    ts: TimeSeries,
    restarts: int = 1,
) -> TrainResult:
    """Maximize the MAP objective from ``restarts`` starts and return the best hyperparameters found.

    ``restarts`` is an integer >= 1 and ``ts`` at least
    ``MIN_TRAIN_POINTS`` steps long; anything else raises ValueError.  The
    first start is the prior medians, except that log ``tau_sm1`` starts
    at -log(2 pi f), f the frequency of the strongest ``rfft`` bin of y
    above 0, when that lies within 1.96 sqrt(lam) of its prior's nu, and
    log ``s2_noise`` at the log of median(|Y_k|^2 / n) / ln 2 over the bins
    above 0.4 cycles per step (the last bin at n = 5), when that lies
    within ``_NOISE_START_SDS`` sqrt(lam) of its nu.  One
    restart is deterministic: same input bits give the same result bits.
    Restarts after the first perturb the medians.  ``converged`` and
    ``termination`` are the optimizer status and message of the restart
    that produced the returned point; if its iteration budget ran out, or
    its final iteration met a failed evaluation, that point is still returned,
    flagged via ``converged=False``.  If no evaluated point factorized,
    ``theta`` is the prior medians (with a warning), ``objective`` -inf and
    ``converged=False``.
    """
    if not (isinstance(restarts, numbers.Integral) and restarts >= 1):  # rejects 2.5, NaN, "2"
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    start = time.perf_counter()
    # everything the objective needs that does not depend on theta, once per series
    series = prepare_series(spec, ts)
    if series.x.size < MIN_TRAIN_POINTS:
        raise ValueError(f"need at least {MIN_TRAIN_POINTS} observations to train, got {series.x.size}")
    if spec.noise is None:
        raise ValueError("the trained model must include a WN term for the observation noise")
    priors = priors if priors is not None else default_priors()
    objective = MapObjective(series, priors.columns(spec))
    nu, lam = objective.columns[:2]
    starts = [nu.copy()]
    names = spec.trainable_names()
    n = series.y.size
    amplitude = np.abs(np.fft.rfft(series.y))
    if "tau_sm1" in names:  # SM1's period starts at the series' strongest cycle f, in the prior's 95% range
        k = names.index("tau_sm1")
        peak = 1 + int(np.argmax(amplitude[1:]))
        log_tau = -math.log(2.0 * math.pi * np.fft.rfftfreq(n, 1.0 / series.steps_per_year)[peak])
        if abs(log_tau - nu[k]) <= 1.96 * math.sqrt(lam[k]):
            starts[0][k] = log_tau
    # s2_noise starts at the noise level of the bins above 0.4 cycles per step
    # (the last bin alone at n = 5), within _NOISE_START_SDS sqrt(lam) of its
    # nu; their median by sorted, as np.median's first call pages in 0.5 MB more
    k = spec.noise
    band = sorted((amplitude[min(2 * n // 5 + 1, n // 2) :] ** 2).tolist())
    level = (band[(len(band) - 1) // 2] + band[len(band) // 2]) / 2.0 / (n * math.log(2.0))
    if level > 0.0 and abs(math.log(level) - nu[k]) <= _NOISE_START_SDS * math.sqrt(lam[k]):
        starts[0][k] = math.log(level)
    if restarts > 1:
        rng = np.random.default_rng(RESTART_SEED)
        scales = np.sqrt(lam)
        for _ in range(restarts - 1):
            starts.append(nu + rng.normal(0.0, 1.0, size=nu.size) * scales)

    converged, termination = False, "no trial point could be evaluated"
    results = []
    for u_start in starts:
        value_before = objective.best_value
        results.append(minimize(objective, u_start))
        if objective.best_value < value_before:  # this restart now holds the best point
            converged, termination = results[-1].status == 0, results[-1].message

    seconds = time.perf_counter() - start
    if objective.best_u is None:
        # every evaluated point failed to factorize: fall back to the prior medians,
        # not the start, whose tau_sm1 and s2_noise may come from the periodogram;
        # the loop above left best_value at inf and converged False
        warnings.warn("training failed to evaluate the objective anywhere; returning prior medians")
        theta = median_hyperparams(spec, priors)
    else:
        theta = HyperParams.from_log(spec, objective.best_u)
    return TrainResult(
        theta=theta,
        objective=-objective.best_value,
        iterations=sum(result.nit for result in results),
        converged=converged,
        seconds=seconds,
        nfev=sum(result.nfev for result in results),
        termination=termination,
        penalty_evals=sum(result.penalty_evals for result in results),
        series=series,
    )
