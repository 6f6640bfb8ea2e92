"""MAP estimation of the kernel hyperparameters.

The objective is the log of prior times marginal likelihood, maximized
over ``u = log(theta)`` so positivity is structural.  :func:`map_objective`
computes it and its gradient from one factorization; :func:`train` hands
its negation to :func:`minimize`, an unbounded L-BFGS written here: the
compact inverse-Hessian form of Byrd, Nocedal and Schnabel (1994) over
preallocated arrays, Nocedal and Wright's bracket-and-zoom strong-Wolfe
line search, and L-BFGS-B's constants and stop tests.  It needs no part of
``scipy.optimize``, which a forecast therefore never imports.
:func:`train` prepares the series and takes the spec's prior
columns once, and each evaluation maps the optimizer's u straight to the
objective and gradient: exp(u), one check that every value is finite and
> 0, the likelihood on the prepared series and the priors on log(exp(u)),
with no :class:`HyperParams` made until the final theta.
:func:`map_objective` prepares its arrays per call and then runs the same
evaluation.  A trial point that fails the check, or whose covariance
cannot be factorized, is a failed evaluation, not an error: the line
search takes it as the far end of its bracket and searches short of it,
and :func:`minimize` counts it in ``TrainResult.penalty_evals``.
``TrainResult.series`` hands the prepared series on to ``gp.fit``.

The optimizer keeps :data:`LBFGS_MEMORY` (20) curvature pairs on every
restart, more than either default spec has trainables (13
single-seasonal, 16 double-seasonal), so its quasi-Newton model can span
the whole parameter space.  With scipy's default of 10 it cannot: at an
``OBJECTIVE_TOL`` of 1e-9 the benchmark's 48 monthly series took 2846
evaluations against 2039, the quasi-periodic ones most.

Training starts at the prior medians (the prior means in log space),
which makes a single start deterministic.  Extra restarts perturb the
start with one Normal(0, lam) draw per coordinate (:data:`RESTART_SEED`).
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .gp import IllConditionedModelError, PreparedSeries, log_marginal_likelihood_and_grad, prepare_series
from .kernels import HyperParams, InvalidHyperparameterError, KernelSpec
from .priors import PriorSpec, default_priors, grad_log_prior, log_prior, median_hyperparams

__all__ = ["TrainResult", "map_objective", "train"]

MIN_TRAIN_POINTS = 4

# Curvature pairs the optimizer keeps on every restart (see the module docstring).
LBFGS_MEMORY = 20

# Each restart stops after MAX_ITERS iterations, once the largest gradient
# component is at most GRAD_TOL, or once an iteration's relative reduction
# (f_k - f_{k+1}) / max(|f_k|, |f_{k+1}|, 1) of the minimized f is at most
# OBJECTIVE_TOL (L-BFGS-B's ftol).  A looser OBJECTIVE_TOL changes no
# iterate and only ends the same path earlier.  Being relative, it gives up
# more nats as the objective grows with n: at most 0.0042 against 1e-9 on
# the benchmark series (n <= 336), up to 0.031 on 24 seeded six-hourly
# series of n = 1461.
MAX_ITERS = 200
GRAD_TOL = 1e-5
OBJECTIVE_TOL = 1e-6

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
_CONVERGED_REDUCTION = "CONVERGENCE: RELATIVE REDUCTION OF F <= OBJECTIVE_TOL"
_ITERATION_LIMIT = "STOP: ITERATIONS REACHED MAX_ITERS"
_NO_STEP = "ABNORMAL: NO STRONG-WOLFE STEP"
_FAILED_START = "ABNORMAL: START NOT EVALUATED"

# Seed of the generator that perturbs the starts of restarts after the first.
RESTART_SEED = 0


@dataclass(frozen=True)
class TrainResult:
    """``iterations`` and ``nfev`` are the optimizer's iterations and objective evaluations, summed over restarts.

    ``penalty_evals`` counts the failed evaluations (an ill-conditioned or
    invalid trial point), summed over restarts.

    ``termination`` is the optimizer's message for the restart that produced
    ``theta``, e.g. an ``ABNORMAL`` line-search stop behind ``converged=False``,
    ending in " after a penalty evaluation" if its final iteration met one.

    ``series`` is the training series as :func:`train` prepared it, for
    ``gp.fit``; it takes no part in comparisons.
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
    spec: KernelSpec, priors: PriorSpec, theta: HyperParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood plus log prior, and its gradient over the log-space trainables.

    Both come from one factorization.  Raises :class:`IllConditionedModelError`
    if the covariance cannot be factorized.  ``x`` and ``y`` are the
    training series, x a regular grid, prepared on each call; :func:`train`
    prepares them once and runs the same evaluation on each trial point.
    """
    return _evaluate(np.array(theta.for_spec(spec)), prepare_series(spec, x, y), priors.columns(spec))


def _evaluate(theta: np.ndarray, series: PreparedSeries, columns: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`map_objective` at theta's values, finite and > 0, in the order of ``series.spec``'s trainables.

    ``columns`` is ``priors.columns(series.spec)``.
    """
    lml, lml_grad = log_marginal_likelihood_and_grad(theta.tolist(), series)
    u = np.log(theta)
    return lml + log_prior(columns, u), lml_grad + grad_log_prior(columns, u)


def minimize(fun, u0: np.ndarray, callback=None) -> SimpleNamespace:
    """Minimize ``fun(u) -> (value, gradient)`` from ``u0`` by unbounded L-BFGS.

    The inverse Hessian model is the compact form of Byrd, Nocedal and
    Schnabel (1994) over the last ``LBFGS_MEMORY`` curvature pairs, scaled
    as L-BFGS-B scales it.  Lines are searched by bracket and zoom with
    L-BFGS-B's constants (:func:`_line_search`); every step taken meets
    the strong Wolfe conditions.  A search that finds no such step resets
    the memory and searches again along the steepest descent; one that fails
    without memory ends the run with ``ABNORMAL: NO STRONG-WOLFE STEP``.
    The stop tests are L-BFGS-B's, and each message names the one that
    fired: ``GRAD_TOL`` on the largest gradient component,
    ``OBJECTIVE_TOL`` on an iteration's relative reduction and ``MAX_ITERS``
    iterations, each read at the call.  ``fun`` returns ``(inf, None)`` at a
    point it cannot evaluate: a failed trial, or a failed start that ends
    the run with ``ABNORMAL: START NOT EVALUATED``.  Returns ``x``,
    ``fun``, ``nit``, ``nfev``, ``penalty_evals`` (the failed
    evaluations), ``status`` (0 converged, 1 iteration limit, 2 abnormal)
    and ``message``.  If the final iteration (the evaluations
    since the iterate before the last) met a failure, ``status`` is not 0
    and ``message`` ends in " after a penalty evaluation".  ``callback(x)``,
    if given, is called once per iteration.  ``fun`` may keep the points and
    must not change them; the gradients it returns are kept, not copied.
    """
    m, max_iters, ftol, gtol = LBFGS_MEMORY, MAX_ITERS, OBJECTIVE_TOL, GRAD_TOL
    x = np.array(u0, dtype=float)
    n = x.size
    f, g = fun(x)
    f, nit, nfev = float(f), 0, 1
    failed, before_last, at_last = int(f == math.inf), 0, 0  # failures in all, by the last two iterates
    # Pair k sits in slot k % m: s_k in row k % m of rows, y_k in row m + k % m.
    # r_inv_t is R^-T, with R[i, j] = s_i'y_j if pair i is not newer than pair
    # j (else 0), y_gram is Y'Y and s_dot_y the diagonal D of R.  An empty
    # slot's rows and columns are zero.  The last row of rows holds g.
    rows = np.zeros((2 * m + 1, n))
    r_inv_t, y_gram, s_dot_y = np.zeros((m, m)), np.zeros((m, m)), np.zeros(m)
    products, coefficients = np.zeros(2 * m + 1), np.zeros(2 * m + 1)
    s_g, y_g, s_c, y_c = products[:m], products[m : 2 * m], coefficients[:m], coefficients[m : 2 * m]
    g_row, multiply, subtract = rows[2 * m], np.multiply, np.subtract
    pairs = head = 0
    gamma = 1.0  # the initial inverse Hessian is gamma * I
    status, message = (0, _CONVERGED_GRADIENT) if not failed and np.abs(g).max() <= gtol else (None, "")
    if failed:  # a failed start ends the run
        status, message = 2, _FAILED_START
    while status is None:
        # d = -H g = S R^-T (gamma Y'g - (D + gamma Y'Y) c) + Y gamma c - gamma g, c = R^-1 S'g
        g_row[:] = g
        coefficients[-1] = -gamma
        rows.dot(g, out=products)
        c = s_g.dot(r_inv_t)
        multiply(c, gamma, out=y_c)
        e = y_gram.dot(y_c)
        e += s_dot_y * c
        y_g *= gamma
        subtract(y_g, e, out=e)
        r_inv_t.dot(e, out=s_c)
        d = coefficients.dot(rows)
        slope = float(g.dot(d))
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
            rows.fill(0.0)
            r_inv_t.fill(0.0)
            y_gram.fill(0.0)
            s_dot_y.fill(0.0)
            pairs = head = 0
            gamma = 1.0
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
        elif f - f_new <= ftol * max(abs(f), abs(f_new), 1.0):
            status, message = 0, _CONVERGED_REDUCTION
        elif curvature > _EPS * -slope * step:  # else skip the update, as L-BFGS-B does
            if pairs == m:  # drop the oldest pair: R^-1 of the rest is its block of R^-1
                r_inv_t[head] = 0.0
                r_inv_t[:, head] = 0.0
            y = rows[m + head]
            multiply(d, step, out=rows[head])
            subtract(g_new, g, out=y)
            rows.dot(y, out=products)  # S'y and Y'y
            y_gram[head] = y_g
            y_gram[:, head] = y_g
            s_g *= -1.0 / curvature
            r_inv_t[head] = s_g.dot(r_inv_t)  # the new column of R^-1
            r_inv_t[head, head] = 1.0 / curvature
            s_dot_y[head] = curvature
            gamma = curvature / float(y_g[head])
            head = (head + 1) % m
            pairs = min(pairs + 1, m)
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
        x_new = x + d if step == 1.0 else d * step + x
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
    x: np.ndarray,
    y: np.ndarray,
    restarts: int = 1,
) -> TrainResult:
    """Maximize the MAP objective from ``restarts`` starts and return the best hyperparameters found.

    ``restarts`` is an integer >= 1 and ``x`` a regular grid
    (``gp.prepare_series``); anything else raises ValueError.  The
    first start is the prior medians, so one restart is deterministic: same
    input bits give the same result bits.  ``converged`` and
    ``termination`` are the optimizer status and message of the restart
    that produced the returned point; if its iteration budget ran out, or
    its final iteration met a failed evaluation, that point is still returned,
    flagged via ``converged=False``.
    """
    if not (isinstance(restarts, numbers.Integral) and restarts >= 1):  # rejects 2.5, NaN, "2"
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    start = time.perf_counter()
    # everything the objective needs that does not depend on theta, once per series
    series = prepare_series(spec, x, y)
    if series.x.size < MIN_TRAIN_POINTS:
        raise ValueError(f"need at least {MIN_TRAIN_POINTS} observations to train, got {series.x.size}")
    if not spec.has("WN"):
        raise ValueError("the trained model must include a WN term for the observation noise")
    priors = priors if priors is not None else default_priors()
    columns = priors.columns(spec)
    nu, lam = columns[:2]
    best_u: np.ndarray | None = None
    best_value = math.inf  # minimizer convention: value = -objective

    def negative_objective(u: np.ndarray) -> tuple[float, np.ndarray | None]:
        nonlocal best_u, best_value
        with np.errstate(over="ignore"):  # an overflow to inf fails the check
            theta = np.exp(u)
        objective = -math.inf  # a failed evaluation below, as a non-finite value is
        if theta.min() > 0.0 and theta.max() < math.inf:  # False on NaN
            try:
                objective, grad = _evaluate(theta, series, columns)
            except (IllConditionedModelError, InvalidHyperparameterError):
                pass
        value = -objective
        if not math.isfinite(value):
            return math.inf, None
        if value < best_value:
            best_value = value
            best_u = u.copy()
        return value, -grad

    starts = [nu]
    if restarts > 1:
        rng = np.random.default_rng(RESTART_SEED)
        scales = np.sqrt(lam)
        for _ in range(restarts - 1):
            starts.append(nu + rng.normal(0.0, 1.0, size=nu.size) * scales)

    converged, termination = False, "no trial point could be evaluated"
    results = []
    for u_start in starts:
        value_before = best_value
        results.append(minimize(negative_objective, u_start))
        if best_value < value_before:  # this restart now holds the best point
            converged, termination = results[-1].status == 0, results[-1].message

    seconds = time.perf_counter() - start
    if best_u is None:
        # every evaluated point failed to factorize: fall back to the start; the
        # loop above left best_value at inf and converged False
        warnings.warn("training failed to evaluate the objective anywhere; returning prior medians")
        theta = median_hyperparams(spec, priors)
    else:
        theta = HyperParams.from_log(spec, best_u)
    return TrainResult(
        theta=theta,
        objective=-best_value,
        iterations=sum(result.nit for result in results),
        converged=converged,
        seconds=seconds,
        nfev=sum(result.nfev for result in results),
        termination=termination,
        penalty_evals=sum(result.penalty_evals for result in results),
        series=series,
    )
