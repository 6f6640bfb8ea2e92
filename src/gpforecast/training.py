"""MAP estimation of the kernel hyperparameters.

The objective is the log of prior times marginal likelihood, maximized
over ``u = log(theta)`` so positivity is structural.  :func:`map_objective`
computes it and its gradient from one factorization; :func:`train` hands
its negation to a quasi-Newton optimizer (L-BFGS-B with its built-in line
search).  :func:`minimize` drives L-BFGS-B's compiled step (scipy's
``setulb``) itself: it takes the same iterates as
``scipy.optimize.minimize``, keeps scipy's memo of the last evaluated
point and its ``maxls`` and ``maxfun`` defaults, and skips scipy's
per-evaluation wrapper, which costs about as much as a small
evaluation.  :func:`train` prepares the series and takes the spec's prior
columns once, and each evaluation maps the optimizer's u straight to the
objective and gradient: exp(u), one check that every value is finite and
> 0, the likelihood on the prepared series and the priors on log(exp(u)),
with no :class:`HyperParams` made until the final theta.
:func:`map_objective` prepares its arrays per call and then runs the same
evaluation.  A trial point that fails the check, or whose covariance
cannot be factorized, gets a large finite penalty instead of an error, so
the line search simply backs off; ``TrainResult.penalty_evals`` counts
them.  ``TrainResult.series`` hands the prepared series on to
``gp.fit``.

L-BFGS-B keeps :data:`LBFGS_MEMORY` (20) curvature pairs on every
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
from scipy.optimize import _lbfgsb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

from .gp import IllConditionedModelError, PreparedSeries, log_marginal_likelihood_and_grad, prepare_series
from .kernels import HyperParams, InvalidHyperparameterError, KernelSpec
from .priors import PriorSpec, default_priors, grad_log_prior, log_prior, median_hyperparams

__all__ = ["TrainResult", "map_objective", "train"]

# Finite stand-in for -inf handed to the minimizer when a trial point is
# ill-conditioned; L-BFGS-B copes with a large value better than with inf.
_PENALTY = 1e25

MIN_TRAIN_POINTS = 4

# Curvature pairs L-BFGS-B keeps on every restart (see the module docstring).
LBFGS_MEMORY = 20

# Each restart stops after MAX_ITERS iterations, once the largest gradient
# component is at most GRAD_TOL, or once an iteration's relative reduction
# (f_k - f_{k+1}) / max(|f_k|, |f_{k+1}|, 1) of the minimized f is at most
# OBJECTIVE_TOL (L-BFGS-B's ftol).  A looser OBJECTIVE_TOL changes no
# iterate and only ends the same path earlier.  Being relative, it gives up
# more nats as the objective grows with n: at most 0.0042 against 1e-9 on
# the benchmark series (n <= 336), up to 0.0093 on seeded six-hourly series
# of n = 1461.
MAX_ITERS = 200
GRAD_TOL = 1e-5
OBJECTIVE_TOL = 1e-6

# Seed of the generator that perturbs the starts of restarts after the first.
RESTART_SEED = 0


@dataclass(frozen=True)
class TrainResult:
    """``iterations`` and ``nfev`` are L-BFGS-B's iterations and objective evaluations, summed over restarts.

    ``penalty_evals`` counts the evaluations, summed over restarts, that
    returned the penalty instead of the objective (an ill-conditioned or
    invalid trial point).

    ``termination`` is L-BFGS-B's message for the restart that produced
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
    training series, prepared on each call; :func:`train` prepares them
    once and runs the same evaluation on each trial point.
    """
    return _evaluate(np.array(theta.for_spec(spec)), prepare_series(spec, x, y), priors.columns(spec))


def _evaluate(theta: np.ndarray, series: PreparedSeries, columns: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`map_objective` at theta's values, finite and > 0, in the order of ``series.spec``'s trainables.

    ``columns`` is ``priors.columns(series.spec)``.
    """
    lml, lml_grad = log_marginal_likelihood_and_grad(theta.tolist(), series)
    u = np.log(theta)
    return lml + log_prior(columns, u), lml_grad + grad_log_prior(columns, u)


def minimize(fun, u0: np.ndarray, callback, options: dict) -> SimpleNamespace:
    """Minimize ``fun(u) -> (value, gradient)`` from ``u0`` by unbounded L-BFGS-B.

    Drives scipy's compiled step ``setulb`` as ``scipy.optimize.minimize(fun,
    u0, jac=True, method="L-BFGS-B", callback=callback, options=options)``
    does, with its ``maxls`` (20) and ``maxfun`` (15000) defaults, so it
    evaluates the same points and returns the same ``x``, ``fun``, ``nit``,
    ``nfev``, ``status`` and ``message``.  ``options`` holds ``maxcor``,
    ``maxiter``, ``ftol`` and ``gtol``.  As scipy's memo does, a point equal
    to the last evaluated one gets that evaluation back, uncounted.
    """
    n, m, maxfun = u0.size, options["maxcor"], 15000
    x, f, g = np.array(u0, dtype=float), 0.0, np.zeros(n)
    free, nbd = np.zeros(n), np.zeros(n, np.int32)  # no bounds
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa, task, ln_task = np.zeros(3 * n, np.int32), np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = options["ftol"] / np.finfo(float).eps
    evaluated = b""  # bytes of the last evaluated point
    nit = nfev = 0
    while True:
        _lbfgsb.setulb(
            m, x, free, free, nbd, f, g, factr, options["gtol"], wa, iwa, task, lsave, isave, dsave, 20, ln_task
        )
        if task[0] == 3:  # FG: evaluate at x, which setulb overwrites in place
            point = x.tobytes()
            if point != evaluated:
                evaluated = point
                f, g = fun(x.copy())
                nfev += 1
        elif task[0] == 1:  # NEW_X: an iteration is complete
            nit += 1
            callback(x)
            if nit >= options["maxiter"]:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    status = 0 if task[0] == 4 else 1 if nit >= options["maxiter"] or nfev > maxfun else 2
    message = f"{status_messages[task[0]]}: {task_messages[task[1]]}"
    return SimpleNamespace(x=x, fun=f, nit=nit, nfev=nfev, status=status, message=message)


def train(
    spec: KernelSpec,
    priors: PriorSpec | None,
    x: np.ndarray,
    y: np.ndarray,
    restarts: int = 1,
) -> TrainResult:
    """Maximize the MAP objective from ``restarts`` starts and return the best hyperparameters found.

    ``restarts`` is an integer >= 1; anything else raises ValueError.  The
    first start is the prior medians, so one restart is deterministic: same
    input bits give the same result bits.  ``converged`` and
    ``termination`` are the optimizer status and message of the restart
    that produced the returned point; if its iteration budget ran out, or
    its final iteration met a penalty point, that point is still returned,
    flagged via ``converged=False``.
    """
    if not (isinstance(restarts, numbers.Integral) and restarts >= 1):  # rejects 2.5, NaN, "2"
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < MIN_TRAIN_POINTS:
        raise ValueError(f"need at least {MIN_TRAIN_POINTS} observations to train, got {x.size}")
    if not spec.has("WN"):
        raise ValueError("the trained model must include a WN term for the observation noise")
    priors = priors if priors is not None else default_priors()
    start = time.perf_counter()
    # everything the objective needs that does not depend on theta, once per series
    series = prepare_series(spec, x, y)
    columns = priors.columns(spec)
    nu, lam = columns[:2]
    best_u: np.ndarray | None = None
    best_value = float("inf")  # minimizer convention: value = -objective
    penalty_evals = 0

    def negative_objective(u: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_u, best_value, penalty_evals
        with np.errstate(over="ignore"):  # an overflow to inf fails the check
            theta = np.exp(u)
        objective = -math.inf  # penalized below, as a non-finite value is
        if theta.min() > 0.0 and theta.max() < math.inf:  # False on NaN
            try:
                objective, grad = _evaluate(theta, series, columns)
            except (IllConditionedModelError, InvalidHyperparameterError):
                pass
        value = -objective
        if not math.isfinite(value):
            penalty_evals += 1
            return _PENALTY, np.zeros(u.size)
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

    iterations = nfev = 0
    converged = False
    termination = "no trial point could be evaluated"
    for u_start in starts:
        value_before = best_value
        # penalty_evals at the last two iterates; a penalty's zero gradient makes the
        # line search back off to a step tiny enough to pass the OBJECTIVE_TOL test
        at_iterates = [penalty_evals] * 2

        def new_iterate(_: np.ndarray) -> None:
            at_iterates[:] = [at_iterates[1], penalty_evals]

        result = minimize(
            negative_objective,
            u_start,
            callback=new_iterate,
            options={
                "maxcor": LBFGS_MEMORY,
                "maxiter": MAX_ITERS,
                "ftol": OBJECTIVE_TOL,
                "gtol": GRAD_TOL,
            },
        )
        iterations += int(result.nit)
        nfev += int(result.nfev)
        if best_value < value_before:  # this restart now holds the best point
            penalized = penalty_evals > at_iterates[0]  # a penalty in the final iteration
            converged = result.status == 0 and not penalized
            termination = str(result.message) + (" after a penalty evaluation" if penalized else "")

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
        iterations=iterations,
        converged=converged,
        seconds=seconds,
        nfev=nfev,
        termination=termination,
        penalty_evals=penalty_evals,
        series=series,
    )
