"""MAP estimation of the kernel hyperparameters.

The objective is the log of prior times marginal likelihood, maximized
over ``u = log(theta)`` so positivity is structural.  :func:`map_objective`
computes it and its gradient from one factorization; :func:`train` hands
its negation to a quasi-Newton optimizer (L-BFGS-B with its built-in line
search).  :func:`train` prepares the series and takes the spec's prior
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

Training starts at the prior medians (the prior means in log space),
which makes a single start deterministic.  Optional extra restarts
perturb the start with one Normal(0, lam) draw per coordinate.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .gp import IllConditionedModelError, PreparedSeries, log_marginal_likelihood_and_grad, prepare_series
from .kernels import HyperParams, InvalidHyperparameterError, KernelSpec
from .priors import PriorSpec, default_priors, grad_log_prior, log_prior, median_hyperparams

__all__ = ["TrainConfig", "TrainResult", "map_objective", "train"]

# Finite stand-in for -inf handed to the minimizer when a trial point is
# ill-conditioned; L-BFGS-B copes with a large value better than with inf.
_PENALTY = 1e25

MIN_TRAIN_POINTS = 4


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings.

    ``grad_tol`` stops on the max projected-gradient component,
    ``objective_tol`` on the relative objective change.  ``seed`` only
    matters for ``restarts > 1``.
    """

    max_iters: int = 200
    grad_tol: float = 1e-5
    objective_tol: float = 1e-9
    restarts: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        # each test is False on NaN
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not (0 < self.grad_tol < math.inf and 0 < self.objective_tol < math.inf):
            raise ValueError("tolerances must be finite and > 0")
        if not self.restarts >= 1:
            raise ValueError("restarts must be >= 1")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TrainResult:
    """``iterations`` and ``nfev`` are L-BFGS-B's iterations and objective evaluations, summed over restarts.

    ``penalty_evals`` counts the evaluations, summed over restarts, that
    returned the penalty instead of the objective (an ill-conditioned or
    invalid trial point).

    ``termination`` is L-BFGS-B's message for the restart that produced
    ``theta``, e.g. an ``ABNORMAL`` line-search stop behind ``converged=False``.

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


def train(
    spec: KernelSpec,
    priors: PriorSpec | None,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Maximize the MAP objective and return the best hyperparameters found.

    Deterministic for ``restarts == 1``: same input bits give the same
    result bits.  ``converged`` and ``termination`` are the optimizer status
    and message of the restart that produced the returned point; if its
    iteration budget ran out, that point is still returned, flagged via
    ``converged=False``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < MIN_TRAIN_POINTS:
        raise ValueError(f"need at least {MIN_TRAIN_POINTS} observations to train, got {x.size}")
    if not spec.has("WN"):
        raise ValueError("the trained model must include a WN term for the observation noise")
    priors = priors if priors is not None else default_priors()
    config = config if config is not None else TrainConfig()
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
    if config.restarts > 1:
        rng = np.random.default_rng(config.seed)
        scales = np.sqrt(lam)
        for _ in range(config.restarts - 1):
            starts.append(nu + rng.normal(0.0, 1.0, size=nu.size) * scales)

    iterations = nfev = 0
    converged = False
    termination = "no trial point could be evaluated"
    for u_start in starts:
        value_before = best_value
        result = minimize(
            negative_objective,
            u_start,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": config.max_iters,
                "ftol": config.objective_tol,
                "gtol": config.grad_tol,
            },
        )
        iterations += int(result.nit)
        nfev += int(result.nfev)
        if best_value < value_before:  # this restart now holds the best point
            converged = result.status == 0
            termination = str(result.message)

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
