"""MAP estimation of the kernel hyperparameters.

The objective is the log of prior times marginal likelihood, maximized
over ``u = log(theta)`` so positivity is structural.  :func:`map_objective`
computes it and its gradient from one factorization; :func:`train` hands
its negation to a quasi-Newton optimizer (L-BFGS-B with its built-in line
search).  A trial point whose covariance cannot be factorized gets a large
finite penalty instead of an error, so the line search simply backs off.

Training starts at the prior medians (the prior means in log space),
which makes a single start deterministic.  Optional extra restarts
perturb the start with one Normal(0, lam) draw per coordinate.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .gp import IllConditionedModelError, log_marginal_likelihood_and_grad
from .kernels import HyperParams, InvalidHyperparameterError, KernelSpec
from .priors import (
    PriorSpec,
    default_priors,
    grad_log_prior,
    log_prior,
    median_hyperparams,
)

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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol <= 0 or self.objective_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class TrainResult:
    """``iterations`` and ``nfev`` are L-BFGS-B's iterations and objective evaluations, summed over restarts.

    ``termination`` is L-BFGS-B's message for the restart that produced
    ``theta``, e.g. an ``ABNORMAL`` line-search stop behind ``converged=False``.
    """

    theta: HyperParams
    objective: float
    iterations: int
    converged: bool
    seconds: float
    nfev: int
    termination: str


def map_objective(
    spec: KernelSpec, priors: PriorSpec, theta: HyperParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood plus log prior, and its gradient over the log-space trainables.

    Both come from one factorization.  Raises :class:`IllConditionedModelError`
    if the covariance cannot be factorized.
    """
    lml, lml_grad = log_marginal_likelihood_and_grad(spec, theta, x, y)
    return lml + log_prior(priors, theta, spec), lml_grad + grad_log_prior(priors, theta, spec)


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
    names = spec.trainable_names()
    template = median_hyperparams(spec, priors)

    start = time.perf_counter()
    best_u: np.ndarray | None = None
    best_value = float("inf")  # minimizer convention: value = -objective

    def negative_objective(u: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_u, best_value
        theta = template.with_log_vector(spec, u)
        try:
            objective, grad = map_objective(spec, priors, theta, x, y)
        except (IllConditionedModelError, InvalidHyperparameterError):
            return _PENALTY, np.zeros(len(names))
        value = -objective
        if not np.isfinite(value):
            return _PENALTY, np.zeros(len(names))
        if value < best_value:
            best_value = value
            best_u = u.copy()
        return value, -grad

    u0 = np.array([priors[name].nu for name in names])
    starts = [u0]
    if config.restarts > 1:
        rng = np.random.default_rng(config.seed)
        scales = np.sqrt([priors[name].lam for name in names])
        for _ in range(config.restarts - 1):
            starts.append(u0 + rng.normal(0.0, 1.0, size=len(names)) * scales)

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
        # every evaluated point failed to factorize; fall back to the start
        warnings.warn("training failed to evaluate the objective anywhere; returning prior medians")
        return TrainResult(
            theta=template,
            objective=float("-inf"),
            iterations=iterations,
            converged=False,
            seconds=seconds,
            nfev=nfev,
            termination=termination,
        )
    theta_map = template.with_log_vector(spec, best_u)
    return TrainResult(
        theta=theta_map,
        objective=-best_value,
        iterations=iterations,
        converged=converged,
        seconds=seconds,
        nfev=nfev,
        termination=termination,
    )
