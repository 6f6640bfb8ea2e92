"""Exact Gaussian-process inference via Cholesky factorization.

The observed series is modelled as jointly Gaussian with zero mean and
covariance ``K(X, X)`` assembled from the kernel composition (the noise
term lives inside the kernel).  The log marginal likelihood has two entry
points: :func:`fit` caches it as ``log_marginal`` next to the factorization,
and :func:`log_marginal_likelihood_and_grad` adds its gradient with respect
to the log-space hyperparameters.  :func:`predict` gives the exact
predictive posterior:

    mean(X*)       = K(X*, X) K(X, X)^-1 y
    latent var(x*) = k(x*, x*) - k(x*, X) K(X, X)^-1 k(X, x*)

where k(x*, x*) excludes the noise term.  The observation variance adds
the noise variance back, which is what forecast scoring needs.

Long lengthscales routinely drive the Gram matrix to the edge of positive
definiteness, so factorization uses an adaptive diagonal jitter: starting
at 1e-8 times the mean diagonal and escalating tenfold up to 1e-2 before
giving up with :class:`IllConditionedModelError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

from .kernels import HyperParams, KernelSpec, build_cross, build_gram, grad_gram, zero_lag_variance

__all__ = [
    "IllConditionedModelError",
    "FitState",
    "PredictiveDistribution",
    "fit",
    "predict",
    "log_marginal_likelihood_and_grad",
]

JITTER_START = 1e-8
JITTER_MAX = 1e-2

_LOG_2PI = math.log(2.0 * math.pi)


class IllConditionedModelError(RuntimeError):
    """Cholesky factorization failed even at the maximum jitter level."""


@dataclass(frozen=True)
class FitState:
    """Cached factorization of one (spec, theta, X, y) instance.

    Immutable; concurrent :func:`predict` calls on one state are safe.
    """

    x_train: np.ndarray
    chol_lower: np.ndarray
    alpha: np.ndarray
    log_marginal: float
    jitter: float


@dataclass(frozen=True)
class PredictiveDistribution:
    """Per-test-point posterior mean and variances.

    ``observation_variance`` is ``latent_variance`` plus the noise
    variance; it is the right scale for scoring observed values.
    """

    mean: np.ndarray
    latent_variance: np.ndarray
    observation_variance: np.ndarray


def _cholesky_with_jitter(gram: np.ndarray) -> tuple[np.ndarray, float]:
    n = gram.shape[0]
    scale = float(np.mean(np.diag(gram)))
    if not np.isfinite(scale) or scale <= 0:
        raise IllConditionedModelError(f"Gram diagonal is invalid (mean {scale!r})")
    mult = JITTER_START
    while True:
        jitter = mult * scale
        try:
            lower = cholesky(gram + jitter * np.eye(n), lower=True)
            return lower, jitter
        except LinAlgError:
            mult *= 10.0
            if mult > JITTER_MAX * 1.0001:
                raise IllConditionedModelError(
                    f"covariance not positive definite even with jitter {JITTER_MAX:g} * mean(diag)"
                ) from None


def fit(spec: KernelSpec, theta: HyperParams, x: np.ndarray, y: np.ndarray) -> FitState:
    """Factorize the training covariance and cache everything prediction needs.

    ``log_marginal`` is log N(y; 0, K(X, X) + jitter I).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValueError(f"x and y must be 1-D and equally long, got {x.shape} and {y.shape}")
    if x.size < 1:
        raise ValueError("need at least one observation")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    gram = build_gram(spec, theta, x)
    lower, jitter = _cholesky_with_jitter(gram)
    alpha = cho_solve((lower, True), y)
    n = x.size
    lml = -0.5 * float(y @ alpha) - float(np.sum(np.log(np.diag(lower)))) - 0.5 * n * _LOG_2PI
    return FitState(
        x_train=x.copy(),
        chol_lower=lower,
        alpha=alpha,
        log_marginal=lml,
        jitter=jitter,
    )


def log_marginal_likelihood_and_grad(
    spec: KernelSpec, theta: HyperParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient from one factorization.

    The gradient over the log-space trainables uses the standard identity
    d lml / d u_k = 0.5 tr[(a a^T - K^-1) dK/du_k] with a = K^-1 y.
    The jitter tracks the mean Gram diagonal, so its dependence on the
    hyperparameters is included: the result is the exact gradient of the
    value actually computed.
    """
    state = fit(spec, theta, x, y)
    n = state.x_train.size
    k_inv = cho_solve((state.chol_lower, True), np.eye(n))
    outer = np.outer(state.alpha, state.alpha) - k_inv
    grads = grad_gram(spec, theta, state.x_train)
    # both factors are symmetric, so the trace is an elementwise sum
    grad = 0.5 * np.einsum("kij,ij->k", grads, outer)
    mean_diag = float(np.mean(zero_lag_variance(spec, theta, state.x_train, include_noise=True)))
    jitter_sensitivity = state.jitter / mean_diag * np.mean(np.diagonal(grads, axis1=1, axis2=2), axis=1)
    grad += 0.5 * float(np.trace(outer)) * jitter_sensitivity
    return state.log_marginal, grad


def predict(
    state: FitState, spec: KernelSpec, theta: HyperParams, x_star: np.ndarray
) -> PredictiveDistribution:
    """Posterior mean and per-point variance at the test points.

    Test points are normally disjoint from the training points.  An exact
    duplicate is allowed: it receives the latent-function posterior at
    that input, i.e. the observed value shrunk toward the mean by the
    noise-to-signal ratio.
    """
    x_star = np.asarray(x_star, dtype=float)
    if x_star.ndim != 1:
        raise ValueError(f"x_star must be 1-D, got shape {x_star.shape}")
    if x_star.size == 0:
        empty = np.empty(0)
        return PredictiveDistribution(mean=empty, latent_variance=empty.copy(), observation_variance=empty.copy())
    cross = build_cross(spec, theta, x_star, state.x_train)
    mean = cross @ state.alpha
    v = solve_triangular(state.chol_lower, cross.T, lower=True)
    latent = zero_lag_variance(spec, theta, x_star) - np.sum(v * v, axis=0)
    if np.any(latent < -1e-10):
        raise IllConditionedModelError(
            f"predictive variance went negative ({float(latent.min()):g}); model is ill-conditioned"
        )
    latent = np.maximum(latent, 0.0)
    noise = theta.get("s2_noise") if spec.has("WN") else 0.0
    return PredictiveDistribution(mean=mean, latent_variance=latent, observation_variance=latent + noise)
