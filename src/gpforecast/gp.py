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

On a regular grid :func:`build_gram` returns one Fortran-ordered array,
LAPACK's layout, and the Cholesky factorization overwrites it (a failed
try rebuilds it), so one evaluation owns one n-by-n array.  The gradient
never builds an n-by-n matrix per hyperparameter: each stationary partial
is the dot product of its values on the differences (from
:func:`grad_gram`) with the matching sums of W = a a^T - K^-1.  On a
regular time grid those are W's diagonal sums, one per lag, and K is a
symmetric Toeplitz matrix plus LIN's rank-1 slope, so K^-1's diagonal
sums come in O(n^2) from two triangular solves with the factor
(Gohberg-Semencul plus Sherman-Morrison) and K^-1 is never formed.  On
other inputs LAPACK ``dpotri`` overwrites the factor with K^-1.  LIN,
being rank 2, contributes two quadratic forms in W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotri

from .kernels import TERM_PARAMS, HyperParams, KernelSpec, build_cross, build_gram, grad_gram
from .kernels import regular_lags, zero_lag_variance

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


def _cholesky_with_jitter(spec: KernelSpec, theta: HyperParams, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K(x, x) + jitter I, factorized where the Gram was built."""
    gram = build_gram(spec, theta, x)
    diagonal = np.diag(gram).copy()
    scale = float(np.mean(diagonal))
    if not np.isfinite(scale) or scale <= 0:
        raise IllConditionedModelError(f"Gram diagonal is invalid (mean {scale!r})")
    mult = JITTER_START
    while True:
        jitter = mult * scale
        np.fill_diagonal(gram, diagonal + jitter)
        try:
            # build_gram has checked that gram is finite; on a regular grid it is
            # Fortran-ordered, so LAPACK factorizes it in place
            return cholesky(gram, lower=True, overwrite_a=True, check_finite=False), jitter
        except LinAlgError:
            mult *= 10.0
            if mult > JITTER_MAX * 1.0001:
                raise IllConditionedModelError(
                    f"covariance not positive definite even with jitter {JITTER_MAX:g} * mean(diag)"
                ) from None
            gram = build_gram(spec, theta, x)  # the failed try overwrote part of it


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
    lower, jitter = _cholesky_with_jitter(spec, theta, x)
    alpha = cho_solve((lower, True), y, check_finite=False)
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
    d lml / d u_k = 0.5 tr[W dK/du_k] with W = a a^T - K^-1 and a = K^-1 y.
    On a regular grid a stationary term's dK/du_k is Toeplitz, so the trace
    is the dot product of its per-lag partial with W's diagonal sums, and
    K^-1's share of them comes from the factor in O(n^2) without inverting
    it; on an irregular grid it is a sum over the pairs i >= j of W_ij times
    the partial at x_i - x_j, off-diagonal pairs counted twice, with K^-1
    from LAPACK ``dpotri``.
    LIN is rank 2, so its traces are the quadratic forms 1'W1 and x'Wx.
    The jitter tracks the mean Gram diagonal, so its dependence on the
    hyperparameters is included: the result is the exact gradient of the
    value actually computed.
    """
    state = fit(spec, theta, x, y)
    x, a = state.x_train, state.alpha
    slope = theta.get("s2_lin") if spec.has("LIN") else 0.0
    lags = regular_lags(x)
    if lags is None:  # every pair i >= j once, off-diagonal pairs counted twice
        # dpotri writes the lower triangle of K^-1 over the factor, which this
        # state no longer needs
        inv_lower, info = dpotri(state.chol_lower, lower=1, overwrite_c=1)
        if info != 0:
            raise IllConditionedModelError(f"inverting the covariance failed (LAPACK dpotri info {info})")
        i, j = np.tril_indices(x.size)
        d, s = x[i] - x[j], np.where(i == j, 1.0, 2.0) * (a[i] * a[j] - inv_lower[i, j])
        trace_inv = float(np.trace(inv_lower))
        x_inv_x = float(x @ dsymv(1.0, inv_lower, x, lower=1)) if slope else 0.0
    else:  # W's diagonal sums: a's autocorrelation minus K^-1's, off-diagonals counted twice
        inv_sums, v_inv_v = _toeplitz_plus_rank1_inverse_sums(state.chol_lower, math.sqrt(slope) * x)
        d, s = lags, 2.0 * (_correlation(a, a) - inv_sums)
        s[0] *= 0.5
        trace_inv = float(inv_sums[0])
        x_inv_x = v_inv_v / slope if slope else 0.0
    names = spec.trainable_names()
    stationary = np.array([name not in TERM_PARAMS["LIN"] for name in names])
    partials = grad_gram(spec, theta, d)
    traces = np.empty(len(names))  # tr(W dK/du_k)
    zero_lag = np.empty(len(names))  # mean diagonal of dK/du_k
    traces[stationary], zero_lag[stationary] = partials @ s, partials[:, 0]  # d[0] is lag 0
    if spec.has("LIN"):  # rank 2: s2_bias 11^T + s2_lin xx^T; s sums to 1'W1 on either path
        bias = theta.get("s2_bias")
        x_w_x = float((x @ a) ** 2 - x_inv_x)
        traces[~stationary] = [bias * float(np.sum(s)), slope * x_w_x]
        zero_lag[~stationary] = [bias, slope * float(np.mean(x * x))]
    # dk/dlog s2 = k and every other partial vanishes at lag 0, so the
    # zero-lag partials add up to the mean Gram diagonal the jitter tracks
    jitter_sensitivity = state.jitter / math.fsum(zero_lag) * zero_lag
    trace_w = float(a @ a - trace_inv)
    grad = 0.5 * traces + 0.5 * trace_w * jitter_sensitivity
    return state.log_marginal, grad


def _correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_m a[m + l] b[m]`` for l = 0 .. n-1."""
    return np.correlate(a, b, "full")[a.size - 1 :]


def _triangular_toeplitz_gram_sums(c: np.ndarray) -> np.ndarray:
    """Subdiagonal sums of C C^T, C lower-triangular Toeplitz with first column c.

    Subdiagonal l sums to ``sum_m (n - l - m) c[m] c[m + l]``.
    """
    n = c.size
    return np.arange(n, 0, -1) * _correlation(c, c) - _correlation(c, np.arange(n) * c)


def _toeplitz_plus_rank1_inverse_sums(lower: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Subdiagonal sums l = 0 .. n-1 of K^-1 and v^T K^-1 v, for K = T + v v^T = lower lower^T.

    T is symmetric Toeplitz (with the jitter); v may be zero.  Two triangular
    solves with the factor replace the O(n^3) inverse.  With p = K^-1 v and
    beta = 1 - v^T p, Sherman-Morrison gives K^-1 = T^-1 - p p^T / beta, so
    g = T^-1 e_0 = K^-1 e_0 + p p_0 / beta.  Gohberg-Semencul gives
    T^-1 = (G G^T - Z Z^T) / g_0, G and Z lower-triangular Toeplitz with
    first columns g and z = (0, g_{n-1}, ..., g_1), so each O(n^2) sum is a
    correlation of two vectors.  T and K positive definite mean g_0 > 0 and
    beta > 0; either failing means rounding has swamped the solve.
    """
    n = v.size
    rhs = np.zeros((n, 2), order="F")
    rhs[0, 0], rhs[:, 1] = 1.0, v
    q, p = cho_solve((lower, True), rhs, check_finite=False).T
    v_inv_v = float(v @ p)
    beta = 1.0 - v_inv_v
    if not (np.isfinite(beta) and beta > 0.0):
        raise IllConditionedModelError(f"rank-1 update of the Toeplitz part is not positive (beta {beta!r})")
    g = q + (p[0] / beta) * p
    if not (np.isfinite(g[0]) and g[0] > 0.0):
        raise IllConditionedModelError(f"inverse of the Toeplitz part is not positive (g0 {g[0]!r})")
    z = np.concatenate(([0.0], g[:0:-1]))
    sums = (_triangular_toeplitz_gram_sums(g) - _triangular_toeplitz_gram_sums(z)) / g[0]
    return sums - _correlation(p, p) / beta, v_inv_v


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
    v = solve_triangular(state.chol_lower, cross.T, lower=True, check_finite=False)
    latent = zero_lag_variance(spec, theta, x_star) - np.sum(v * v, axis=0)
    if np.any(latent < -1e-10):
        raise IllConditionedModelError(
            f"predictive variance went negative ({float(latent.min()):g}); model is ill-conditioned"
        )
    latent = np.maximum(latent, 0.0)
    noise = theta.get("s2_noise") if spec.has("WN") else 0.0
    return PredictiveDistribution(mean=mean, latent_variance=latent, observation_variance=latent + noise)
