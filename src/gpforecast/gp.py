"""Exact Gaussian-process inference: Cholesky factorization, Levinson on a regular grid.

The observed series is modelled as jointly Gaussian with zero mean and
covariance ``K(X, X)`` assembled from the kernel composition (the noise
term lives inside the kernel).  Both entry points take the series from
:func:`prepare_series`: :func:`fit` factorizes the covariance at the
trained hyperparameters, and :func:`log_marginal_likelihood_and_grad`
gives the log marginal likelihood and its gradient with respect to the
log-space hyperparameters.  :func:`predict` gives the exact
predictive posterior at the next steps :func:`fit` was asked for:

    mean(X*)       = K(X*, X) K(X, X)^-1 y
    latent var(x*) = k(x*, x*) - k(x*, X) K(X, X)^-1 k(X, x*)

where k(x*, x*) excludes the noise term.  The observation variance adds
the noise variance back, which is what forecast scoring needs.

Long lengthscales routinely drive the Gram matrix to the edge of positive
definiteness, so factorization uses an adaptive diagonal jitter: starting
at 1e-8 times the mean diagonal and escalating tenfold up to 1e-2 before
giving up with :class:`IllConditionedModelError`.

A :class:`TimeSeries` carries its grid, step i at x_i = i / steps_per_year
in years, so no other time points can be written down.
:func:`prepare_series` lays it out (n >= 2) and does once what does not
depend on the hyperparameters: the lags (x itself, as x_0 = 0), their
arrays and mean(x^2).  The spec lays out where LIN's and WN's values stand
and which trainables are stationary (``KernelSpec.lin``, ``.noise`` and
``.stationary``).  Each evaluation takes theta's values as a plain
sequence in the spec's order (a trainer's exp(u), checked once) and makes
one :func:`grad_gram` call on the prepared lags, which gives every
stationary partial and, as its last row, the covariance at each lag.

K is a symmetric Toeplitz matrix T (with the jitter) plus LIN's rank-1
slope v v^T, and the objective (:func:`log_marginal_likelihood_and_grad`)
works from T's first column alone: one Levinson-Durbin recursion gives
log det T and g = T^-1 e_0, Gohberg-Semencul products with g give T^-1 y
and T^-1 v, and Sherman-Morrison adds the slope, so an evaluation holds
O(n) floats and makes no Cholesky factorization; without LIN, v = 0.
Levinson is only weakly stable, so it runs only where the noise floor
(s2_noise + jitter) / T_00 clears a bound on its prediction errors E_k
(:data:`LEVINSON_MIN_ERROR_RATIO`): T >= (s2_noise + jitter) I, so every
E_k is too.  Below it the evaluation lays that column out as the Gram
(``kernels.build_gram``, one Fortran-ordered array), factorizes it in
place (a failed try lays it out again) and solves for y, e_0 and v at
once in :func:`_cholesky_solve`, which :func:`fit` calls too.

:func:`fit` takes the trained theta, the prepared series and a horizon
h: x* is the next h steps of the series' grid, so x and x* together are
the grid of n + h steps.  One :func:`grad_gram` call on its lags gives,
as its last row, the Gram's column (bit for bit the objective's) and the
cross-covariance (``kernels.build_cross``: Toeplitz on lags 1 .. n+h-1,
plus LIN's slope), and is the only pass over the terms the final step makes:
``kernels.zero_lag_variance`` sums the terms' variances for the prior
variance from the values :func:`fit` has checked.  :func:`predict`
reuses the factor, so a forecast makes one Cholesky factorization at its
trained hyperparameters, plus one per evaluation that falls back.

The gradient never builds an n-by-n matrix per hyperparameter: each
stationary partial is the dot product of its values on the lags with W's
diagonal sums, one per lag, W = a a^T - K^-1, and K^-1's come in O(n^2)
from g and K^-1 v (Gohberg-Semencul plus Sherman-Morrison); K^-1 is
never formed.  There g_0 T^-1 = G G^T - Z Z^T (Gohberg-Semencul), and as
Z's first column is g reversed, Z Z^T's sums are exactly corr(g, m g),
m = 0 .. n-1: two correlations of g give T^-1's sums (see
_toeplitz_plus_rank1_inverse_sums).  LIN, being rank 2, contributes two
quadratic forms in W.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import Differences, HyperParams, KernelSpec, build_cross, build_gram, grad_gram, zero_lag_variance
from .lapack import LinAlgError, cho_solve, cholesky, levinson, solve_triangular

__all__ = [
    "IllConditionedModelError",
    "TimeSeries",
    "FitState",
    "PredictiveDistribution",
    "PreparedSeries",
    "prepare_series",
    "fit",
    "predict",
    "log_marginal_likelihood_and_grad",
]

JITTER_START = 1e-8
JITTER_MAX = 1e-2
# Below this noise floor, (s2_noise + jitter) / T_00 <= min_k E_k / E_0 (Levinson's
# prediction errors), the regular-grid objective takes the Cholesky path: nearer
# singular, Levinson's rounding error grows 10-300x past the Cholesky factor's
# (checked against a long-double oracle in tests/test_gp.py).
LEVINSON_MIN_ERROR_RATIO = 1e-4

_LOG_2PI = math.log(2.0 * math.pi)


class IllConditionedModelError(RuntimeError):
    """Cholesky factorization failed even at the maximum jitter level."""


@dataclass(frozen=True)
class TimeSeries:
    """An ordered univariate series with a sampling frequency.

    Step i lies at i / ``steps_per_year``, in years.
    """

    values: np.ndarray
    steps_per_year: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"series values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains non-finite values")
        if not np.isfinite(self.steps_per_year) or self.steps_per_year <= 0:
            raise ValueError(f"steps_per_year must be finite and > 0, got {self.steps_per_year!r}")
        if not math.isfinite(values.size / float(self.steps_per_year)):  # training reads the span in years
            raise ValueError(f"steps_per_year {self.steps_per_year!r} is too small: the span in years overflows")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


# plain records are NamedTuples, not frozen dataclasses: a fresh import defines them ten times faster
class FitState(NamedTuple):
    """Cached factorization of one (theta, series) instance and the test points' covariances.

    ``cross`` is k(X*, X) and ``prior_variance`` k(x*, x*) without the
    noise, at the next h steps of the series' grid, h the horizon
    :func:`fit` was given (0: shapes (0, n) and (0,)); ``noise`` is the WN
    variance (0 without WN).  Immutable; concurrent :func:`predict` calls
    on one state are safe.
    """

    chol_lower: np.ndarray
    alpha: np.ndarray
    jitter: float
    cross: np.ndarray
    prior_variance: np.ndarray
    noise: float


class PredictiveDistribution(NamedTuple):
    """Per-test-point posterior mean and variances.

    ``observation_variance`` is ``latent_variance`` plus the noise
    variance; it is the right scale for scoring observed values.
    """

    mean: np.ndarray
    latent_variance: np.ndarray
    observation_variance: np.ndarray


class PreparedSeries(NamedTuple):
    """Everything an objective evaluation on one series under one spec needs that does not depend on theta.

    ``x`` is the series' grid i / ``steps_per_year`` and ``diffs`` its n lags
    x_i - x_0 = x_i, the differences the stationary terms are evaluated on.
    ``index`` is m = 0 .. n-1 and ``lengths`` n - m, the subdiagonals' lengths.
    """

    spec: KernelSpec
    x: np.ndarray
    y: np.ndarray
    steps_per_year: float
    diffs: Differences
    mean_xx: float
    index: np.ndarray
    lengths: np.ndarray


def prepare_series(spec: KernelSpec, ts: TimeSeries) -> PreparedSeries:
    """Lay out the grid of ``ts`` and compute every theta-free array of the objective, once.

    The series needs n >= 2 steps; a shorter one raises ValueError.
    """
    n = len(ts)
    if n < 2:
        raise ValueError(f"the series needs at least 2 steps, got {n}")
    x = np.arange(n, dtype=float) / ts.steps_per_year
    return PreparedSeries(
        spec=spec,
        x=x,
        y=ts.values,
        steps_per_year=float(ts.steps_per_year),
        diffs=Differences.of(spec, x),
        mean_xx=float(np.mean(x * x)),
        index=np.arange(n, dtype=float),
        lengths=np.arange(n, 0, -1, dtype=float),
    )


def _cholesky_solve(column: np.ndarray, v: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(L, jitter, (K + jitter I)^-1 rhs): L is the lower Cholesky factor of K + jitter I, K = build_gram(column, v).

    A failed try overwrote part of K, so each jitter level lays it out again.
    The solve runs after a try succeeds: its errors never escalate the jitter.
    """
    gram = build_gram(column, v)
    diagonal = np.diag(gram).copy()
    with np.errstate(over="ignore"):  # a finite diagonal can overflow its sum; the check below raises
        scale = float(np.mean(diagonal))
    if not np.isfinite(scale) or scale <= 0:
        raise IllConditionedModelError(f"Gram diagonal is invalid (mean {scale!r})")
    mult = JITTER_START
    while True:
        jitter = mult * scale
        np.fill_diagonal(gram, diagonal + jitter)
        try:
            # K is checked finite; Fortran-ordered, LAPACK factorizes it in place
            lower = cholesky(gram)
            break
        except LinAlgError:
            mult *= 10.0
            if mult > JITTER_MAX * 1.0001:
                raise IllConditionedModelError(
                    f"covariance not positive definite even with jitter {JITTER_MAX:g} * mean(diag)"
                ) from None
            gram = build_gram(column, v)
    return lower, jitter, cho_solve(lower, rhs)


def fit(theta: HyperParams, series: PreparedSeries, horizon: int = 0) -> FitState:
    """Factorize the training covariance and lay out the covariances of the next ``horizon`` steps.

    ``series`` comes from :func:`prepare_series` (``TrainResult.series``
    after training); the factor and jitter are, bit for bit, those the
    objective's Cholesky fallback makes at the same theta.  ``horizon`` is
    an integer >= 0 (0 for no test points); anything else raises
    ValueError.  The test points x* are steps n .. n+h-1 of the series'
    grid, and one pass over the grid of n + h steps, whose first n points
    are x bit for bit, gives the Gram's column and the cross-covariance
    (see the module docstring).
    """
    if not (isinstance(horizon, numbers.Integral) and horizon >= 0):  # rejects -1, 2.5, "3"
        raise ValueError(f"horizon must be an integer >= 0, got {horizon!r}")
    spec, x, y, lin = series.spec, series.x, series.y, series.spec.lin
    values = theta.for_spec(spec)
    grid = np.arange(x.size + horizon, dtype=float) / series.steps_per_year  # its lags, as x_0 = 0
    x_star = grid[x.size :]
    column = grad_gram(spec, values, Differences.of(spec, grid))[-1]
    slope = values[lin][1] if lin is not None else 0.0
    cross, prior_variance = build_cross(column, slope, x_star, x), zero_lag_variance(spec, values, x_star)
    lower, jitter, alpha = _cholesky_solve(column[: x.size], math.sqrt(slope) * x, y)
    return FitState(
        chol_lower=lower,
        alpha=alpha,
        jitter=jitter,
        cross=cross,
        prior_variance=prior_variance,
        noise=values[spec.noise] if spec.noise is not None else 0.0,
    )


def log_marginal_likelihood_and_grad(values: Sequence[float], series: PreparedSeries) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient from one solve with the covariance.

    ``series`` is the training series under its spec, from
    :func:`prepare_series`, and ``values`` theta's values in that spec's
    ``trainable_names()`` order, finite and > 0 (``HyperParams.for_spec``,
    or a trainer's exp(u) after its check).

    The gradient over the log-space trainables uses the standard identity
    d lml / d u_k = 0.5 tr[W dK/du_k] with W = a a^T - K^-1 and a = K^-1 y.
    A stationary term's dK/du_k is Toeplitz, so the trace is the dot
    product of its per-lag partial with W's diagonal sums, and K^-1's share
    of them comes in O(n^2) from g = T^-1 e_0 and p = K^-1 v (see
    :func:`_levinson_solve`).  LIN is rank 2, so its traces are the
    quadratic forms 1'W1 and x'Wx.  The jitter tracks the mean Gram diagonal, so its dependence on the
    hyperparameters is included: the result is the exact gradient of the
    value actually computed.
    """
    spec, x, y, lin = series.spec, series.x, series.y, series.spec.lin
    bias, slope = values[lin] if lin is not None else (0.0, 0.0)
    v = math.sqrt(slope) * x  # LIN's slope vector, zero without LIN
    rows = grad_gram(spec, values, series.diffs)  # the one pass over the terms
    partials, column = rows[:-1], rows[-1]
    noise = values[spec.noise] if spec.noise is not None else 0.0
    lml, a, jitter, g, p, beta = _levinson_solve(column, v, y, noise) or _cholesky_grid_solve(column, v, y)
    inv_sums = _toeplitz_plus_rank1_inverse_sums(g, p, beta, series.index, series.lengths)
    # W's diagonal sums: a's autocorrelation minus K^-1's, off-diagonals counted twice
    s = 2.0 * (_correlation(a, a) - inv_sums)
    s[0] *= 0.5
    stationary = spec.stationary
    traces = np.empty(stationary.size)  # tr(W dK/du_k)
    zero_lag = np.empty(stationary.size)  # mean diagonal of dK/du_k
    traces[stationary], zero_lag[stationary] = partials @ s, partials[:, 0]
    if lin is not None:  # rank 2: s2_bias 11^T + s2_lin xx^T; s sums to 1'W1
        x_w_x = float((x @ a) ** 2 - float(v @ p) / slope)  # x'K^-1 x = v'p / s2_lin
        traces[lin] = [bias * float(s.sum()), slope * x_w_x]
        zero_lag[lin] = [bias, slope * series.mean_xx]
    # dk/dlog s2 = k and every other partial vanishes at lag 0, so the
    # zero-lag partials add up to the mean Gram diagonal the jitter tracks
    jitter_sensitivity = jitter / math.fsum(zero_lag.tolist()) * zero_lag
    trace_w = float(a @ a - inv_sums[0])
    grad = 0.5 * traces + 0.5 * trace_w * jitter_sensitivity
    return lml, grad


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails a check below
def _levinson_solve(
    column: np.ndarray, v: np.ndarray, y: np.ndarray, noise: float
) -> tuple[float, np.ndarray, float, np.ndarray, np.ndarray, float] | None:
    """(lml, a = K^-1 y, jitter, g = T^-1 e_0, p = K^-1 v, beta = 1 - v^T p) for K = T + v v^T.

    T is the symmetric Toeplitz matrix of ``column`` (:func:`grad_gram`'s last row)
    plus the base jitter and v = sqrt(s2_lin) x (zero without LIN, when p
    is zero and beta 1).  One Yule-Walker Levinson-Durbin recursion on T's
    column gives the reflection coefficients phi_k, the prediction errors
    E_k = T_00 prod_{j <= k} (1 - phi_j^2), which are the squared diagonal
    of T's Cholesky factor (so log det T = sum log E_k), and the predictor
    that gives g.  Gohberg-Semencul products with g then give T^-1 y and
    T^-1 v, and Sherman-Morrison and the determinant lemma add the slope:
    beta = 1 / (1 + v^T T^-1 v), p = beta T^-1 v, log det K = log det T - log beta.

    Levinson is only weakly stable: near a singular T its error grows well
    past the Cholesky factor's.  So this returns None, and the caller takes
    the Cholesky path, unless the noise floor (``noise`` + jitter) / T_00
    clears :data:`LEVINSON_MIN_ERROR_RATIO` (``noise`` is WN's variance):
    E_k >= lambda_min(T) >= ``noise`` + jitter bounds every E_k / E_0.
    :func:`_levinson`'s checks and the finite checks below guard against
    rounding.  Every E_k > 0 is what a successful Cholesky at the base
    jitter means, so jitter escalation is left to that path.
    """
    n = y.size
    column_0 = float(column[0])
    jitter = JITTER_START * (column_0 + float(v @ v) / n)  # K's mean diagonal
    t0 = column_0 + jitter
    if not (noise + jitter) / t0 >= LEVINSON_MIN_ERROR_RATIO:  # a non-finite t0 fails it too
        return None
    solved = _levinson(column, t0)
    if solved is None:
        return None
    ar, ratio = solved
    g = np.concatenate(([1.0], -ar)) / (t0 * ratio[-1])
    z = np.concatenate(([0.0], g[:0:-1]))
    t_inv_y = _gohberg_semencul_solve(g, z, y)
    log_det = n * math.log(t0) + float(np.log(ratio).sum())
    t_inv_v = _gohberg_semencul_solve(g, z, v)
    denom = 1.0 + float(v @ t_inv_v)
    if not (math.isfinite(denom) and denom > 0.0):
        return None
    p = t_inv_v / denom
    a = t_inv_y - float(v @ t_inv_y) * p
    log_det += math.log(denom)
    lml = -0.5 * float(y @ a) - 0.5 * log_det - 0.5 * n * _LOG_2PI
    if not math.isfinite(lml):
        return None
    return lml, a, jitter, g, p, 1.0 / denom


def _levinson(column: np.ndarray, t0: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The Yule-Walker predictor of the Toeplitz matrix of ``column`` with t0 on its diagonal, and E_k / E_0.

    None when a leading minor is singular, some E_k <= 0, or
    E_k / E_0 falls below :data:`LEVINSON_MIN_ERROR_RATIO`.
    """
    m = column.size - 1
    try:
        # T's first row and column, mirrored, and the Yule-Walker right-hand side
        ar, phi = levinson(np.concatenate((column[m - 1 : 0 : -1], [t0], column[1:m])), column[1:])
    except LinAlgError:  # a singular leading minor
        return None
    phi = phi[1:]  # phi[0] is scipy's placeholder 1
    shrink = 1.0 - phi * phi  # E_k / E_{k-1}: > 0 exactly when |phi_k| < 1, False on NaN
    if not (shrink > 0.0).all():  # some E_k <= 0
        return None
    ratio = shrink.cumprod()  # E_k / E_0 for k = 1 .. m, non-increasing
    if not ratio[-1] >= LEVINSON_MIN_ERROR_RATIO:
        return None
    return ar, ratio


def _cholesky_grid_solve(
    column: np.ndarray, v: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, float, np.ndarray, np.ndarray, float]:
    """:func:`_levinson_solve`'s result from a Cholesky factor of the Gram laid out from ``column``.

    The Gram is T plus v v^T.  One solve with the factor gives
    a = K^-1 y, q = K^-1 e_0 and p = K^-1 v; with
    beta = 1 - v^T p, Sherman-Morrison gives g = T^-1 e_0 = q + p p_0 / beta.
    K positive definite means beta > 0; its failing means rounding has
    swamped the solve.
    """
    rhs = np.zeros((y.size, 3), order="F")
    rhs[:, 0], rhs[0, 1], rhs[:, 2] = y, 1.0, v
    lower, jitter, solved = _cholesky_solve(column, v, rhs)
    a, q, p = solved.T
    beta = 1.0 - float(v @ p)
    if not (np.isfinite(beta) and beta > 0.0):
        raise IllConditionedModelError(f"rank-1 update of the Toeplitz part is not positive (beta {beta!r})")
    g = q + (p[0] / beta) * p
    lml = -0.5 * float(y @ a) - float(np.sum(np.log(np.diag(lower)))) - 0.5 * y.size * _LOG_2PI
    return lml, a, jitter, g, p, beta


def _correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_m a[m + l] b[m]`` for l = 0 .. n-1."""
    return np.correlate(a, b, "full")[a.size - 1 :]


def _gohberg_semencul_solve(g: np.ndarray, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T^-1 b = (G (G^T b) - Z (Z^T b)) / g_0, G and Z lower-triangular Toeplitz with first columns g and z."""
    n = b.size
    return (np.convolve(g, _correlation(b, g))[:n] - np.convolve(z, _correlation(b, z))[:n]) / g[0]


def _toeplitz_plus_rank1_inverse_sums(
    g: np.ndarray, p: np.ndarray, beta: float, index: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Subdiagonal sums l = 0 .. n-1 of K^-1, for K = T + v v^T, from g = T^-1 e_0, p = K^-1 v and beta = 1 - v^T p.

    T is symmetric Toeplitz (with the jitter), p is zero when v is, ``index`` is
    m = 0 .. n-1 and ``lengths`` n - m.  Sherman-Morrison gives
    K^-1 = T^-1 - p p^T / beta, Gohberg-Semencul T^-1 = (G G^T - Z Z^T) / g_0,
    G and Z lower-triangular Toeplitz with first columns g and
    z = (0, g_{n-1}, ..., g_1).  With C such a matrix of c, C C^T's
    subdiagonal l sums to S(c)_l = sum_m (n - l - m) c_m c_{m+l}, and
    S(z) = corr(g, m g) exactly: z_m = g_{n-m}, so k = n - l - m turns each
    term into k g_k g_{k+l}.  Hence S(g) - S(z) = (n - l) corr(g, g) -
    2 corr(g, m g), two O(n^2) correlations.  T positive definite means
    g_0 > 0; its failing means rounding has swamped the solve.
    """
    g0 = float(g[0])
    if not (math.isfinite(g0) and g0 > 0.0):
        raise IllConditionedModelError(f"inverse of the Toeplitz part is not positive (g0 {g0!r})")
    sums = (lengths * _correlation(g, g) - 2.0 * _correlation(g, index * g)) / g0
    return sums - _correlation(p, p) / beta


def predict(state: FitState) -> PredictiveDistribution:
    """Posterior mean and per-point variance at the next steps :func:`fit` laid out.

    Those continue the series' grid, so none coincides with a training
    point: the latent variance is k(x*, x*) - k(x*, X) K^-1 k(X, x*), and
    the observation variance adds the noise back.
    """
    cross = state.cross
    mean = cross @ state.alpha
    v = solve_triangular(state.chol_lower, cross.T)
    latent = state.prior_variance - np.sum(v * v, axis=0)
    if np.any(latent < -1e-10):
        raise IllConditionedModelError(
            f"predictive variance went negative ({float(latent.min()):g}); model is ill-conditioned"
        )
    latent = np.maximum(latent, 0.0)
    return PredictiveDistribution(mean=mean, latent_variance=latent, observation_variance=latent + state.noise)
