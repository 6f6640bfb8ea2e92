"""Independent reference implementations used only as test oracles.

Everything here is written from the closed-form definitions with scalar
``math`` calls or dense numpy linear algebra, deliberately avoiding the
library's own evaluation paths.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import lognorm, norm

# ---------------------------------------------------------------------------
# scalar kernel formulas
# ---------------------------------------------------------------------------


def rbf_value(s2: float, ell: float, x1: float, x2: float) -> float:
    return s2 * math.exp(-((x1 - x2) ** 2) / (2.0 * ell**2))


def periodic_value(s2: float, ell: float, period: float, x1: float, x2: float) -> float:
    return s2 * math.exp(-2.0 * math.sin(math.pi * abs(x1 - x2) / period) ** 2 / ell**2)


def linear_value(s2_bias: float, s2_slope: float, x1: float, x2: float) -> float:
    return s2_bias + s2_slope * x1 * x2


def sm_value(s2: float, ell: float, tau: float, x1: float, x2: float) -> float:
    return s2 * math.exp(-((x1 - x2) ** 2) / (2.0 * ell**2)) * math.cos((x1 - x2) / tau)


def wn_value(s2: float, x1: float, x2: float) -> float:
    return s2 if x1 == x2 else 0.0


def composition_value(spec, theta, x1: float, x2: float, include_noise: bool = True) -> float:
    """Sum the enabled terms using the scalar formulas above."""
    total = 0.0
    for term in spec.terms:
        if term.kind == "WN" and not include_noise:
            continue
        if term.kind == "RBF":
            total += rbf_value(theta.s2_rbf, theta.ell_rbf, x1, x2)
        elif term.kind == "PER":
            total += periodic_value(theta.s2_per, theta.ell_per, term.period, x1, x2)
        elif term.kind == "PER2":
            total += periodic_value(theta.s2_per2, theta.ell_per2, term.period, x1, x2)
        elif term.kind == "LIN":
            total += linear_value(theta.s2_bias, theta.s2_lin, x1, x2)
        elif term.kind == "SM1":
            total += sm_value(theta.s2_sm1, theta.ell_sm1, theta.tau_sm1, x1, x2)
        elif term.kind == "SM2":
            total += sm_value(theta.s2_sm2, theta.ell_sm2, theta.tau_sm2, x1, x2)
        elif term.kind == "WN":
            total += wn_value(theta.s2_noise, x1, x2)
        else:
            raise AssertionError(term.kind)
    return total


# ---------------------------------------------------------------------------
# dense covariance matrices, pair by pair
# ---------------------------------------------------------------------------


def dense_gram(spec, theta, x: np.ndarray) -> np.ndarray:
    """K(x, x) with the noise, from every pair's difference x_i - x_j: no lags, no Toeplitz layout."""
    return _pairwise_covariance(spec, theta, x, x, noise=True)


def dense_cross(spec, theta, x_star: np.ndarray, x: np.ndarray) -> np.ndarray:
    """k(x*, x) without the noise (prediction targets the latent function), pair by pair."""
    return _pairwise_covariance(spec, theta, x_star, x, noise=False)


def _pairwise_covariance(spec, theta, a: np.ndarray, b: np.ndarray, noise: bool) -> np.ndarray:
    """Each term of the spec at every pair (a_i, b_j): kernels.term_parts' value, or LIN's s2_bias + s2_lin a_i b_j."""
    from gpforecast.kernels import TERM_PARAMS, Differences, term_parts

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d = Differences.of(spec, np.subtract.outer(a, b))
    total = np.zeros((a.size, b.size))
    for term in spec.terms:
        p = [getattr(theta, name) for name in TERM_PARAMS[term.kind]]
        if term.kind == "LIN":
            total += linear_value(p[0], p[1], np.multiply.outer(a, b), 1.0)
        elif noise or term.kind != "WN":
            total += term_parts(term, p, d)[0]
    return total


def two_pass_prior_variance(spec, theta, x_star: np.ndarray) -> np.ndarray:
    """k(x*, x*) without the noise, from a second pass over the terms at one zero difference.

    ``grad_gram`` at d = 0 gives each stationary term's value row; those
    are summed in term order without WN, with LIN's s2_bias + s2_lin x*^2
    in LIN's place.  ``kernels.zero_lag_variance`` sums the variances
    instead, and must keep these bits.
    """
    from gpforecast.kernels import TERM_PARAMS, Differences, grad_gram

    at_zero = grad_gram(spec, theta.values, Differences.of(spec, np.zeros(1)))[:, 0]
    variance, row = np.zeros(len(x_star)), 0
    for term in spec.terms:
        if term.kind == "LIN":
            variance += theta.s2_bias + theta.s2_lin * (x_star * x_star)
            continue
        if term.kind != "WN":
            variance += at_zero[row]
        row += len(TERM_PARAMS[term.kind])
    return variance


# ---------------------------------------------------------------------------
# dense-inverse multivariate-normal oracle
# ---------------------------------------------------------------------------


def dense_log_mvn(cov: np.ndarray, y: np.ndarray) -> float:
    """log N(y; 0, cov) via explicit inverse and determinant."""
    n = len(y)
    inv = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return float(-0.5 * (y @ inv @ y) - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi))


def longdouble_log_mvn(cov: np.ndarray, y: np.ndarray) -> float:
    """log N(y; 0, cov) via a Cholesky factorization carried out in ``np.longdouble``.

    ``cov`` is taken as given (float64, jitter included); only the
    arithmetic is extended.  On x86-64, long double's 64-bit mantissa
    puts its rounding about 2000 times below float64's.
    """
    n = len(y)
    lower = _longdouble_cholesky(cov)
    w = np.zeros(n, dtype=np.longdouble)
    for i in range(n):  # w = lower^-1 y
        w[i] = (np.longdouble(y[i]) - lower[i, :i] @ w[:i]) / lower[i, i]
    log_2pi = np.log(2 * np.longdouble(np.pi))
    return float(-0.5 * (w @ w) - np.sum(np.log(np.diag(lower))) - 0.5 * n * log_2pi)


def longdouble_inverse_diagonal_sums(cov: np.ndarray) -> np.ndarray:
    """Sums of the subdiagonals l = 0 .. n-1 of cov^-1, in ``np.longdouble`` arithmetic.

    With cov = L L^T and M = L^-1, cov^-1 = M^T M, so subdiagonal l sums
    to sum_k sum_i M[k, i + l] M[k, i], the lag-l autocorrelation of M's
    rows summed over the rows.
    """
    m = _longdouble_inverse_factor(cov)
    n = len(m)
    return sum(np.correlate(row, row, "full")[n - 1 :] for row in m)


def longdouble_lml_gradient(spec, theta, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of log N(y; 0, K) over the log trainables, from K^-1 in ``np.longdouble`` arithmetic.

    K is :func:`dense_gram` of the grid x plus the base jitter, JITTER_START
    times its mean diagonal.  With a = K^-1 y and W = a a^T - K^-1, the
    partial over u_k is 0.5 tr(W dK_k) plus the jitter's share,
    0.5 tr(W) JITTER_START mean(diag dK_k).  A stationary term's dK_k is the
    Toeplitz matrix of its ``grad_gram`` row on the lags; LIN's are
    s2_bias 1 1^T and s2_lin x x^T.
    """
    from scipy.linalg import toeplitz

    from gpforecast.gp import JITTER_START
    from gpforecast.kernels import TERM_PARAMS, Differences, grad_gram

    gram = dense_gram(spec, theta, x)
    m = _longdouble_inverse_factor(gram + JITTER_START * float(np.mean(np.diag(gram))) * np.eye(len(x)))
    inverse = m.T @ m
    a = inverse @ np.asarray(y, dtype=np.longdouble)
    w = np.outer(a, a) - inverse
    rows = iter(grad_gram(spec, theta.values, Differences.of(spec, x - x[0])))
    partials = []
    for term in spec.terms:
        if term.kind == "LIN":
            partials += [theta.s2_bias * np.ones((len(x), len(x))), theta.s2_lin * np.outer(x, x)]
        else:
            partials += [toeplitz(next(rows)) for _ in TERM_PARAMS[term.kind]]
    jitter_share = 0.5 * np.trace(w) * JITTER_START
    return np.array([float(0.5 * np.sum(w * dk) + jitter_share * np.mean(np.diag(dk))) for dk in partials])


def _longdouble_inverse_factor(cov: np.ndarray) -> np.ndarray:
    """L^-1 for cov = L L^T, in ``np.longdouble``, so that cov^-1 = L^-T L^-1."""
    lower = _longdouble_cholesky(cov)
    n = len(lower)
    m = np.zeros_like(lower)
    for i in range(n):  # row i of L^-1 from the rows before it
        m[i, : i + 1] = -(lower[i, :i] @ m[:i, : i + 1])
        m[i, i] += 1
        m[i, : i + 1] /= lower[i, i]
    return m


def _longdouble_cholesky(cov: np.ndarray) -> np.ndarray:
    a = np.asarray(cov, dtype=np.longdouble)
    lower = np.zeros_like(a)
    for j in range(len(a)):  # column j of the factor from the columns before it
        col = a[j:, j] - lower[j:, :j] @ lower[j, :j]
        assert col[0] > 0
        lower[j, j] = np.sqrt(col[0])
        lower[j + 1 :, j] = col[1:] / lower[j, j]
    return lower


def dense_posterior(
    cov_train: np.ndarray, cov_cross: np.ndarray, prior_var: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and per-point latent variance via explicit inverse."""
    inv = np.linalg.inv(cov_train)
    mean = cov_cross @ inv @ y
    latent = prior_var - np.einsum("ij,jk,ik->i", cov_cross, inv, cov_cross)
    return mean, latent


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def central_difference(f, u: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    u = np.asarray(u, dtype=float)
    grad = np.empty(u.size)
    for k in range(u.size):
        up = u.copy()
        up[k] += h
        down = u.copy()
        down[k] -= h
        grad[k] = (f(up) - f(down)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# quasi-Newton directions
# ---------------------------------------------------------------------------


def lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g by the L-BFGS two-loop recursion over every curvature pair (s, y) in ``pairs``, oldest first.

    Nocedal and Wright's Algorithm 7.4, with the initial inverse Hessian
    gamma I, gamma = s's / s'y of the newest pair (1 with no pair).
    """
    q = np.array(g, dtype=float)
    alphas = []
    for s, y in reversed(pairs):
        alpha = float(s @ q) / float(s @ y)
        q -= alpha * y
        alphas.append(alpha)
    gamma = float(pairs[-1][0] @ pairs[-1][0]) / float(pairs[-1][0] @ pairs[-1][1]) if pairs else 1.0
    r = gamma * q
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - float(y @ r) / float(s @ y)) * s
    return -r


# ---------------------------------------------------------------------------
# scoring oracles
# ---------------------------------------------------------------------------


def crps_by_quadrature(y: float, mu: float, sigma: float) -> float:
    """Integrate (F(z) - 1{z >= y})^2 over [mu - 10 sigma, mu + 10 sigma]."""
    lo, hi = mu - 10.0 * sigma, mu + 10.0 * sigma
    assert lo < y < hi, "observation must lie inside the quadrature window"

    def integrand(z: float) -> float:
        cdf = float(ndtr((z - mu) / sigma))
        indicator = 1.0 if z >= y else 0.0
        return (cdf - indicator) ** 2

    below, _ = quad(integrand, lo, y, limit=200)
    above, _ = quad(integrand, y, hi, limit=200)
    return below + above


def gaussian_logpdf_mean(y: np.ndarray, mu: np.ndarray, sigma2: np.ndarray) -> float:
    return float(np.mean(norm.logpdf(y, loc=mu, scale=np.sqrt(sigma2))))


def lognormal_logpdf(theta: float, nu: float, lam: float) -> float:
    return float(lognorm.logpdf(theta, s=math.sqrt(lam), scale=math.exp(nu)))


# ---------------------------------------------------------------------------
# synthetic series generators (seeded, shared by module and acceptance tests)
# ---------------------------------------------------------------------------


def random_grid(rng, n: int) -> np.ndarray:
    """A regular grid x0 + arange(n) / s, x0 drawn from [0, 4) and s, the steps per unit, from [0.5, 12)."""
    return rng.uniform(0.0, 4.0) + np.arange(n) / rng.uniform(0.5, 12.0)


def white_noise_series(seed: int, n: int = 100) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def sine_component(n: int, steps_per_year: float = 12.0, amplitude: float = 1.0) -> np.ndarray:
    t = np.arange(n) / steps_per_year
    return amplitude * np.sin(2.0 * math.pi * t)


def standardize(values: np.ndarray) -> np.ndarray:
    return (values - values.mean()) / values.std()


def random_hyperparams(spec, priors, rng, clip_sigmas: float = 2.0):
    """Draw hyperparameters from the priors, clipped to +-clip_sigmas in log space."""
    from gpforecast.kernels import HyperParams

    names = spec.trainable_names()
    u = np.array(
        [
            priors[name].nu
            + np.clip(rng.standard_normal(), -clip_sigmas, clip_sigmas) * math.sqrt(priors[name].lam)
            for name in names
        ]
    )
    return HyperParams.from_log(spec, u)


def replace(theta, **named: float):
    """A copy of the HyperParams ``theta`` with the named trainables set to new values, each checked when made."""
    from gpforecast.kernels import HyperParams

    unknown = sorted(set(named) - set(theta.names))
    if unknown:
        raise ValueError(f"{unknown} are not among the trainables {theta.names}")
    return HyperParams(theta.names, tuple(named.get(name, value) for name, value in zip(theta.names, theta.values)))


def write_csv(dataset, path) -> None:
    """Write a ``bench.Dataset`` in the long layout (series, step, value), every value with full float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("series", "step", "value"))
        for entry in dataset.entries:
            for step, value in enumerate(entry.series.values):
                writer.writerow([entry.name, step, repr(float(value))])


def mean_signal_variances(spec, theta, x: np.ndarray) -> dict[str, float]:
    """Average zero-lag variance of each non-noise term over the points x."""
    out: dict[str, float] = {}
    for term in spec.terms:
        if term.kind == "PER":
            out["PER"] = theta.s2_per
        elif term.kind == "PER2":
            out["PER2"] = theta.s2_per2
        elif term.kind == "RBF":
            out["RBF"] = theta.s2_rbf
        elif term.kind == "SM1":
            out["SM1"] = theta.s2_sm1
        elif term.kind == "SM2":
            out["SM2"] = theta.s2_sm2
        elif term.kind == "LIN":
            out["LIN"] = theta.s2_bias + theta.s2_lin * float(np.mean(x * x))
    return out
