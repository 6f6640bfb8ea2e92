"""Scoring rules for probabilistic forecasts.

``score`` gives all three indicators, each averaged over the test steps:

    MAE   mean absolute error of the point forecast
    CRPS  continuous ranked probability score of the Gaussian predictive
          distribution, in closed form:
              CRPS(y; mu, sigma) = sigma * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi))
          with z = (y - mu) / sigma and 2 Phi(z) - 1 = erf(z / sqrt(2))
    LL    average per-step Gaussian log-density of the actuals

MAE and CRPS are losses (lower is better); LL is higher-better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ScoreReport", "crps_gaussian", "score"]

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class ScoreReport:
    """Aggregate scores plus the per-step values they average."""

    mae: float
    crps: float
    ll: float
    abs_errors: np.ndarray
    crps_per_step: np.ndarray
    ll_per_step: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mae", "crps", "ll"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")
        if self.mae < 0 or self.crps < 0:
            raise ValueError("mae and crps must be nonnegative")


def crps_gaussian(y, mu, sigma):
    """Closed-form CRPS of a Gaussian forecast; elementwise over arrays.

    Converges to |y - mu| as sigma goes to zero.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite and > 0")
    z = (y - mu) / sigma
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    out = sigma * (z * _erf(z / math.sqrt(2.0)) + 2.0 * pdf - _INV_SQRT_PI)
    return out if out.ndim else float(out)


def score(y, mu, sigma2) -> ScoreReport:
    """All three indicators for one forecast, with per-step detail; checks its input once."""
    y, mu, sigma2 = (np.asarray(a, dtype=float) for a in (y, mu, sigma2))
    if not y.shape == mu.shape == sigma2.shape:
        raise ValueError(f"length mismatch: actuals {y.shape}, forecasts {mu.shape}, variances {sigma2.shape}")
    if y.size < 1:
        raise ValueError("need at least one test step")
    for name, values in (("actuals", y), ("means", mu)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if np.any(sigma2 <= 0) or not np.all(np.isfinite(sigma2)):
        raise ValueError("variances must be finite and > 0")
    ll_steps = -0.5 * (_LOG_2PI + np.log(sigma2)) - (y - mu) ** 2 / (2.0 * sigma2)  # log N(y_t; mu_t, sigma2_t)
    abs_errors = np.abs(y - mu)
    crps_steps = np.asarray(crps_gaussian(y, mu, np.sqrt(sigma2)))
    return ScoreReport(
        mae=float(np.mean(abs_errors)),
        crps=float(np.mean(crps_steps)),
        ll=float(np.mean(ll_steps)),
        abs_errors=abs_errors,
        crps_per_step=crps_steps,
        ll_per_step=ll_steps,
    )
