"""End-to-end forecasting pipeline.

Steps: standardize against the training data, index time in years (one
unit per elapsed year, so lengthscales read as years), train the
hyperparameters, compute the predictive posterior at the next ``horizon``
steps, and undo the standardization on the way out.  The series carries
its grid, step i at i / steps_per_year (``gp.TimeSeries``): ``train``
prepares the n observed steps' grid, and ``gp.fit`` extends the series
it prepared (``TrainResult.series``) by the next ``horizon`` steps and
lays out the Gram, the cross-covariance and the prior variance from one
pass over the terms on the n + horizon lags.

Frequencies are expressed as steps per year: 12 for monthly, 4 for
quarterly, 1461 for 6-hour sampling (4 * 365.25).  Any positive real
value works.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gp import PredictiveDistribution, TimeSeries, fit, predict
from .kernels import KernelSpec, Term
from .priors import PriorSpec
from .training import TrainResult, train

__all__ = [
    "MONTHLY",
    "QUARTERLY",
    "SIX_HOURLY",
    "PERIODIC_TERMS",
    "ConstantSeriesError",
    "TimeSeries",
    "Standardizer",
    "Forecast",
    "parse_frequency",
    "default_spec",
    "default_horizon",
    "forecast",
]

MONTHLY = 12.0
QUARTERLY = 4.0
SIX_HOURLY = 1461.0  # 4 steps/day * 365.25 days/year

# Conventional test horizons by steps per year; the benchmark's default
# test lengths are the same numbers.
DEFAULT_HORIZONS = {MONTHLY: 18, QUARTERLY: 8, SIX_HOURLY: 42}
# The frequencies parse_frequency takes by name.
FREQUENCY_NAMES = {"monthly": MONTHLY, "quarterly": QUARTERLY}

# Fixed seasonal periods, in years.
YEARLY_PERIOD = 1.0
WEEKLY_PERIOD = 1.0 / 52.18
DAILY_PERIOD = 1.0 / 365.25

# Each seasonality mode's periodic terms; every mode adds the shared terms after them.
PERIODIC_TERMS = {
    "single-seasonal": (Term("PER", period=YEARLY_PERIOD),),
    "double-seasonal": (Term("PER", period=WEEKLY_PERIOD), Term("PER2", period=DAILY_PERIOD)),
}
_SHARED_TERMS = (Term("LIN"), Term("RBF"), Term("SM1"), Term("SM2"), Term("WN"))

MIN_SERIES_LENGTH = 8


class ConstantSeriesError(ValueError):
    """A constant (zero-variance) series cannot be standardized."""


def parse_frequency(text: str) -> float:
    """Turn 'monthly', 'quarterly', or a steps-per-year number into a float."""
    lowered = text.strip().lower()
    if lowered in FREQUENCY_NAMES:
        return FREQUENCY_NAMES[lowered]
    try:
        value = float(lowered)
    except ValueError:
        raise ValueError(f"frequency must be 'monthly', 'quarterly', or steps per year, got {text!r}") from None
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"steps per year must be finite and > 0, got {value!r}")
    return value


class Standardizer(NamedTuple):
    """Affine map to zero mean, unit variance, fitted on training data only."""

    mean: float
    std: float

    @classmethod
    def fit(cls, values: np.ndarray) -> "Standardizer":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("cannot standardize a series of length 0")
        # np.std sums squared deviations, which overflow once n std^2 passes the
        # float range even where std^2 fits; scaling by a power of two is exact
        exponent = int(np.frexp(np.max(np.abs(values), initial=0.0))[1])
        scaled = np.ldexp(values, -exponent)
        mean = float(np.ldexp(np.mean(scaled), exponent))
        std = float(np.ldexp(np.std(scaled), exponent))
        if not np.isfinite(std) or std <= 0.0:
            raise ConstantSeriesError("series is constant on the training window; cannot standardize")
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.std + self.mean

    def inverse_variance(self, variance: np.ndarray) -> np.ndarray:
        return np.asarray(variance, dtype=float) * (self.std * self.std)


@dataclass(frozen=True)
class Forecast:
    """Per-step predictive mean and observation-scale variance, in the
    units of the original series: two 1-D arrays of one length, the horizon."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.ndim != 1 or self.variance.shape != self.mean.shape:
            raise ValueError("forecast mean and variance must be 1-D arrays of one length")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.variance))):
            raise ValueError("forecast contains non-finite values")
        if np.any(self.variance <= 0):
            raise ValueError("forecast variances must be positive")


def default_spec(mode: str = "single-seasonal") -> KernelSpec:
    """The fixed composition for the seasonality mode, ``"single-seasonal"`` or ``"double-seasonal"``.

    single-seasonal: PER(1 year) + LIN + RBF + SM1 + SM2 + WN.
    double-seasonal: weekly and daily periodic terms replace the yearly one.
    """
    if mode not in PERIODIC_TERMS:
        raise ValueError(f"mode must be 'single-seasonal' or 'double-seasonal', got {mode!r}")
    return KernelSpec(terms=PERIODIC_TERMS[mode] + _SHARED_TERMS)


def default_horizon(steps_per_year: float) -> int:
    """Conventional horizons and benchmark test lengths: 18 monthly steps, 8 quarterly, 42 six-hourly."""
    if steps_per_year not in DEFAULT_HORIZONS:
        raise ValueError(f"no default horizon or test length for {steps_per_year} steps/year; pass one explicitly")
    return DEFAULT_HORIZONS[steps_per_year]


def forecast(
    ts: TimeSeries,
    horizon: int,
    mode: str = "single-seasonal",
    priors: PriorSpec | None = None,
) -> tuple[Forecast, TrainResult]:
    """Train on the whole series with one restart and forecast the next ``horizon`` steps.

    Returns the forecast in original units together with the training
    result.  Raises :class:`ConstantSeriesError` for constant input, and
    ValueError for a series whose scale puts the variance in its units out
    of float64's normal range (subnormal, zero or infinite); a training run
    that does not converge proceeds with a warning quoting its
    ``termination`` (the result carries ``converged=False``).
    """
    posterior, standardizer, result = standardized_posterior(ts, horizon, mode=mode, priors=priors)
    if not result.converged:
        warnings.warn(f"training did not converge for series of length {len(ts)}: {result.termination}")
    variance = standardizer.inverse_variance(posterior.observation_variance)
    # the standardized variance is finite and > 0; below the smallest normal float64 the product keeps a few digits
    if not np.all((variance >= np.finfo(float).tiny) & (variance < np.inf)):
        raise ValueError(
            f"training std {standardizer.std!r} is out of scale: the forecast variance in the series' units, "
            f"std^2 times the standardized one, {'overflows' if standardizer.std > 1.0 else 'underflows'} float64"
        )
    return Forecast(mean=standardizer.inverse(posterior.mean), variance=variance), result


def standardized_posterior(
    ts: TimeSeries,
    horizon: int,
    mode: str = "single-seasonal",
    priors: PriorSpec | None = None,
    restarts: int = 1,
) -> tuple[PredictiveDistribution, Standardizer, TrainResult]:
    """Same pipeline as :func:`forecast` but stopping in standardized space.

    Used by the benchmark harness, which scores in standardized units.
    ``horizon`` is an integer >= 1; anything else raises ValueError before
    any work.  ``restarts`` is handed to :func:`train`.
    """
    if not (isinstance(horizon, numbers.Integral) and type(horizon) is not bool and horizon >= 1):  # rejects True, 2.5
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    n = len(ts)
    if n < MIN_SERIES_LENGTH:
        raise ValueError(f"need at least {MIN_SERIES_LENGTH} observations, got {n}")
    spec = default_spec(mode)
    standardizer = Standardizer.fit(ts.values)
    z = standardizer.transform(ts.values)
    result = train(spec, priors, TimeSeries(z, ts.steps_per_year), restarts)
    posterior = predict(fit(result.theta, result.series, horizon))
    return posterior, standardizer, result
