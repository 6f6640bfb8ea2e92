"""End-to-end forecasting pipeline.

Steps: standardize against the training data, index time in years (one
unit per elapsed year, so lengthscales read as years), train the
hyperparameters, compute the predictive posterior at the next ``horizon``
steps, and undo the standardization on the way out.  The posterior comes
from the series ``train`` prepared (``TrainResult.series``): the next
steps continue its grid, so ``gp.fit`` lays out the Gram, the
cross-covariance and the prior variance from one pass over the terms on
the n + horizon lags.

Frequencies are expressed as steps per year: 12 for monthly, 4 for
quarterly, 1461 for 6-hour sampling (4 * 365.25).  Any positive real
value works.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gp import PredictiveDistribution, fit, predict
from .kernels import KernelSpec, Term
from .priors import PriorSpec
from .training import TrainResult, train

__all__ = [
    "MONTHLY",
    "QUARTERLY",
    "SIX_HOURLY",
    "ConstantSeriesError",
    "TimeSeries",
    "Standardizer",
    "Forecast",
    "parse_frequency",
    "make_time_index",
    "future_time_index",
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

# Fixed seasonal periods, in years.
YEARLY_PERIOD = 1.0
WEEKLY_PERIOD = 1.0 / 52.18
DAILY_PERIOD = 1.0 / 365.25

# Each seasonality mode's periodic terms; every mode adds the shared terms after them.
_PERIODIC_TERMS = {
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
    if lowered == "monthly":
        return MONTHLY
    if lowered == "quarterly":
        return QUARTERLY
    try:
        value = float(lowered)
    except ValueError:
        raise ValueError(f"frequency must be 'monthly', 'quarterly', or steps per year, got {text!r}") from None
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"steps per year must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class TimeSeries:
    """An ordered univariate series with a sampling frequency.

    ``steps_per_year`` converts step indices to year units.
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
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Standardizer:
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
    units of the original series."""

    horizon: int
    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != (self.horizon,) or self.variance.shape != (self.horizon,):
            raise ValueError("forecast arrays must match the horizon")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.variance))):
            raise ValueError("forecast contains non-finite values")
        if np.any(self.variance <= 0):
            raise ValueError("forecast variances must be positive")


def make_time_index(ts: TimeSeries) -> np.ndarray:
    """Year-unit time points for the observed steps: point i at i / steps_per_year."""
    return np.arange(len(ts), dtype=float) / ts.steps_per_year


def future_time_index(ts: TimeSeries, horizon: int) -> np.ndarray:
    """Year-unit time points for the next ``horizon`` steps after the series."""
    n = len(ts)
    return np.arange(n, n + horizon, dtype=float) / ts.steps_per_year


def default_spec(mode: str = "single-seasonal") -> KernelSpec:
    """The fixed composition for the requested seasonality mode (``"single"`` and ``"double"`` also work).

    single-seasonal: PER(1 year) + LIN + RBF + SM1 + SM2 + WN.
    double-seasonal: weekly and daily periodic terms replace the yearly one.
    """
    lowered = mode.strip().lower()
    periodic = _PERIODIC_TERMS.get(lowered) or _PERIODIC_TERMS.get(lowered + "-seasonal")
    if periodic is None:
        raise ValueError(f"mode must be 'single-seasonal' or 'double-seasonal', got {mode!r}")
    return KernelSpec(terms=periodic + _SHARED_TERMS)


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
    result.  Raises :class:`ConstantSeriesError` for constant input; a
    training run that does not converge proceeds with a warning quoting
    its ``termination`` (the result carries ``converged=False``).
    """
    posterior, standardizer, result = standardized_posterior(ts, horizon, mode=mode, priors=priors)
    if not result.converged:
        warnings.warn(f"training did not converge for series of length {len(ts)}: {result.termination}")
    return (
        Forecast(
            horizon=horizon,
            mean=standardizer.inverse(posterior.mean),
            variance=standardizer.inverse_variance(posterior.observation_variance),
        ),
        result,
    )


def standardized_posterior(
    ts: TimeSeries,
    horizon: int,
    mode: str = "single-seasonal",
    priors: PriorSpec | None = None,
    restarts: int = 1,
) -> tuple[PredictiveDistribution, Standardizer, TrainResult]:
    """Same pipeline as :func:`forecast` but stopping in standardized space.

    Used by the benchmark harness, which scores in standardized units.
    ``restarts`` is handed to :func:`train`.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if len(ts) < MIN_SERIES_LENGTH:
        raise ValueError(f"need at least {MIN_SERIES_LENGTH} observations, got {len(ts)}")
    spec = default_spec(mode)
    standardizer = Standardizer.fit(ts.values)
    z = standardizer.transform(ts.values)
    x = make_time_index(ts)
    x_star = future_time_index(ts, horizon)
    result = train(spec, priors, x, z, restarts)
    posterior = predict(fit(result.theta, result.series, x_star))
    return posterior, standardizer, result
