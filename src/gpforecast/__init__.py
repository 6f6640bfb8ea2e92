"""Automatic probabilistic time-series forecasting with a fixed-composition GP.

A single additive kernel (periodic + linear + RBF + two spectral-mixture
terms + noise) covers most univariate series; lognormal priors keep the
hyperparameters plausible, so one MAP optimization run from the prior
medians is enough.  Forecasts come with calibrated per-step variances and
are scored with MAE, CRPS, and average log-likelihood by ``score``.

Importing the package loads the forecast path only.  The file and
benchmark layer (``load_csv``, ``load_priors``, ``format_priors``,
``run_benchmark``, ``emit_report`` and the rest of ``bench``) and the
scoring rules (``score``, ``crps_gaussian``, ``ScoreReport``) load on
first use, through the module's ``__getattr__``; no forecast calls them.
"""

import importlib

from .forecasting import (
    MONTHLY,
    QUARTERLY,
    SIX_HOURLY,
    ConstantSeriesError,
    Forecast,
    Standardizer,
    TimeSeries,
    default_horizon,
    default_spec,
    forecast,
    parse_frequency,
    standardized_posterior,
)
from .gp import (
    FitState,
    IllConditionedModelError,
    PredictiveDistribution,
    fit,
    log_marginal_likelihood_and_grad,
    predict,
    prepare_series,
)
from .kernels import HyperParams, InvalidHyperparameterError, KernelSpec, Term
from .priors import LogNormalPrior, PriorSpec, default_priors, grad_log_prior, log_prior, median_hyperparams
from .training import TrainResult, map_objective, train

__version__ = "0.1.0"

# each name that loads on first use, with the module that defines it
_LAZY = {
    **dict.fromkeys(
        [
            "BenchReport", "CsvFormatError", "CsvLayout", "Dataset", "SeriesEntry", "SeriesFailure", "SeriesScore",
            "emit_report", "format_priors", "load_csv", "load_priors", "parse_machine_report", "read_series",
            "run_benchmark", "seasonal_naive",
        ],
        "bench",
    ),
    **dict.fromkeys(["ScoreReport", "crps_gaussian", "score"], "metrics"),
}

__all__ = [
    "MONTHLY", "QUARTERLY", "SIX_HOURLY", "ConstantSeriesError", "Forecast", "Standardizer", "TimeSeries",
    "default_horizon", "default_spec", "forecast", "parse_frequency", "standardized_posterior",
    "FitState", "IllConditionedModelError", "PredictiveDistribution",
    "fit", "log_marginal_likelihood_and_grad", "predict", "prepare_series",
    "HyperParams", "InvalidHyperparameterError", "KernelSpec", "Term",
    "LogNormalPrior", "PriorSpec", "default_priors", "grad_log_prior", "log_prior", "median_hyperparams",
    "TrainResult", "map_objective", "train",
    *_LAZY,
]


def __getattr__(name: str):
    """A name of :data:`_LAZY`, imported from its module and kept here; ``bench`` and ``metrics`` themselves."""
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
