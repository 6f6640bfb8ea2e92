"""Automatic probabilistic time-series forecasting with a fixed-composition GP.

A single additive kernel (periodic + linear + RBF + two spectral-mixture
terms + noise) covers most univariate series; lognormal priors keep the
hyperparameters plausible, so one MAP optimization run from the prior
medians is enough.  Forecasts come with calibrated per-step variances and
are scored with MAE, CRPS, and average log-likelihood by ``score``.
"""

from .bench import (
    BenchReport,
    CsvFormatError,
    CsvLayout,
    Dataset,
    SeriesEntry,
    SeriesFailure,
    SeriesScore,
    emit_report,
    load_csv,
    parse_machine_report,
    read_values,
    run_benchmark,
    seasonal_naive,
)
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
from .metrics import ScoreReport, crps_gaussian, score
from .priors import (
    LogNormalPrior,
    PriorSpec,
    default_priors,
    format_priors,
    grad_log_prior,
    load_priors,
    log_prior,
    median_hyperparams,
)
from .training import TrainResult, map_objective, train

__version__ = "0.1.0"
