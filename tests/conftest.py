"""Shared fixtures.

The statistical checks (ARD behavior, noise-forecast calibration, the
synthetic benchmark) each need dozens of GP trainings, and both the module
tests and the acceptance suite assert on them, so they run once per
session here.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

import oracles
from gpforecast import (
    Dataset,
    SeriesEntry,
    Standardizer,
    TimeSeries,
    default_priors,
    default_spec,
    forecast,
    run_benchmark,
    score,
    seasonal_naive,
    train,
    training,
)

REPLICATE_SEEDS = tuple(range(101, 121))  # 20 seeded replicates


@pytest.fixture(scope="session")
def ard_replicates():
    """Paired trainings on white noise and on the same noise plus a yearly sine."""
    spec = default_spec("single-seasonal")
    priors = default_priors()
    runs = []
    for seed in REPLICATE_SEEDS:
        noise = oracles.white_noise_series(seed, 100)
        theta_white = train(spec, priors, TimeSeries(oracles.standardize(noise), 12.0)).theta
        with_season = noise + oracles.sine_component(100, steps_per_year=12.0, amplitude=1.0)
        theta_sine = train(spec, priors, TimeSeries(oracles.standardize(with_season), 12.0)).theta
        runs.append({"seed": seed, "theta_white": theta_white, "theta_sine": theta_sine})
    return runs


@pytest.fixture(scope="session")
def noise_forecast_runs():
    """Forecasts of pure i.i.d. noise series, checked in standardized units."""
    runs = []
    for seed in REPLICATE_SEEDS:
        values = 5.0 + 3.0 * oracles.white_noise_series(seed, 120)
        ts = TimeSeries(values=values, steps_per_year=12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fc, _ = forecast(ts, 18)
        mean, std = float(values.mean()), float(values.std())
        z_mean = (fc.mean - mean) / std
        pred_sd = np.sqrt(fc.variance)
        runs.append(
            {
                "seed": seed,
                "mean_ok": bool(np.all(np.abs(z_mean) <= 0.5)),
                "sd_ok": bool(np.all((pred_sd >= 0.5 * std) & (pred_sd <= 2.0 * std))),
            }
        )
    return runs


@pytest.fixture(scope="session")
def sine_forecast_run():
    """Ten years of monthly near-noiseless yearly sine, forecast 18 ahead."""
    rng = np.random.default_rng(7)
    n_train, horizon = 120, 18
    t = np.arange(n_train + horizon) / 12.0
    values = np.sin(2.0 * np.pi * t) + 0.01 * rng.standard_normal(t.size)
    train_values, test_values = values[:n_train], values[n_train:]
    ts = TimeSeries(values=train_values, steps_per_year=12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fc, result = forecast(ts, horizon)
    std = float(train_values.std())
    mae_standardized = float(np.mean(np.abs(test_values - fc.mean)) / std)
    return {"mae_standardized": mae_standardized, "forecast": fc, "result": result}


def make_benchmark_dataset(n_series: int = 40, seed: int = 2024, horizon: int = 18) -> Dataset:
    """Seeded trend + yearly seasonality + noise monthly series."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n_series):
        n_train = int(rng.integers(96, 132))
        n = n_train + horizon
        t = np.arange(n) / 12.0
        slope = float(rng.normal(0.0, 0.6))
        amplitude = float(rng.uniform(0.5, 2.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        sigma = float(rng.uniform(0.1, 0.4))
        level = float(rng.normal(0.0, 2.0))
        values = (
            level
            + slope * t
            + amplitude * np.sin(2.0 * np.pi * t + phase)
            + sigma * rng.standard_normal(n)
        )
        entries.append(
            SeriesEntry(
                name=f"s{i:03d}",
                series=TimeSeries(values=values, steps_per_year=12.0),
                test_length=horizon,
            )
        )
    return Dataset(entries=tuple(entries))


@pytest.fixture(scope="session")
def synthetic_benchmark():
    """GP benchmark over 40 synthetic series plus the seasonal-naive medians."""
    dataset = make_benchmark_dataset()
    started = time.perf_counter()
    gp_report = run_benchmark(dataset, parallelism=1)
    gp_seconds = time.perf_counter() - started

    naive = {"mae": [], "crps": [], "ll": []}
    for entry in dataset.entries:
        n = len(entry.series)
        train_values = entry.series.values[: n - entry.test_length]
        actual = entry.series.values[n - entry.test_length :]
        fc = seasonal_naive(TimeSeries(values=train_values, steps_per_year=12.0), entry.test_length)
        std = Standardizer.fit(train_values)
        report = score(
            std.transform(actual), std.transform(fc.mean), fc.variance / (std.std * std.std)
        )
        naive["mae"].append(report.mae)
        naive["crps"].append(report.crps)
        naive["ll"].append(report.ll)

    return {
        "dataset": dataset,
        "gp_report": gp_report,
        "gp_seconds": gp_seconds,
        "naive_median_mae": float(np.median(naive["mae"])),
        "naive_median_crps": float(np.median(naive["crps"])),
        "naive_median_ll": float(np.median(naive["ll"])),
    }


@pytest.fixture(scope="session")
def parallel_dataset():
    """Small, quick dataset for parallelism-determinism checks."""
    rng = np.random.default_rng(55)
    entries = []
    for i in range(20):
        n = 52
        t = np.arange(n) / 4.0
        values = 0.3 * t + np.sin(2.0 * np.pi * t) + 0.3 * rng.standard_normal(n)
        entries.append(
            SeriesEntry(
                name=f"q{i:02d}",
                series=TimeSeries(values=values, steps_per_year=4.0),
                test_length=8,
            )
        )
    return Dataset(entries=tuple(entries))


@pytest.fixture(scope="session")
def parallel_reports(parallel_dataset):
    serial = run_benchmark(parallel_dataset, parallelism=1)
    threaded = run_benchmark(parallel_dataset, parallelism=4)
    return {"serial": serial, "threaded": threaded}


@pytest.fixture(scope="session")
def speed_run():
    """One training on a realistic length-115 monthly series."""
    rng = np.random.default_rng(99)
    t = np.arange(115) / 12.0
    values = 0.4 * t + np.sin(2.0 * np.pi * t) + 0.3 * rng.standard_normal(115)
    return train(default_spec("single-seasonal"), default_priors(), TimeSeries(oracles.standardize(values), 12.0))


@pytest.fixture(params=["iteration-limit", "abnormal"])
def nonconverging_training(request, monkeypatch):
    """Rig training so that no restart converges; the value is the termination it then reports.

    ``iteration-limit`` stops every restart after one iteration,
    ``abnormal`` turns each optimizer result into an ``ABNORMAL: NO STRONG-WOLFE STEP`` line-search stop.
    """
    if request.param == "iteration-limit":
        monkeypatch.setattr(training, "MAX_ITERS", 1)
        return "STOP: ITERATIONS REACHED MAX_ITERS"
    real_minimize = training.minimize

    def abnormal(*args, **kwargs):
        result = real_minimize(*args, **kwargs)
        result.status, result.message = 2, "ABNORMAL: NO STRONG-WOLFE STEP"
        return result

    monkeypatch.setattr(training, "minimize", abnormal)
    return "ABNORMAL: NO STRONG-WOLFE STEP"
