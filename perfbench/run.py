"""gpforecast benchmark: seeded workloads through the public API, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload monthly-forecast --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from the checkout's own ``src`` directory; a
checkout without it is a benchmark error.  With ``--trace 0`` the run
reports the end-to-end metrics (:data:`END_TO_END`), with ``--trace 1``
the per-layer metrics (:data:`PER_LAYER`) from a traced run, plus the
tracing overhead against an untraced run in the same process.

End-to-end times are seconds at a nominal host speed: every timed call is
rescaled by a fixed reference burst timed next to it (see
:mod:`hostspeed`), because the shared host's own speed drifts by more
than the bounds over a run.  The raw wall-clock figures are in the
context line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the run's context (environment, spans, the tail percentile and
its sample count, absent wrap targets, raw wall-clock times).

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed, with ``"correct": false``), 2 for a
benchmark error such as an unclassified series failure (no result line).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
# Seed kept out of all tuning; a claimed gain must also hold on it.
HELDOUT_SEED = 20201

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# monthly-forecast also runs its first series twice through run_benchmark
# with a two-thread pool, to check that path against forecast() and
# against itself.
CROSS_PATH_SERIES = 4
CROSS_PATH_PARALLELISM = 2
# Scores from forecast() and from run_benchmark() agree to this
# tolerance (absolute and relative); they differ only by the round trip
# through original units.
CROSS_PATH_TOL = 1e-9
TAIL_BEYOND = 10
# The traced run times every OVERHEAD_STRIDE-th series untraced too, to
# measure what tracing costs.
OVERHEAD_STRIDE = 4

# Exception types a per-series failure may legitimately report: bad data or
# numerical breakdown.  A plain ValueError counts only when it rejects a
# series as too short.  Anything else is a defect in the program.
DOMAIN_ERRORS = ("ConstantSeriesError", "IllConditionedModelError", "InvalidHyperparameterError")
LENGTH_ERROR = re.compile(r"^ValueError: (need at least \d+ observations|test length \d+ leaves no training data)")

END_TO_END = {
    "setup_s": "s",
    "series_per_s": "1/s",
    "forecast_s_p50": "s",
    "forecast_s_tail": "s",
    "peak_rss_mb": "MB",
    "median_mae": "std_units",
    "median_crps": "std_units",
    "median_ll": "nats",
    "scored_frac": "fraction",
}

PER_LAYER = {
    "kernels.build_gram.s": "s",
    "kernels.grad_gram.s": "s",
    "kernels.grad_gram.bytes_computed": "bytes",
    "kernels.build_cross.s": "s",
    "kernels.zero_lag_variance.s": "s",
    "gp.lml_grad.self_s": "s",
    "gp.fit.self_s": "s",
    "gp.cholesky.calls": "count",
    "gp.cholesky.s": "s",
    "gp.cholesky.flops_computed": "flop",
    "gp.cho_solve.s": "s",
    "gp.predict.self_s": "s",
    "training.minimize.self_s": "s",
    "training.nit": "count",
    "training.nfev": "count",
    "training.penalty_evals": "count",
    "training.useful_eval_ratio": "fraction",
    "training.nonconverged": "count",
    "priors.log_prior.s": "s",
    "priors.grad_log_prior.s": "s",
    "bench.load_csv.s": "s",
    "bench.run_benchmark.self_s": "s",
    "bench.parallel_efficiency": "fraction",
    "forecasting.standardized_posterior.self_s": "s",
    "forecasting.forecast.self_s": "s",
    "metrics.score.s": "s",
    "trace.overhead_frac": "fraction",
}

# Per-layer counts that a deterministic program repeats exactly on every traced run.
EXACT_COUNTS = (
    "training.nit",
    "training.nfev",
    "gp.cholesky.calls",
    "kernels.grad_gram.bytes_computed",
    "gp.cholesky.flops_computed",
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class Inputs:
    """One workload's generated series, split into training part and held-out values."""

    workload: workloads.Workload
    names: list[str]
    train: list[np.ndarray]
    actual: list[np.ndarray]
    csv_path: Path | None = None
    npz_path: Path | None = None


@dataclass
class Pass:
    """Outcome of one pass over every series of the workload."""

    latencies: dict[str, float]  # series name -> wall-clock seconds of its timed call
    bursts: list[float]  # reference bursts: one before each timed call, one after the last
    train_seconds: float
    scores: dict[str, tuple[float, float, float, bool]]  # name -> (mae, crps, ll, converged)
    failures: dict[str, str]
    iterations: int | None = None  # optimizer iterations, where the path reports them
    steal_frac: float | None = None  # share of the machine's CPU time stolen by the host meanwhile

    @property
    def seconds(self) -> float:
        """Wall-clock seconds of the timed calls, reference bursts excluded."""
        return sum(self.latencies.values())

    @property
    def normalized(self) -> list[float]:
        """Each call's seconds at nominal host speed, in call order."""
        return hostspeed.normalize(list(self.latencies.values()), self.bursts)


@dataclass
class Checks:
    failures: list[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# -- program loading ------------------------------------------------------
def import_program():
    """Import gpforecast from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "gpforecast" / "__init__.py").is_file():
        raise BenchmarkError(f"no gpforecast sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gpforecast

    if Path(gpforecast.__file__).resolve().parent != (SRC / "gpforecast").resolve():
        raise BenchmarkError(f"gpforecast was imported from {gpforecast.__file__}, not from {SRC}")
    return gpforecast


# -- inputs -----------------------------------------------------------------
def make_inputs(name: str, seed: int, copies: int, work: Path, limit: int | None = None) -> Inputs:
    workload = workloads.WORKLOADS[name]
    generated = workloads.generate(name, seed, copies)
    if limit is not None:
        generated = generated[:limit]
    h = workload.horizon
    inputs = Inputs(
        workload=workload,
        names=[n for n, _ in generated],
        train=[v[:-h] for _, v in generated],
        actual=[v[-h:] for _, v in generated],
    )
    if workload.kind == "bench":
        inputs.csv_path = work / "series.csv"
        with open(inputs.csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "step", "value"])
            for series_name, values in generated:
                for step, value in enumerate(values):
                    writer.writerow([series_name, step, repr(float(value))])
    else:
        inputs.npz_path = work / "series.npz"
        np.savez(inputs.npz_path, **dict(generated))
    return inputs


def measure_setup(inputs: Inputs, repeats: int) -> tuple[list[float], list[float]]:
    """Cold-start times from child processes, each a fresh interpreter: (raw, at nominal host speed)."""
    workload = inputs.workload
    kind, path = ("csv", inputs.csv_path) if workload.kind == "bench" else ("npz", inputs.npz_path)
    command = [
        sys.executable,
        str(Path(__file__).with_name("setup_probe.py")),
        "--src", str(SRC),
        "--kind", kind,
        "--path", str(path),
        "--steps-per-year", repr(workload.steps_per_year),
        "--horizon", str(workload.horizon),
    ]
    times, normalized = [], []
    for _ in range(repeats):
        done = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if probe["series"] != len(inputs.names):
            raise BenchmarkError(f"setup probe loaded {probe['series']} series, expected {len(inputs.names)}")
        times.append(probe["setup_s"])
        normalized.append(probe["setup_s"] * hostspeed.NOMINAL_S / probe["burst_s"])
    return times, normalized


def load_program_inputs(gp, inputs: Inputs):
    """The workload's inputs in the program's own form (untimed here)."""
    workload = inputs.workload
    if workload.kind == "bench":
        layout = gp.CsvLayout(steps_per_year=workload.steps_per_year, test_length=workload.horizon)
        return gp.load_csv(inputs.csv_path, layout)
    return [gp.TimeSeries(values=v, steps_per_year=workload.steps_per_year) for v in inputs.train]


# -- passes -----------------------------------------------------------------
def classify_failure(reason: str) -> None:
    """Raise unless a recorded series failure (``"Type: message"``) is a known domain error."""
    kind = reason.split(":", 1)[0].strip()
    if kind not in DOMAIN_ERRORS and not LENGTH_ERROR.match(reason):
        raise BenchmarkError(f"series failed with a non-domain error: {reason}")


def standardized_score(gp, train: np.ndarray, actual: np.ndarray, mean: np.ndarray, variance: np.ndarray):
    standardizer = gp.Standardizer.fit(train)
    scale2 = standardizer.std * standardizer.std
    return gp.score(standardizer.transform(actual), standardizer.transform(mean), variance / scale2)


def forecast_pass(gp, inputs: Inputs, program_inputs, checks: Checks) -> Pass:
    workload = inputs.workload
    latencies: dict[str, float] = {}
    scores: dict[str, tuple[float, float, float, bool]] = {}
    failures: dict[str, str] = {}
    bursts: list[float] = []
    train_seconds = 0.0
    iterations = 0
    for name, ts, train, actual in zip(inputs.names, program_inputs, inputs.train, inputs.actual):
        bursts.append(hostspeed.burst())
        t0 = time.perf_counter()
        try:
            fc, result = gp.forecast(ts, workload.horizon, mode=workload.mode)
        except Exception as exc:  # classified below, as run_benchmark records it
            latencies[name] = time.perf_counter() - t0
            reason = f"{type(exc).__name__}: {exc}"
            classify_failure(reason)
            failures[name] = reason
            continue
        latencies[name] = time.perf_counter() - t0
        train_seconds += result.seconds
        iterations += result.iterations
        finite = bool(np.all(np.isfinite(fc.mean)) and np.all(np.isfinite(fc.variance)))
        checks.require(finite and bool(np.all(fc.variance > 0)), f"{name}: forecast not finite or variance not positive")
        if not finite:
            continue
        report = standardized_score(gp, train, actual, fc.mean, fc.variance)
        scores[name] = (report.mae, report.crps, report.ll, bool(result.converged))
    bursts.append(hostspeed.burst())
    return Pass(latencies, bursts, train_seconds, scores, failures, iterations=iterations)


def bench_pass(gp, inputs: Inputs, dataset, checks: Checks) -> Pass:
    """Serial run_benchmark, one series per call, so that each call is timed next to a reference burst."""
    workload = inputs.workload
    latencies: dict[str, float] = {}
    scores: dict[str, tuple[float, float, float, bool]] = {}
    failures: dict[str, str] = {}
    bursts: list[float] = []
    train_seconds = 0.0
    for entry in dataset.entries:
        bursts.append(hostspeed.burst())
        t0 = time.perf_counter()
        report = gp.run_benchmark(gp.Dataset(entries=(entry,)), mode=workload.mode)
        latencies[entry.name] = time.perf_counter() - t0
        for failure in report.failures:
            classify_failure(failure.reason)
            failures[failure.name] = failure.reason
        for s in report.scores:
            r = s.report
            finite = all(np.all(np.isfinite(a)) for a in (r.abs_errors, r.crps_per_step, r.ll_per_step))
            checks.require(finite, f"{s.name}: non-finite score, so the forecast was not finite")
            scores[s.name] = (r.mae, r.crps, r.ll, bool(s.converged))
            train_seconds += s.train_seconds
    bursts.append(hostspeed.burst())
    return Pass(latencies, bursts, train_seconds, scores, failures)


def one_pass(gp, inputs: Inputs, program_inputs, checks: Checks) -> Pass:
    measure = bench_pass if inputs.workload.kind == "bench" else forecast_pass
    before = cpu_ticks()
    result = measure(gp, inputs, program_inputs, checks)
    after = cpu_ticks()
    if before and after and after[0] > before[0]:
        result.steal_frac = (after[1] - before[1]) / (after[0] - before[0])
    return result


def cpu_ticks() -> tuple[int, int] | None:
    """(all, steal) ticks of the machine, to tell a slow run caused by a neighbour on the host."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7] if len(fields) > 7 else 0


# -- output checks ------------------------------------------------------------
def check_against_naive(gp, inputs: Inputs, first: Pass, checks: Checks) -> float:
    """The GP's median CRPS must beat seasonal naive's on the same series."""
    naive = []
    for ts_train, actual in zip(inputs.train, inputs.actual):
        ts = gp.TimeSeries(values=ts_train, steps_per_year=inputs.workload.steps_per_year)
        fc = gp.seasonal_naive(ts, inputs.workload.horizon)
        naive.append(standardized_score(gp, ts_train, actual, fc.mean, fc.variance).crps)
    naive_median = float(np.median(naive))
    gp_median = float(np.median([s[1] for s in first.scores.values()]))
    checks.require(gp_median < naive_median, f"GP median CRPS {gp_median:.4f} does not beat seasonal naive {naive_median:.4f}")
    return naive_median


def check_bench_path(gp, inputs: Inputs, first: Pass, checks: Checks) -> None:
    """run_benchmark with a thread pool must repeat itself exactly and score as forecast() did."""
    workload = inputs.workload
    entries = tuple(
        gp.SeriesEntry(
            name=name,
            series=gp.TimeSeries(values=np.concatenate([train, actual]), steps_per_year=workload.steps_per_year),
            test_length=workload.horizon,
        )
        for name, train, actual in list(zip(inputs.names, inputs.train, inputs.actual))[:CROSS_PATH_SERIES]
    )
    dataset = gp.Dataset(entries=entries)
    views = [
        gp.run_benchmark(dataset, mode=workload.mode, parallelism=CROSS_PATH_PARALLELISM).deterministic_view()
        for _ in range(2)
    ]
    checks.require(views[0] == views[1], "two run_benchmark calls on the same series gave different reports")
    checks.require(not views[0]["failures"], f"run_benchmark failed where forecast() did not: {views[0]['failures']}")
    for name, *bench_scores, _converged in views[0]["scores"]:
        direct = first.scores.get(name)
        checks.require(direct is not None, f"{name}: scored by run_benchmark() but not by forecast()")
        if direct is None:
            continue
        for label, a, b in zip(("mae", "crps", "ll"), direct[:3], bench_scores):
            checks.require(
                math.isclose(a, b, rel_tol=CROSS_PATH_TOL, abs_tol=CROSS_PATH_TOL),
                f"{name}: {label} is {a!r} via forecast() but {b!r} via run_benchmark()",
            )


# -- metrics ------------------------------------------------------------------
def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least TAIL_BEYOND samples beyond it.

    With ``2 * TAIL_BEYOND`` samples or fewer that percentile would sit at
    or below the median; the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def median_scores(first: Pass) -> tuple[float, float, float]:
    values = list(first.scores.values())
    return tuple(float(np.median([v[k] for v in values])) for k in range(3))


def environment(gp) -> dict:
    import scipy

    def blas(module) -> dict:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {"name": info.get("name"), "version": info.get("version")}
        except Exception:  # the config layout is not a stable API
            return {"name": None, "version": None}

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gpforecast": getattr(gp, "__version__", None),
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds bundled with numpy and scipy."""
    import ctypes
    import glob

    import scipy

    out = {}
    for module in (np, scipy):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[module.__name__] = int(fn())
                    break
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(gp, inputs, program_inputs, checks: Checks, info: dict) -> tuple[dict, int, int]:
    workload = inputs.workload
    setup, setup_normalized = measure_setup(inputs, SETUP_REPEATS)
    run = one_pass(gp, inputs, program_inputs, checks)
    if workload.name == "monthly-forecast":
        info["seasonal_naive_median_crps"] = check_against_naive(gp, inputs, run, checks)
        check_bench_path(gp, inputs, run, checks)
    latencies = list(run.latencies.values())
    normalized = run.normalized
    percentile, tail = tail_latency(normalized)
    mae, crps, ll = median_scores(run)
    attempted = len(inputs.names)
    checks.require(
        len(run.scores) + len(run.failures) == attempted,
        f"scored {len(run.scores)} + failed {len(run.failures)} != attempted {attempted}",
    )
    info.update(
        setup_samples=setup,
        latency_samples=len(latencies),
        tail_percentile=percentile,
        nonconverged=sum(not s[3] for s in run.scores.values()),
        iterations=run.iterations,
        cpu_steal_frac=run.steal_frac,
        # in call order, so that the rescaling can be checked from the output
        call_s=latencies,
        reference_burst_s=run.bursts,
        wall_clock={
            "setup_s": statistics.median(setup),
            "series_per_s": attempted / run.seconds,
            "forecast_s_p50": statistics.median(latencies),
            "forecast_s_tail": tail_latency(latencies)[1],
        },
    )
    metrics = {
        "setup_s": statistics.median(setup_normalized),
        "series_per_s": attempted / sum(normalized),
        "forecast_s_p50": statistics.median(normalized),
        "forecast_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "median_mae": mae,
        "median_crps": crps,
        "median_ll": ll,
        "scored_frac": len(run.scores) / attempted,
    }
    return {k: metric(v, END_TO_END[k]) for k, v in metrics.items()}, attempted, len(run.failures)


def subset(gp, inputs: Inputs, program_inputs, keep: slice):
    """The same workload restricted to ``inputs.names[keep]``."""
    part = Inputs(inputs.workload, inputs.names[keep], inputs.train[keep], inputs.actual[keep])
    if inputs.workload.kind == "bench":
        return part, gp.Dataset(entries=program_inputs.entries[keep])
    return part, program_inputs[keep]


def per_layer(gp, inputs, program_inputs, checks: Checks, info: dict) -> tuple[dict, int, int]:
    workload = inputs.workload
    # untraced reference for the tracing overhead: every OVERHEAD_STRIDE-th series
    # one untimed call first, so that the program's first-call costs fall on neither pass
    one_pass(gp, *subset(gp, inputs, program_inputs, slice(0, 1)), Checks())
    reference, reference_inputs = subset(gp, inputs, program_inputs, slice(None, None, OVERHEAD_STRIDE))
    untraced = one_pass(gp, reference, reference_inputs, checks)
    with tracing.Tracer() as tracer:
        load_s = 0.0
        if workload.kind == "bench":
            t0 = time.perf_counter()
            program_inputs = load_program_inputs(gp, inputs)
            load_s = time.perf_counter() - t0
        traced = one_pass(gp, inputs, program_inputs, checks)
    checks.require(
        all(traced.scores.get(k) == v for k, v in untraced.scores.items()) and not untraced.failures,
        "the traced pass gave different results than the untraced one",
    )
    # both passes at nominal host speed, so that the host's drift between them does not count as overhead
    traced_normalized = dict(zip(traced.latencies, traced.normalized))
    traced_same = sum(traced_normalized.get(k, 0.0) for k in untraced.latencies)
    spans = tracer.summary()
    counts = dict(tracer.counts)
    absent = {t.span for t in tracing.TARGETS} - tracer.present

    def span(name: str, field_name: str) -> float | None:
        return None if name in absent else spans[name][field_name]

    def count(key: str, needs: str) -> float | None:
        return None if needs in absent else counts.get(key, 0.0)

    nit = count("training.nit", "training.minimize")
    nfev = count("training.nfev", "training.minimize")
    values = {
        "kernels.build_gram.s": span("kernels.build_gram", "s"),
        "kernels.grad_gram.s": span("kernels.grad_gram", "s"),
        "kernels.grad_gram.bytes_computed": count("kernels.grad_gram.bytes_computed", "kernels.grad_gram"),
        "kernels.build_cross.s": span("kernels.build_cross", "s"),
        "kernels.zero_lag_variance.s": span("kernels.zero_lag_variance", "s"),
        "gp.lml_grad.self_s": span("gp.lml_grad", "self_s"),
        "gp.fit.self_s": span("gp.fit", "self_s"),
        "gp.cholesky.calls": span("gp.cholesky", "calls"),
        "gp.cholesky.s": span("gp.cholesky", "s"),
        "gp.cholesky.flops_computed": count("gp.cholesky.flops_computed", "gp.cholesky"),
        "gp.cho_solve.s": span("gp.cho_solve", "s"),
        "gp.predict.self_s": span("gp.predict", "self_s"),
        "training.minimize.self_s": span("training.minimize", "self_s"),
        "training.nit": nit,
        "training.nfev": nfev,
        "training.penalty_evals": count("training.penalty_evals", "training.minimize"),
        "training.useful_eval_ratio": nit / nfev if nfev else None,
        "training.nonconverged": count("training.nonconverged", "training.train"),
        "priors.log_prior.s": span("priors.log_prior", "s"),
        "priors.grad_log_prior.s": span("priors.grad_log_prior", "s"),
        "bench.load_csv.s": None if "bench.load_csv" in absent else load_s,
        "bench.run_benchmark.self_s": span("bench.run_benchmark", "self_s"),
        "bench.parallel_efficiency": traced.train_seconds / traced.seconds,
        "forecasting.standardized_posterior.self_s": span("forecasting.standardized_posterior", "self_s"),
        "forecasting.forecast.self_s": span("forecasting.forecast", "self_s"),
        "metrics.score.s": span("metrics.score", "s"),
        "trace.overhead_frac": traced_same / sum(untraced.normalized) - 1.0,
    }
    info.update(
        absent_targets=tracer.absent,
        absent_metrics=sorted(k for k, v in values.items() if v is None),
        spans=spans,
        counts=counts,
    )
    metrics = {k: metric(v, PER_LAYER[k]) for k, v in values.items() if v is not None}
    return metrics, len(inputs.names) + len(reference.names), len(untraced.failures) + len(traced.failures)


# -- entry points -------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    """Run one workload and return the result object (plus ``info``)."""
    gp = import_program()
    warnings.simplefilter("ignore")  # forecast() warns on non-convergence; the run counts it instead
    workload = workloads.WORKLOADS[name]
    copies = workload.copies(seconds)
    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(name, seed, copies, work, limit)
        program_inputs = load_program_inputs(gp, inputs)
        checks = Checks()
        info = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "copies": copies,
            "series": len(inputs.names),
            "env": environment(gp),
        }
        measure = per_layer if trace else end_to_end
        metrics, attempted, failed = measure(gp, inputs, program_inputs, checks, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    info["check_failures"] = checks.failures
    return {
        "info": info,
        "result": {"correct": not checks.failures, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another; nonzero if any fails."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(command, cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = out["result"]
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for message in out["info"]["check_failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(out["info"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
