"""Batch benchmarking: CSV ingestion, per-series runs, aggregate report.

Two CSV layouts are supported:

    long  header with series/step/value columns; one observation per row;
          steps are integer indices, unique per series, without gaps, in
          any order
    wide  one column per series, one step per row; shorter series end with
          empty trailing cells

Each series is split into a training part and a test part of the
configured length, standardized on the training part, forecast with the
GP pipeline, and scored in standardized units (original units optional).
Per-series failures (constant series, too-short series, numerical
breakdown) are recorded and reported; they never abort the batch and are
never silently dropped.  Any other exception is a bug and propagates.

Scores, medians, and failure lists are bit-stable across parallelism
degrees; wall-clock timing fields are measurements and naturally vary.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .forecasting import MONTHLY, Forecast, TimeSeries, default_horizon, standardized_posterior
from .gp import IllConditionedModelError
from .metrics import ScoreReport, score
from .priors import PriorSpec

__all__ = [
    "CsvFormatError",
    "CsvLayout",
    "SeriesEntry",
    "Dataset",
    "SeriesScore",
    "SeriesFailure",
    "BenchReport",
    "load_csv",
    "seasonal_naive",
    "run_benchmark",
    "emit_report",
    "parse_machine_report",
]


class CsvFormatError(ValueError):
    """Malformed benchmark CSV; the message names the offending line, or the series and step."""


# the long layout's columns, which load_csv finds by name in its header
_LONG_COLUMNS = ("series", "step", "value")
# the scores of a series, in report order; the aggregate carries the median of each
_SCORED = ("mae", "crps", "ll")


@dataclass(frozen=True)
class CsvLayout:
    """How to read a dataset file.

    ``test_length=None`` picks the conventional split for the frequency
    (18 monthly steps, 8 quarterly, 42 six-hourly); other frequencies must
    set it.
    """

    layout: str = "long"
    steps_per_year: float = MONTHLY
    test_length: int | None = None

    def __post_init__(self) -> None:
        if self.layout not in ("long", "wide"):
            raise ValueError(f"layout must be 'long' or 'wide', got {self.layout!r}")
        if not np.isfinite(self.steps_per_year) or self.steps_per_year <= 0:
            raise ValueError(f"steps_per_year must be finite and > 0, got {self.steps_per_year!r}")
        if self.test_length is not None and self.test_length < 1:
            raise ValueError(f"test_length must be >= 1, got {self.test_length}")


@dataclass(frozen=True)
class SeriesEntry:
    name: str
    series: TimeSeries
    test_length: int


@dataclass(frozen=True)
class Dataset:
    entries: tuple[SeriesEntry, ...]

    def __post_init__(self) -> None:
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("series names must be unique")
        for e in self.entries:
            if e.test_length < 1:
                raise ValueError(f"series {e.name!r}: test length must be >= 1")

    def __len__(self) -> int:
        return len(self.entries)


def load_csv(path, layout: CsvLayout) -> Dataset:
    """Parse a dataset file; raises :class:`CsvFormatError` with line numbers."""
    if layout.layout == "long":
        per_series = _read_long(path)
    else:
        per_series = _read_wide(path)
    test_length = layout.test_length if layout.test_length is not None else default_horizon(layout.steps_per_year)
    entries = tuple(
        SeriesEntry(
            name=name,
            series=TimeSeries(values=np.array(values, dtype=float), steps_per_year=layout.steps_per_year),
            test_length=test_length,
        )
        for name, values in per_series
    )
    return Dataset(entries=entries)


def _parse_value(cell: str, path, lineno: int) -> float:
    """A CSV value cell, on line ``lineno`` of the file ``path``, as a finite float."""
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(f"{path}: line {lineno}: value {cell!r} is not numeric") from None
    if not math.isfinite(value):
        raise CsvFormatError(f"{path}: line {lineno}: value {value!r} is not finite")
    return value


def _read_rows(path) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows of a CSV file as they are read, cells stripped, each with the line it ends on."""
    empty = True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            cells = [cell.strip() for cell in row]
            if any(cells):
                empty = False
                yield reader.line_num, cells
    if empty:
        raise CsvFormatError(f"{path}: file is empty")


def _read_long(path) -> list[tuple[str, list[float]]]:
    body = _read_rows(path)
    lineno, header = next(body)
    try:
        s_idx, t_idx, v_idx = (header.index(column) for column in _LONG_COLUMNS)
    except ValueError:
        raise CsvFormatError(
            f"{path}: line {lineno}: header must contain columns {_LONG_COLUMNS}; got {header}"
        ) from None
    rows: dict[str, dict[int, float]] = {}
    for lineno, row in body:
        if len(row) <= max(s_idx, t_idx, v_idx):
            raise CsvFormatError(f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}")
        name = row[s_idx]
        if not name:
            raise CsvFormatError(f"{path}: line {lineno}: empty series id")
        try:
            step = int(row[t_idx])
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: step {row[t_idx]!r} is not an integer") from None
        value = _parse_value(row[v_idx], path, lineno)
        series = rows.setdefault(name, {})
        if step in series:
            raise CsvFormatError(f"{path}: line {lineno}: duplicate step {step} for series {name!r}")
        series[step] = value
    per_series = []
    for name, series in rows.items():
        steps = sorted(series)
        for expected, step in enumerate(steps, start=steps[0]):
            if step != expected:  # a gap would shift every later value's time and seasonal phase
                raise CsvFormatError(f"{path}: series {name!r} has no step {expected} (its steps run to {steps[-1]})")
        per_series.append((name, [series[k] for k in steps]))
    return per_series


def _read_wide(path) -> list[tuple[str, list[float]]]:
    body = _read_rows(path)
    lineno, header = next(body)
    if any(not h for h in header):
        raise CsvFormatError(f"{path}: line {lineno}: empty series name in header")
    if len(set(header)) != len(header):
        raise CsvFormatError(f"{path}: line {lineno}: duplicate series names in header")
    columns: list[list[float]] = [[] for _ in header]
    ended = [False] * len(header)
    for lineno, row in body:
        if len(row) > len(header):
            raise CsvFormatError(f"{path}: line {lineno}: more cells than header columns")
        for j, name in enumerate(header):
            cell = row[j] if j < len(row) else ""
            if not cell:
                ended[j] = True
                continue
            if ended[j]:
                raise CsvFormatError(
                    f"{path}: line {lineno}: series {name!r} resumes after a gap; "
                    "empty cells are only allowed at the end of a column"
                )
            columns[j].append(_parse_value(cell, path, lineno))
    return [(name, col) for name, col in zip(header, columns)]


def seasonal_naive(ts: TimeSeries, horizon: int) -> Forecast:
    """Repeat the last observed season (steps per year, rounded); variance from in-sample residuals.

    The per-step variance is the mean squared one-season-back residual on
    the training data (floored at 1e-12 so exactly periodic input still
    yields a valid distribution).  ``horizon`` is an integer >= 1; anything
    else raises ValueError.
    """
    if not (isinstance(horizon, numbers.Integral) and horizon >= 1):  # rejects 2.5, "3"
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    season = int(round(ts.steps_per_year))
    if season < 1:
        raise ValueError(f"season length must be >= 1, got {season}")
    n = len(ts)
    if n < season:
        raise ValueError(f"series of length {n} is shorter than one season ({season})")
    values = ts.values
    mean = np.array([values[n - season + (h % season)] for h in range(horizon)])
    residuals = values[season:] - values[:-season]
    variance = float(np.mean(residuals**2)) if residuals.size else 0.0
    variance = max(variance, 1e-12)
    return Forecast(horizon=horizon, mean=mean, variance=np.full(horizon, variance))


@dataclass(frozen=True)
class SeriesScore:
    name: str
    report: ScoreReport
    train_seconds: float
    converged: bool


@dataclass(frozen=True)
class SeriesFailure:
    name: str
    reason: str


@dataclass(frozen=True)
class BenchReport:
    """Scores for every series that ran, failures for every one that did not.

    ``count(scores) + count(failures)`` always equals the input series
    count.  Medians cover only the scored series; ``None`` when nothing
    scored.
    """

    scores: tuple[SeriesScore, ...]
    failures: tuple[SeriesFailure, ...]
    median_mae: float | None
    median_crps: float | None
    median_ll: float | None
    total_seconds: float

    def deterministic_view(self) -> dict:
        """Everything in the report except wall-clock timing."""
        return {
            "scores": [(s.name, s.report.mae, s.report.crps, s.report.ll, s.converged) for s in self.scores],
            "failures": [(f.name, f.reason) for f in self.failures],
            "medians": (self.median_mae, self.median_crps, self.median_ll),
        }


def _score_one(
    entry: SeriesEntry,
    mode: str,
    priors: PriorSpec | None,
    standardized_units: bool,
) -> SeriesScore | SeriesFailure:
    try:
        n = len(entry.series)
        if entry.test_length >= n:
            raise ValueError(f"test length {entry.test_length} leaves no training data (length {n})")
        train_values = entry.series.values[: n - entry.test_length]
        actual = entry.series.values[n - entry.test_length :]
        train_ts = TimeSeries(values=train_values, steps_per_year=entry.series.steps_per_year)
        posterior, standardizer, result = standardized_posterior(train_ts, entry.test_length, mode=mode, priors=priors)
        if standardized_units:
            report = score(standardizer.transform(actual), posterior.mean, posterior.observation_variance)
        else:
            report = score(
                actual,
                standardizer.inverse(posterior.mean),
                standardizer.inverse_variance(posterior.observation_variance),
            )
        return SeriesScore(
            name=entry.name, report=report, train_seconds=result.seconds, converged=result.converged
        )
    except (ValueError, IllConditionedModelError) as exc:  # bad data or numerics: record, never abort the batch
        return SeriesFailure(name=entry.name, reason=f"{type(exc).__name__}: {exc}")


def run_benchmark(
    dataset: Dataset,
    mode: str = "single-seasonal",
    parallelism: int = 1,
    priors: PriorSpec | None = None,
    standardized_units: bool = True,
) -> BenchReport:
    """Forecast and score every series; aggregate medians over the scored ones.

    Results are joined in input order, so the report content (other than
    timing) does not depend on ``parallelism``.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    started = time.perf_counter()

    def worker(entry: SeriesEntry):
        return _score_one(entry, mode, priors, standardized_units)

    if parallelism == 1 or len(dataset) <= 1:
        outcomes = [worker(entry) for entry in dataset.entries]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(worker, dataset.entries))

    scores = tuple(o for o in outcomes if isinstance(o, SeriesScore))
    failures = tuple(o for o in outcomes if isinstance(o, SeriesFailure))
    medians = {
        f"median_{name}": float(np.median([getattr(s.report, name) for s in scores])) if scores else None
        for name in _SCORED
    }
    return BenchReport(scores=scores, failures=failures, **medians, total_seconds=time.perf_counter() - started)


def emit_report(report: BenchReport, fmt: str = "human") -> str:
    """Render a report as JSON lines or as a fixed-column table.

    Both render the same records: one per scored series, one per failure
    and the aggregate.  A record's fields are written once, here.
    """
    if fmt not in ("human", "machine"):
        raise ValueError(f"format must be 'human' or 'machine', got {fmt!r}")
    series = [
        {
            "record": "series",
            "series": s.name,
            **{name: getattr(s.report, name) for name in _SCORED},
            "train_seconds": s.train_seconds,
            "converged": s.converged,
        }
        for s in report.scores
    ]
    failures = [{"record": "failure", "series": f.name, "reason": f.reason} for f in report.failures]
    aggregate = {
        "record": "aggregate",
        "scored": len(report.scores),
        "failed": len(report.failures),
        **{f"median_{name}": getattr(report, f"median_{name}") for name in _SCORED},
        "total_seconds": report.total_seconds,
    }
    if fmt == "machine":
        return "\n".join(json.dumps(record) for record in (*series, *failures, aggregate)) + "\n"
    header = f"{'series':<16} {'mae':>9} {'crps':>9} {'ll':>10} {'train_s':>8} {'converged':>9}"
    lines = [header, "-" * len(header)]
    for r in series:
        lines.append(
            f"{r['series']:<16} {r['mae']:>9.4f} {r['crps']:>9.4f} {r['ll']:>10.4f} "
            f"{r['train_seconds']:>8.3f} {'yes' if r['converged'] else 'no':>9}"
        )
    if failures:
        lines += ["", "failures:"] + [f"  {f['series']}: {f['reason']}" for f in failures]
    lines += ["", f"aggregate: scored={aggregate['scored']} failed={aggregate['failed']}"]
    if series:
        lines += [f"  median_{name:<4} {aggregate[f'median_{name}']:.4f}" for name in _SCORED]
    else:
        lines.append("  no series scored")
    lines.append(f"  total_seconds {aggregate['total_seconds']:.3f}")
    return "\n".join(lines) + "\n"


def parse_machine_report(text: str) -> dict:
    """Parse machine-format output back into records (round-trip safe); a malformed line raises ValueError."""
    series: list[dict] = []
    failures: list[dict] = []
    aggregate: dict | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"machine report line {lineno}: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"machine report line {lineno}: expected a JSON object, got {type(record).__name__}")
        kind = record.get("record")
        if kind == "series":
            series.append(record)
        elif kind == "failure":
            failures.append(record)
        elif kind == "aggregate":
            aggregate = record
        else:
            raise ValueError(f"machine report line {lineno}: unknown record type {kind!r}")
    if aggregate is None:
        raise ValueError("machine report has no aggregate record")
    return {"series": series, "failures": failures, "aggregate": aggregate}
