"""Batch benchmarking: CSV input, per-series runs, aggregate report.

``load_csv`` reads a dataset in one of two CSV layouts, which the header
tells apart:

    long  a header that names series, step and value, among any other
          columns; one observation per row; steps are integer indices,
          unique per series, without gaps, in any order
    wide  any other header: one column per series, one step per row;
          shorter series end with empty trailing cells (so no wide file
          has series named all of series, step and value)

``read_series`` reads one series (bare numbers, one per row, a ``value``
column, or a long-layout file of one series) by the same rule, with the
step of its first value, and ``load_priors`` reads a priors file as
``format_priors`` writes it.  Every file the package reads is read here:
checked whole as UTF-8, a byte-order mark dropped, before any line is
parsed, with errors that name the line.  A CSV's first non-blank row is
data (bare numbers, which ``load_csv`` rejects) if its first cell is a
number, else a header that names no column twice and no row outgrows.

Each series is split into a training part and a test part of the
configured length, standardized on the training part, forecast with the
GP pipeline, and scored in standardized units, the only units that pool
over series of different scales.
Per-series failures (constant series, too-short series, invalid
hyperparameters, numerical breakdown) are recorded and reported; they
never abort the batch and are never silently dropped.  Any other
exception, a bare ``ValueError`` included, is a bug and propagates.

Scores, medians, and failure lists are bit-stable across parallelism
degrees; wall-clock timing fields are measurements and naturally vary.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forecasting import (
    MIN_SERIES_LENGTH,
    MONTHLY,
    ConstantSeriesError,
    Forecast,
    default_horizon,
    standardized_posterior,
)
from .gp import IllConditionedModelError, TimeSeries
from .kernels import PARAM_NAMES, InvalidHyperparameterError
from .metrics import ScoreReport, score
from .priors import LogNormalPrior, PriorSpec
from .training import TrainResult

__all__ = [
    "CsvFormatError",
    "CsvLayout",
    "SeriesEntry",
    "Dataset",
    "SeriesScore",
    "SeriesFailure",
    "BenchReport",
    "load_csv",
    "read_series",
    "format_priors",
    "load_priors",
    "seasonal_naive",
    "run_benchmark",
    "emit_report",
    "parse_machine_report",
]


class CsvFormatError(ValueError):
    """Malformed benchmark CSV; the message names the offending line, or the series and step."""


# the long layout's columns, which its readers find by name in the header
_LONG_COLUMNS = ("series", "step", "value")


def _is_long(header: list[str]) -> bool:
    """Whether a header is the long layout's: it names all of series, step and value; any other is wide."""
    return all(column in header for column in _LONG_COLUMNS)


@dataclass(frozen=True)
class CsvLayout:
    """The frequency of a dataset file's series and the length of their test parts.

    The file's header gives its layout: long if it names all of series,
    step and value, wide otherwise.  ``test_length=None`` picks the
    conventional split for the frequency (18 monthly steps, 8 quarterly,
    42 six-hourly); other frequencies must set it.
    """

    steps_per_year: float = MONTHLY
    test_length: int | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.steps_per_year) or self.steps_per_year <= 0:
            raise ValueError(f"steps_per_year must be finite and > 0, got {self.steps_per_year!r}")
        length = self.test_length
        if length is not None and not (isinstance(length, numbers.Integral) and length >= 1):  # rejects 2.5, 3.0
            raise ValueError(f"test length must be an integer >= 1, got {length!r}")


# plain records are NamedTuples, not frozen dataclasses: a fresh import defines them ten times faster
class SeriesEntry(NamedTuple):
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
            if not (isinstance(e.test_length, numbers.Integral) and e.test_length >= 1):  # rejects 2.5, 3.0
                raise ValueError(f"series {e.name!r}: test length must be an integer >= 1, got {e.test_length!r}")

    def __len__(self) -> int:
        return len(self.entries)


def load_csv(path, layout: CsvLayout) -> Dataset:
    """Parse a dataset file, long or wide as its header says; raises :class:`CsvFormatError` with line numbers."""
    lineno, header, body = _table(path)
    if header is None:
        raise CsvFormatError(f"{path}: line {lineno}: a number, not a header; a dataset file names its columns")
    per_series = _read_long(path, header, body) if _is_long(header) else _read_wide(path, lineno, header, body)
    test_length = layout.test_length if layout.test_length is not None else default_horizon(layout.steps_per_year)
    entries = tuple(
        SeriesEntry(
            name=name,
            series=TimeSeries(values=np.array(values, dtype=float), steps_per_year=layout.steps_per_year),
            test_length=test_length,
        )
        for name, values, *_ in per_series
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


def _lines(path) -> Iterator[str]:
    """A UTF-8 file's lines, endings kept, a leading byte-order mark dropped; checked whole, so a byte that is not
    UTF-8 fails before any line is parsed, then decoded as read, not held as a str of up to 4 bytes a character."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:  # bytes.splitlines ends lines at \n, \r\n or \r, as csv does
        at = err.start
        line = len(data[: at + 1].splitlines())
        raise CsvFormatError(f"{path}: line {line}: byte {at}, 0x{data[at]:02x}, is not UTF-8 ({err.reason})") from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _table(path) -> tuple[int, list[str] | None, Iterator[tuple[int, list[str]]]]:
    """The first non-blank row's line, the header or ``None`` for bare numbers, and the rows under it, stripped; a
    first row whose first cell is a number is bare numbers' first, and a header names no column twice."""
    reader = csv.reader(_lines(path))
    stripped = ([cell.strip() for cell in row] for row in reader)
    rows = ((reader.line_num, cells) for cells in stripped if any(cells))
    lineno, header = first = next(rows, (0, None))
    if header is None:
        raise CsvFormatError(f"{path}: file is empty")
    try:
        float(header[0])
    except ValueError:
        named = [name for name in header if name]  # empty names are trailing commas, given any number of times
        if len(set(named)) < len(named):
            raise CsvFormatError(f"{path}: line {lineno}: duplicate column names in header") from None
        return lineno, header, _below(path, header, rows)
    return lineno, None, _below(path, None, itertools.chain([first], rows))


def _below(path, header: list[str] | None, rows) -> Iterator[tuple[int, list[str]]]:
    """The rows under a header, none with more cells than it has columns, or bare numbers' rows, one cell each."""
    for lineno, row in rows:
        if header is None and len(row) > 1:
            raise CsvFormatError(f"{path}: line {lineno}: {len(row)} cells; a file of bare numbers holds one per row")
        if header is not None and len(row) > len(header):
            raise CsvFormatError(f"{path}: line {lineno}: more cells than header columns")
        yield lineno, row


def read_series(path) -> tuple[np.ndarray, int]:
    """One series: bare numbers, one per row, or a 'value' column in row order, or a long-layout file's one series
    in step order; and the step of its first value, the long layout's own or 0 for a file without steps."""
    lineno, header, body = _table(path)
    if header is not None and _is_long(header):
        per_series = _read_long(path, header, body)
        if len(per_series) != 1:
            raise CsvFormatError(f"{path}: holds {len(per_series)} series; a forecast reads one")
        _, values, first_step = per_series[0]
        return np.array(values), first_step
    if header is not None and "value" not in header:
        raise CsvFormatError(f"{path}: line {lineno}: header must contain a 'value' column, got {header}")
    value_idx = 0 if header is None else header.index("value")
    return np.array([_parse_value(row[value_idx] if value_idx < len(row) else "", path, n) for n, row in body]), 0


def _read_long(path, header: list[str], body) -> list[tuple[str, list[float], int]]:
    """Each series' name, its values in step order and its first step."""
    s_idx, t_idx, v_idx = (header.index(column) for column in _LONG_COLUMNS)
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
        per_series.append((name, [series[k] for k in steps], steps[0]))
    return per_series


def _read_wide(path, lineno: int, header: list[str], body) -> list[tuple[str, list[float]]]:
    if any(not h for h in header):
        raise CsvFormatError(f"{path}: line {lineno}: empty series name in header")
    columns: list[list[float]] = [[] for _ in header]
    ended = [False] * len(header)
    for lineno, row in body:
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
            try:
                columns[j].append(_parse_value(cell, path, lineno))
            except CsvFormatError as err:  # a long header misspelt reads as wide and fails here
                raise CsvFormatError(
                    f"{err}; the header was read as wide, and a long header names all of series, step and value"
                ) from None
    return [(name, col) for name, col in zip(header, columns)]


def format_priors(priors: PriorSpec) -> str:
    """Priors as ``name = nu lam`` lines (parse back with load_priors)."""
    lines = ["# lognormal hyperparameter priors: name = nu lam"]
    lines += [f"{name} = {priors[name].nu!r} {priors[name].lam!r}" for name in priors.entries]
    return "\n".join(lines) + "\n"


def load_priors(path) -> PriorSpec:
    """Parse a priors file as :func:`format_priors` writes it, one ``name = nu lam`` line per parameter.

    The file is read as a CSV is; ``#`` starts a comment and blank lines
    are skipped.  A byte that is not UTF-8, a line without ``=``, a name
    not in ``PARAM_NAMES``, a name given twice and a value that is not a
    valid prior's two numbers are errors naming the line; missing entries
    for known names are reported by name.
    """
    entries: dict[str, LogNormalPrior] = {}
    for lineno, raw in enumerate(_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'name = value'")
        name, _, text = line.partition("=")
        name, text = name.strip(), text.strip()
        if name not in PARAM_NAMES:
            raise ValueError(f"{path}: line {lineno}: unknown name {name!r} (known: {sorted(PARAM_NAMES)})")
        if name in entries:
            raise ValueError(f"{path}: line {lineno}: duplicate entry for {name!r}")
        try:
            parts = text.split()
            if len(parts) != 2:
                raise ValueError("expected two numbers (nu lam)")
            entries[name] = LogNormalPrior(nu=float(parts[0]), lam=float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad value {text!r} for {name}: {exc}") from None
    missing = sorted(set(PARAM_NAMES) - set(entries))
    if missing:
        raise ValueError(f"{path}: missing priors for {missing}")
    return PriorSpec(entries=entries)


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
    return Forecast(mean=mean, variance=np.full(horizon, variance))


class SeriesScore(NamedTuple):
    """A scored series: its scores and the :class:`TrainResult` of its fit, whose facts the report reads."""

    name: str
    report: ScoreReport
    fit: TrainResult

    train_seconds = property(lambda self: self.fit.seconds)
    converged = property(lambda self: self.fit.converged)


class SeriesFailure(NamedTuple):
    name: str
    reason: str


# The records of a report, each kind's keys in order after "record", with how the kind's object gives
# each value, its role and its JSON type, one of _JSON_TYPES.  The role is "score", whose median over the
# scored series the aggregate carries; "sum", a count the aggregate sums over them; "timing", a wall-clock
# measurement, which deterministic_view() leaves out; or "".  A series key ends with its human column:
# header, alignment and width, and how its value prints.
_SERIES_RECORD = (  # one per SeriesScore
    ("series", lambda s: s.name, "", "a string", "series", "<16", str),  # a failure record's too
    ("mae", lambda s: s.report.mae, "score", "a number", "mae", ">9", "{:.4f}".format),
    ("crps", lambda s: s.report.crps, "score", "a number", "crps", ">9", "{:.4f}".format),
    ("ll", lambda s: s.report.ll, "score", "a number", "ll", ">10", "{:.4f}".format),
    ("train_seconds", lambda s: s.train_seconds, "timing", "a number", "train_s", ">8", "{:.3f}".format),
    ("converged", lambda s: s.converged, "", "a boolean", "converged", ">9", lambda v: "yes" if v else "no"),
    # the fit's optimizer facts, read from its TrainResult
    ("iterations", lambda s: s.fit.iterations, "sum", "an integer", "iters", ">5", str),
    ("nfev", lambda s: s.fit.nfev, "sum", "an integer", "nfev", ">5", str),
    ("penalty_evals", lambda s: s.fit.penalty_evals, "sum", "an integer", "penalty", ">7", str),
    ("termination", lambda s: s.fit.termination, "", "a string", "termination", "", str),
)
_SCORED = tuple((key, get) for key, get, role, *_ in _SERIES_RECORD if role == "score")
_SUMMED = tuple((key, get) for key, get, role, *_ in _SERIES_RECORD if role == "sum")
RECORDS = {
    "series": _SERIES_RECORD,
    "failure": (_SERIES_RECORD[0], ("reason", lambda f: f.reason, "", "a string")),  # one per SeriesFailure
    "aggregate": (  # one per BenchReport, last
        ("scored", lambda r: len(r.scores), "", "an integer"),
        ("failed", lambda r: len(r.failures), "", "an integer"),
        *((f"median_{key}", lambda r, k=key: getattr(r, f"median_{k}"), "", "a number or null") for key, _ in _SCORED),
        *((key, lambda r, get=get: sum(get(s) for s in r.scores), "", "an integer") for key, get in _SUMMED),
        ("total_seconds", lambda r: r.total_seconds, "timing", "a number"),
    ),
}
# each JSON type's values as json.loads gives them back: exact types, so true is no number and 3.0 no integer;
# a number is finite too, as emit_report writes it, so NaN and the infinities are none
_JSON_TYPES = {
    "a string": (str,),
    "a number": (int, float),
    "an integer": (int,),
    "a boolean": (bool,),
    "a number or null": (int, float, type(None)),
}
TIMING = frozenset(key for fields in RECORDS.values() for key, _, role, *_ in fields if role == "timing")


@dataclass(frozen=True)
class BenchReport:
    """Scores for every series that ran, failures for every one that did not.

    ``count(scores) + count(failures)`` always equals the input series
    count.  ``median_mae``, ``median_crps`` and ``median_ll`` are taken
    from the scores; ``None`` when nothing scored.
    """

    scores: tuple[SeriesScore, ...]
    failures: tuple[SeriesFailure, ...]
    total_seconds: float

    median_mae, median_crps, median_ll = (
        property(lambda self, get=get: float(np.median([get(s) for s in self.scores])) if self.scores else None)
        for _, get in _SCORED
    )

    def deterministic_view(self) -> dict:
        """Everything in the report but its :data:`TIMING` keys: each series' and failure's values, and the medians."""
        kept = {kind: [get for key, get, *_ in fields if key not in TIMING] for kind, fields in RECORDS.items()}
        return {
            "scores": [tuple(get(s) for get in kept["series"]) for s in self.scores],
            "failures": [tuple(get(f) for get in kept["failure"]) for f in self.failures],
            "medians": tuple(getattr(self, f"median_{key}") for key, _ in _SCORED),
        }


def _score_one(entry: SeriesEntry, mode: str, priors: PriorSpec | None) -> SeriesScore | SeriesFailure:
    n, train_length = len(entry.series), len(entry.series) - entry.test_length
    if train_length < MIN_SERIES_LENGTH:  # worded as the pipeline's own ValueErrors
        reason = (
            f"test length {entry.test_length} leaves no training data (length {n})"
            if train_length <= 0
            else f"need at least {MIN_SERIES_LENGTH} observations, got {train_length}"
        )
        return SeriesFailure(name=entry.name, reason=f"ValueError: {reason}")
    values = entry.series.values
    train_ts = TimeSeries(values=values[:train_length], steps_per_year=entry.series.steps_per_year)
    try:
        posterior, standardizer, result = standardized_posterior(train_ts, entry.test_length, mode=mode, priors=priors)
    except (ConstantSeriesError, InvalidHyperparameterError, IllConditionedModelError) as exc:  # bad data or numerics
        return SeriesFailure(name=entry.name, reason=f"{type(exc).__name__}: {exc}")
    report = score(standardizer.transform(values[train_length:]), posterior.mean, posterior.observation_variance)
    return SeriesScore(name=entry.name, report=report, fit=result)


def run_benchmark(
    dataset: Dataset,
    mode: str = "single-seasonal",
    parallelism: int = 1,
    priors: PriorSpec | None = None,
) -> BenchReport:
    """Forecast and score every series; aggregate medians over the scored ones.

    ``parallelism`` is an integer >= 1; anything else raises ValueError
    before any work.  Above 1 the series run in a thread pool, slower than
    serial on a 2-vCPU host, which the command line does not offer; it
    stays for perfbench's cross-path check.  Results are joined in input
    order, so the report content (other than timing) does not depend on
    ``parallelism``.
    """
    if not (isinstance(parallelism, numbers.Integral) and parallelism >= 1):  # rejects 2.5, NaN, "2"
        raise ValueError(f"parallelism must be an integer >= 1, got {parallelism!r}")
    started = time.perf_counter()

    def worker(entry: SeriesEntry):
        return _score_one(entry, mode, priors)

    if parallelism == 1 or len(dataset) <= 1:
        outcomes = [worker(entry) for entry in dataset.entries]
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported here: a serial run, and a forecast, never need it

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(worker, dataset.entries))

    scores = tuple(o for o in outcomes if isinstance(o, SeriesScore))
    failures = tuple(o for o in outcomes if isinstance(o, SeriesFailure))
    return BenchReport(scores=scores, failures=failures, total_seconds=time.perf_counter() - started)


def emit_report(report: BenchReport, fmt: str = "human") -> str:
    """Render a report's :data:`RECORDS` (each scored series, each failure, the aggregate) as JSON lines or a table."""
    if fmt not in ("human", "machine"):
        raise ValueError(f"format must be 'human' or 'machine', got {fmt!r}")
    kinds = (*(("series", s) for s in report.scores), *(("failure", f) for f in report.failures), ("aggregate", report))
    records = [{"record": kind, **{key: get(o) for key, get, *_ in RECORDS[kind]}} for kind, o in kinds]
    if fmt == "machine":
        import json  # imported here: loading a dataset, and a forecast, never need it

        return "\n".join(json.dumps(record, allow_nan=False) for record in records) + "\n"
    n, aggregate = len(report.scores), records[-1]
    header = " ".join(f"{title:{width}}" for *_, title, width, _ in _SERIES_RECORD)
    lines = [header, "-" * len(header)]
    lines += [" ".join(f"{show(r[key]):{width}}" for key, *_, width, show in _SERIES_RECORD) for r in records[:n]]
    if report.failures:
        lines += ["", "failures:"] + [f"  {f['series']}: {f['reason']}" for f in records[n:-1]]
    lines += ["", f"aggregate: scored={aggregate['scored']} failed={aggregate['failed']}"]
    if report.scores:
        lines += [f"  median_{key:<4} {aggregate[f'median_{key}']:.4f}" for key, _ in _SCORED]
    else:
        lines.append("  no series scored")
    lines.append("  summed " + " ".join(f"{key}={aggregate[key]}" for key, _ in _SUMMED))
    lines.append(f"  total_seconds {aggregate['total_seconds']:.3f}")
    return "\n".join(lines) + "\n"


def parse_machine_report(text: str) -> dict:
    """Parse machine-format output back into records (round-trip safe).

    Each record holds exactly the keys :data:`RECORDS` declares for its kind, each of its declared JSON type
    (a number is finite: NaN, Infinity and -Infinity are none),
    and one aggregate comes last, counting the records before it; a report that breaks this raises
    ValueError naming the line.
    """
    import json

    parsed: dict[str, list[dict]] = {kind: [] for kind in RECORDS}
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
        if kind not in RECORDS:
            raise ValueError(f"machine report line {lineno}: unknown record type {kind!r}")
        keys = ["record", *(key for key, *_ in RECORDS[kind])]
        if record.keys() != set(keys):
            raise ValueError(f"machine report line {lineno}: a {kind} record has keys {list(record)}, not {keys}")
        for key, _, _, json_type, *_ in RECORDS[kind]:
            value = record[key]
            if type(value) not in _JSON_TYPES[json_type] or (type(value) is float and not math.isfinite(value)):
                value = json.dumps(value)
                raise ValueError(f"machine report line {lineno}: {kind} key {key!r} holds {value}, not {json_type}")
        if parsed["aggregate"]:
            raise ValueError(f"machine report line {lineno}: a {kind} record after the aggregate")
        held = {"scored": len(parsed["series"]), "failed": len(parsed["failure"])}
        if kind == "aggregate" and {key: record[key] for key in held} != held:
            raise ValueError(f"machine report line {lineno}: the aggregate miscounts the records before it, {held}")
        parsed[kind].append(record)
    if not parsed["aggregate"]:
        raise ValueError("machine report has no aggregate record")
    return {"series": parsed["series"], "failures": parsed["failure"], "aggregate": parsed["aggregate"][0]}
