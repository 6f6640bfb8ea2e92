"""Command-line interface.

    gpforecast forecast INPUT.csv --freq monthly --horizon 18 --output out.csv
    gpforecast bench DATA.csv --freq monthly --parallel 4 --format machine
    gpforecast priors --output priors.txt

Training takes no settings: every series is trained with one restart
from the prior medians, under the fixed stopping rules of
``gpforecast.training``.  ``--priors`` swaps in another priors file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import CsvLayout, _parse_value, _read_rows, emit_report, load_csv, run_benchmark
from .forecasting import _PERIODIC_TERMS, TimeSeries, default_horizon, forecast, parse_frequency
from .priors import default_priors, format_priors, load_priors


def _read_values(path) -> np.ndarray:
    """Read a single-series CSV: bare numbers, or a file with a 'value' column."""
    rows = list(_read_rows(path))
    lineno, first = rows[0]
    value_idx = 0
    try:
        float(first[0])
    except ValueError:
        if "value" not in first:
            raise ValueError(f"{path}: line {lineno}: header must contain a 'value' column, got {first}") from None
        value_idx = first.index("value")
        rows = rows[1:]
    values = []
    for lineno, row in rows:
        cell = row[value_idx] if value_idx < len(row) else ""
        values.append(_parse_value(cell, path, lineno))
    return np.array(values)


def _write(text: str, output: str | None) -> None:
    """Write ``text`` to the file ``output``, or to stdout without one."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_forecast(args) -> int:
    priors = load_priors(args.priors) if args.priors else None
    steps_per_year = parse_frequency(args.freq)
    ts = TimeSeries(values=_read_values(args.input), steps_per_year=steps_per_year)
    horizon = args.horizon if args.horizon is not None else default_horizon(steps_per_year)
    fc, result = forecast(ts, horizon, mode=args.mode, priors=priors)
    lines = ["step,mean,variance"]
    n = len(ts)
    for i in range(horizon):
        lines.append(f"{n + i},{float(fc.mean[i])!r},{float(fc.variance[i])!r}")
    text = "\n".join(lines) + "\n"
    _write(text, args.output)
    if not result.converged:
        print(
            f"warning: training did not converge ({result.iterations} iterations): {result.termination}",
            file=sys.stderr,
        )
    return 0


def _cmd_bench(args) -> int:
    priors = load_priors(args.priors) if args.priors else None
    layout = CsvLayout(
        layout=args.layout,
        steps_per_year=parse_frequency(args.freq),
        test_length=args.test_length,
    )
    dataset = load_csv(args.data, layout)
    report = run_benchmark(
        dataset,
        mode=args.mode,
        parallelism=args.parallel,
        priors=priors,
        standardized_units=not args.original_units,
    )
    text = emit_report(report, fmt=args.format)
    _write(text, args.output)
    if report.failures and not args.allow_failures:
        print(f"error: {len(report.failures)} series failed", file=sys.stderr)
        return 1
    return 0


def _cmd_priors(args) -> int:
    priors = load_priors(args.priors) if args.priors else default_priors()
    _write(format_priors(priors), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpforecast", description="GP-based automatic time-series forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fc = sub.add_parser("forecast", help="forecast one series from a CSV of values")
    p_fc.add_argument("input", help="CSV with one value per row (or a 'value' column)")
    p_fc.add_argument("--freq", required=True, help="monthly, quarterly, or steps per year")
    p_fc.add_argument("--horizon", type=int, default=None, help="steps to forecast (default by frequency)")
    p_fc.add_argument("--mode", default="single-seasonal", choices=list(_PERIODIC_TERMS))
    p_fc.add_argument("--output", default=None, help="write forecast CSV here instead of stdout")
    p_fc.add_argument("--priors", default=None, help="alternative priors file")
    p_fc.set_defaults(func=_cmd_forecast)

    p_b = sub.add_parser("bench", help="run the benchmark over a dataset CSV")
    p_b.add_argument("data", help="dataset CSV")
    p_b.add_argument("--layout", default="long", choices=["long", "wide"])
    p_b.add_argument("--freq", required=True, help="monthly, quarterly, or steps per year")
    p_b.add_argument("--test-length", type=int, default=None, dest="test_length")
    p_b.add_argument("--mode", default="single-seasonal", choices=list(_PERIODIC_TERMS))
    p_b.add_argument("--parallel", type=int, default=1, help="series-level worker threads")
    p_b.add_argument("--format", default="human", choices=["human", "machine"])
    p_b.add_argument("--priors", default=None, help="alternative priors file")
    p_b.add_argument("--output", default=None, help="write the report here instead of stdout")
    p_b.add_argument("--allow-failures", action="store_true", help="exit 0 even if some series fail")
    p_b.add_argument(
        "--original-units", action="store_true", help="score in original units instead of standardized"
    )
    p_b.set_defaults(func=_cmd_bench)

    p_p = sub.add_parser("priors", help="print or export the active hyperparameter priors")
    p_p.add_argument("--priors", default=None, help="load this priors file instead of the defaults")
    p_p.add_argument("--output", default=None, help="write here instead of stdout")
    p_p.set_defaults(func=_cmd_priors)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
