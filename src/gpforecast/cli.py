"""Command-line interface.

    gpforecast forecast INPUT.csv --freq monthly --horizon 18 --output out.csv
    gpforecast bench DATA.csv --freq monthly --format machine
    gpforecast priors --output priors.txt

Training takes no settings: every series is trained with one restart
from the prior medians (SM1's period at the series' own cycle and the
noise variance at its own level where the priors find them plausible),
until its quasi-Newton model predicts at most ``DECREASE_TOL`` nats left
to gain, or one of the other fixed stops of ``gpforecast.training``
fires.  ``--priors`` swaps in another priors file.
``gpforecast.bench`` reads every input file (``read_series``, ``load_csv``,
``load_priors``).  ``bench`` reports each series' iterations, objective
evaluations, failed evaluations and stop message, and their sums.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .bench import CsvLayout, emit_report, format_priors, load_csv, load_priors, read_series, run_benchmark
from .forecasting import PERIODIC_TERMS, TimeSeries, default_horizon, forecast, parse_frequency
from .gp import IllConditionedModelError
from .priors import default_priors


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
    values, first_step = read_series(args.input)
    ts = TimeSeries(values=values, steps_per_year=steps_per_year)
    horizon = args.horizon if args.horizon is not None else default_horizon(steps_per_year)
    with warnings.catch_warnings(record=True) as caught:  # printed once each below, not echoed by Python
        warnings.simplefilter("always")
        fc, _ = forecast(ts, horizon, mode=args.mode, priors=priors)
    lines = ["step,mean,variance"]
    after = first_step + len(ts)  # the step after the file's last: a file without steps counts from 0
    for i in range(horizon):
        lines.append(f"{after + i},{float(fc.mean[i])!r},{float(fc.variance[i])!r}")
    text = "\n".join(lines) + "\n"
    _write(text, args.output)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    priors = load_priors(args.priors) if args.priors else None
    dataset = load_csv(args.data, CsvLayout(steps_per_year=parse_frequency(args.freq), test_length=args.test_length))
    report = run_benchmark(dataset, mode=args.mode, priors=priors)
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
    p_fc.add_argument("input", help="CSV of one series: one value per row, a 'value' column, or series/step/value")
    p_fc.add_argument("--freq", required=True, help="monthly, quarterly, or steps per year")
    p_fc.add_argument("--horizon", type=int, default=None, help="steps to forecast (default by frequency)")
    p_fc.add_argument("--mode", default="single-seasonal", choices=list(PERIODIC_TERMS))
    p_fc.add_argument("--output", default=None, help="write forecast CSV here instead of stdout")
    p_fc.add_argument("--priors", default=None, help="alternative priors file")
    p_fc.set_defaults(func=_cmd_forecast)

    p_b = sub.add_parser("bench", help="run the benchmark over a dataset CSV, scored in standardized units")
    p_b.add_argument("data", help="dataset CSV: long if its header names series, step and value, else wide")
    p_b.add_argument("--freq", required=True, help="monthly, quarterly, or steps per year")
    p_b.add_argument("--test-length", type=int, default=None, dest="test_length")
    p_b.add_argument("--mode", default="single-seasonal", choices=list(PERIODIC_TERMS))
    p_b.add_argument("--format", default="human", choices=["human", "machine"])
    p_b.add_argument("--priors", default=None, help="alternative priors file")
    p_b.add_argument("--output", default=None, help="write the report here instead of stdout")
    p_b.add_argument("--allow-failures", action="store_true", help="exit 0 even if some series fail")
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
    except (ValueError, OSError, IllConditionedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
