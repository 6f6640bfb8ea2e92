"""Forecast digest of the benchmark series, for comparing two checkouts.

Run from the root of a checkout:

    python tools/forecast_digest.py > digest.jsonl
    OPENBLAS_NUM_THREADS=1 python tools/forecast_digest.py > digest-1thread.jsonl

Each line is one series of a perfbench workload (every workload, one
copy of its design, at seeds 1 and 20201): the trained theta, iterations,
nfev and converged, and the standardized predictive means and observation
variances, every float written so that it reads back bit for bit.  The
program is imported from the checkout's ``src``, the series from
``perfbench/workloads.py``.  Two digests are compared with

    python tools/forecast_digest.py --compare parent.jsonl change.jsonl

which counts the series whose theta, iterations, nfev or converged differ
and reports the largest relative move of the means and of the variances.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 20201)
EXACT = ("theta", "iterations", "nfev", "converged")
MOVED = ("mean", "variance")


def digest():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    from gpforecast.forecasting import TimeSeries, standardized_posterior

    warnings.simplefilter("ignore")  # non-convergence warnings; the converged flag is recorded
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for series_name, values in workloads.generate(name, seed):
                ts = TimeSeries(values[: -workload.horizon], workload.steps_per_year)
                posterior, _, result = standardized_posterior(ts, workload.horizon, mode=workload.mode)
                yield {
                    "workload": name,
                    "seed": seed,
                    "series": series_name,
                    "theta": list(result.theta.values),
                    "iterations": result.iterations,
                    "nfev": result.nfev,
                    "converged": result.converged,
                    "mean": posterior.mean.tolist(),
                    "variance": posterior.observation_variance.tolist(),
                }


def compare(parent_path: str, change_path: str) -> None:
    def read(path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    parent, change = read(parent_path), read(change_path)
    keys = [(r["workload"], r["seed"], r["series"]) for r in parent]
    if keys != [(r["workload"], r["seed"], r["series"]) for r in change]:
        raise SystemExit("the digests hold different series")
    print(f"{len(parent)} series")
    for field in EXACT:
        differ = sum(a[field] != b[field] for a, b in zip(parent, change))
        print(f"{field}: {differ} differ")
    for field in MOVED:
        pairs = [(p, q) for a, b in zip(parent, change) for p, q in zip(a[field], b[field])]
        absolute = max(abs(q - p) for p, q in pairs)
        relative = max(abs(q - p) / max(abs(p), sys.float_info.min) for p, q in pairs)
        identical = sum(a[field] == b[field] for a, b in zip(parent, change))
        print(
            f"{field}: {identical} series bit-identical, largest move {absolute:.3g} absolute"
            f" (standardized units), {relative:.3g} relative"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two digests")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    for record in digest():
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
