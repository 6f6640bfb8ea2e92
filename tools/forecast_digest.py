"""Forecast digest of the benchmark series, for comparing two checkouts.

Run from the root of a checkout:

    python tools/forecast_digest.py > digest.jsonl
    OPENBLAS_NUM_THREADS=1 python tools/forecast_digest.py > digest-1thread.jsonl

Each line is one series of a perfbench workload (every workload, one
copy of its design, at seeds 1 and 20201): the trained theta, the MAP
objective there, iterations, nfev, the failed evaluations
(``penalty_evals``: trial points whose objective could not be
evaluated), converged, the optimizer's termination message, and the
standardized predictive means and observation variances, every float
written so that it reads back bit for bit.  A RuntimeWarning (an overflow, a division by zero, an invalid
value) stops the digest with that warning as an error.  The program is
imported from the checkout's ``src``, the series from
``perfbench/workloads.py``.  Two digests are compared with

    python tools/forecast_digest.py --compare parent.jsonl change.jsonl

which counts the series whose theta, objective, iterations, nfev,
penalty_evals, converged or termination differ and reports the largest
relative move of the means and of the variances.  It also prints each digest's
iterations and nfev summed over the series, and how many series'
objective rose or fell by more than 1e-6 nats, with the largest fall.
One line per workload then gives its nfev summed in each digest and on
how many series it rose, how many series' objective fell by more than
1e-3 nats and the largest fall, and how many series' converged flag
flipped, in each direction.
It exits 1 unless the two digests agree bit for bit: no series differs
in those fields, and every series' means and variances are identical.
A field that either digest lacks on any series fails the comparison too.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 20201)
EXACT = ("theta", "objective", "iterations", "nfev", "penalty_evals", "converged", "termination")
SUMMED = ("iterations", "nfev")
# an objective move larger than this, in nats, counts as a rise or a fall
OBJECTIVE_MOVE = 1e-6
# per workload, an objective fall larger than this, in nats, is counted and the largest named
WORKLOAD_FALL = 1e-3
MOVED = ("mean", "variance")


def digest():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    from gpforecast.forecasting import TimeSeries, standardized_posterior

    warnings.simplefilter("ignore")  # non-convergence warnings; the converged flag is recorded
    warnings.simplefilter("error", RuntimeWarning)  # but a numerical warning fails the digest
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
                    "objective": result.objective,
                    "iterations": result.iterations,
                    "nfev": result.nfev,
                    "penalty_evals": result.penalty_evals,
                    "converged": result.converged,
                    "termination": result.termination,
                    "mean": posterior.mean.tolist(),
                    "variance": posterior.observation_variance.tolist(),
                }


def compare(parent_path: str, change_path: str) -> bool:
    """Print how the two digests differ; True if they agree bit for bit."""
    def read(path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    parent, change = read(parent_path), read(change_path)
    keys = [(r["workload"], r["seed"], r["series"]) for r in parent]
    if keys != [(r["workload"], r["seed"], r["series"]) for r in change]:
        raise SystemExit("the digests hold different series")
    for field in (*EXACT, *MOVED):
        for side, records in (("parent", parent), ("change", change)):
            lacking = sum(field not in r for r in records)
            if lacking:
                raise SystemExit(f"{field}: missing from {lacking} series of the {side} digest")
    print(f"{len(parent)} series")
    same = True
    for field in EXACT:
        differ = sum(a[field] != b[field] for a, b in zip(parent, change))
        print(f"{field}: {differ} differ")
        same = same and differ == 0
    for field in SUMMED:
        print(f"{field} summed: {sum(r[field] for r in parent)} -> {sum(r[field] for r in change)}")
    moves = [(b["objective"] - a["objective"], a) for a, b in zip(parent, change)]
    rose = sum(move > OBJECTIVE_MOVE for move, _ in moves)
    fell = sum(move < -OBJECTIVE_MOVE for move, _ in moves)
    fall, where = min(moves, key=lambda m: m[0])
    largest = f", largest fall {-fall:.3g} ({where['workload']} seed {where['seed']} {where['series']})" if fell else ""
    print(f"objective: {rose} series rose, {fell} fell by more than {OBJECTIVE_MOVE:g}{largest}")
    for name in dict.fromkeys(r["workload"] for r in parent):
        pairs = [(a, b) for a, b in zip(parent, change) if a["workload"] == name]
        nfev = [sum(r["nfev"] for r in side) for side in zip(*pairs)]
        more = sum(b["nfev"] > a["nfev"] for a, b in pairs)
        falls = [(a["objective"] - b["objective"], a) for a, b in pairs]
        falls = [(fall, a) for fall, a in falls if fall > WORKLOAD_FALL]
        fall, where = max(falls, key=lambda f: f[0], default=(0.0, None))
        largest = f", largest {fall:.3g} (seed {where['seed']} {where['series']})" if falls else ""
        lost = sum(a["converged"] and not b["converged"] for a, b in pairs)
        gained = sum(b["converged"] and not a["converged"] for a, b in pairs)
        print(
            f"{name}: nfev summed {nfev[0]} -> {nfev[1]}, rose on {more} series; objective fell by more than {WORKLOAD_FALL:g}"
            f" on {len(falls)} series{largest}; converged flipped true -> false on {lost}, false -> true on {gained}"
        )
    for field in MOVED:
        pairs = [(p, q) for a, b in zip(parent, change) for p, q in zip(a[field], b[field])]
        absolute = max(abs(q - p) for p, q in pairs)
        relative = max(abs(q - p) / max(abs(p), sys.float_info.min) for p, q in pairs)
        identical = sum(a[field] == b[field] for a, b in zip(parent, change))
        print(
            f"{field}: {identical} series bit-identical, largest move {absolute:.3g} absolute"
            f" (standardized units), {relative:.3g} relative"
        )
        same = same and identical == len(parent)
    return same


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two digests")
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    for record in digest():
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
