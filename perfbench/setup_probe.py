"""Time one cold start: a fresh ``import gpforecast`` until the inputs are ready.

Run as a child process so that the import is really fresh.  The inputs
were generated beforehand; only their loading into the program's own form
is timed: ``load_csv`` for the run_benchmark workloads, ``TimeSeries``
objects for the forecast() workloads.

Afterwards it times the benchmark's reference burst (see ``hostspeed``),
so that the caller can rescale the cold start to nominal host speed.

Prints one JSON object: ``{"setup_s": ..., "burst_s": ..., "series": ...}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BURSTS = 5


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--kind", choices=("csv", "npz"), required=True)
    parser.add_argument("--path", required=True)
    parser.add_argument("--steps-per-year", type=float, required=True)
    parser.add_argument("--horizon", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src)))

    start = time.perf_counter()
    import gpforecast

    if args.kind == "csv":
        layout = gpforecast.CsvLayout(steps_per_year=args.steps_per_year, test_length=args.horizon)
        count = len(gpforecast.load_csv(args.path, layout))
    else:
        import numpy as np

        with np.load(args.path) as arrays:
            inputs = [
                gpforecast.TimeSeries(values=arrays[key][: -args.horizon], steps_per_year=args.steps_per_year)
                for key in arrays.files
            ]
        count = len(inputs)
    elapsed = time.perf_counter() - start

    import hostspeed

    hostspeed.burst()  # first call warms scipy's LAPACK wrappers
    burst_s = statistics.median(hostspeed.burst() for _ in range(BURSTS))
    print(json.dumps({"setup_s": elapsed, "burst_s": burst_s, "series": count}))


if __name__ == "__main__":
    main()
