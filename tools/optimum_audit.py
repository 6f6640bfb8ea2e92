"""Optimum audit: how far a single restart falls short of the best of five.

Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python tools/optimum_audit.py

For every series of the perfbench designs (monthly-forecast at seeds 1 to
10, 240 series; six-hourly-double at seeds 1, 2, 3 and 20201, 104
series) it trains the forecast's model twice on the training part, as
``standardized_posterior`` does: once with its default of one restart
(from the prior medians, with SM1's period at the series' cycle and the
noise variance at the level of its high-frequency bins, where the priors
find them plausible) and once with ``restarts=5``, whose first restart
is that same start.  A series whose single restart ends more than 0.1
nats below the best of five is a miss.  Per workload it
prints each miss, then the number of misses, the nats missed in total,
and the objective evaluations and the failed ones (trial points whose
objective could not be evaluated) summed over the series, for one
restart and for five.  Training is deterministic, so two runs of one
checkout print the same lines.  ``--limit N`` audits only the first N series of
each seed's design, for a quick look, and ``--seeds`` audits other seeds
(held-out ones, say) in place of the default ones.  ``--records PATH``
also writes one JSON line per series.  Two such files, from a parent and
a change, are compared with

    python tools/optimum_audit.py --compare parent.jsonl change.jsonl

which prints, per workload, each side's misses and missed nats, and its
nfev and failed evaluations summed for one restart and for five; how
much of the change in missed nats comes from the single restarts (the
change's single restarts against the parent's best of five) and how much
from the best of five; the largest fall of a single restart, however
small; then each series whose single restart rose or fell by more than
0.1 nats against the other side, and last the change's new misses whose single restart moved
by at most 0.1 nats (their best of five rose).  The audit as a gate:

    OPENBLAS_NUM_THREADS=1 python tools/optimum_audit.py --check tools/optimum_audit_bounds.json

audits every series of each workload the bounds file names, at its
default seeds, and exits 1 if one passes a ceiling on its misses, its
missed nats, its single restarts' failed evaluations or their nfev,
naming the workload and the series behind it (for nfev, the workload
alone).  It refuses ``--limit`` and ``--seeds``
(exit 2): a narrowed audit does not check the ceilings.  The program is
imported from the checkout's ``src``, the series from
``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"monthly-forecast": tuple(range(1, 11)), "six-hourly-double": (1, 2, 3, 20201)}
RESTARTS = 5
# a single restart that ends more than this many nats below the best of RESTARTS is a miss
MISS = 0.1


def audit(name: str, seeds, limit: int | None = None):
    """One record per series: its seed and name, and each run's objective, nfev and failed evaluations."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    from gpforecast.forecasting import TimeSeries, standardized_posterior

    workload = workloads.WORKLOADS[name]
    for seed in seeds:
        for series_name, values in workloads.generate(name, seed)[:limit]:
            ts = TimeSeries(values[: -workload.horizon], workload.steps_per_year)
            runs = [
                standardized_posterior(ts, workload.horizon, mode=workload.mode, restarts=r)[2]
                for r in (1, RESTARTS)
            ]
            yield {
                "workload": name,
                "seed": seed,
                "series": series_name,
                "single": runs[0].objective,
                "best": runs[1].objective,
                "single_nfev": runs[0].nfev,
                "best_nfev": runs[1].nfev,
                "single_penalty_evals": runs[0].penalty_evals,
                "best_penalty_evals": runs[1].penalty_evals,
            }


def summed(records, field: str) -> str:
    """``field`` (nfev or penalty_evals) summed over the records, for one restart and for five."""
    single, best = (sum(r[f"{run}_{field}"] for r in records) for run in ("single", "best"))
    return f"{single} (one restart), {best} ({RESTARTS} restarts)"


def report(name: str, records) -> None:
    """Print the misses of one workload and its totals."""
    records = list(records)
    misses = [r for r in records if r["best"] - r["single"] > MISS]
    for r in misses:
        print(
            f"{name} seed {r['seed']} {r['series']}: single {r['single']:.4f},"
            f" best of {RESTARTS} {r['best']:.4f}, missed {r['best'] - r['single']:.4f}"
        )
    missed = sum(r["best"] - r["single"] for r in misses)
    print(
        f"{name}: {len(records)} series, {len(misses)} miss by more than {MISS:g} nats, {missed:.2f} nats in total;"
        f" nfev summed {summed(records, 'nfev')}; failed evaluations summed {summed(records, 'penalty_evals')}",
        flush=True,
    )


def compare(parent, change) -> None:
    """Print, per workload, how the single restarts of two audits' records differ."""
    def key(r):
        return r["workload"], r["seed"], r["series"]

    before = {key(r): r for r in parent}
    if sorted(before) != sorted(key(r) for r in change):
        raise SystemExit("the records hold different series")

    def missed(runs):
        """Misses and missed nats of (record, record) pairs, the first's single restart against the second's best."""
        gaps = [b["best"] - s["single"] for s, b in runs if b["best"] - s["single"] > MISS]
        return len(gaps), sum(gaps)

    def line(r, a):
        return (
            f"  seed {r['seed']} {r['series']}: single {a['single']:.4f} -> {r['single']:.4f}"
            f" ({r['single'] - a['single']:+.4f}), best of {RESTARTS} {a['best']:.4f} -> {r['best']:.4f}"
        )

    for name in dict.fromkeys(r["workload"] for r in change):
        pairs = [(r, before[key(r)]) for r in change if r["workload"] == name]
        parent_misses, parent_nats = missed([(a, a) for _, a in pairs])
        change_misses, change_nats = missed([(r, r) for r, _ in pairs])
        _, crossed_nats = missed(pairs)  # the change's single restarts against the parent's best
        print(
            f"{name}: {len(pairs)} series; parent {parent_misses} misses, {parent_nats:.2f} nats,"
            f" change {change_misses} misses, {change_nats:.2f} nats"
        )
        for field, title in (("nfev", "nfev"), ("penalty_evals", "failed evaluations")):
            sides = (summed([a for _, a in pairs], field), summed([r for r, _ in pairs], field))
            print(f"{name}: {title} summed, parent {sides[0]}; change {sides[1]}")
        print(
            f"{name}: missed nats {change_nats - parent_nats:+.2f}: {crossed_nats - parent_nats:+.2f} from single"
            f" restarts, {change_nats - crossed_nats:+.2f} from the best of {RESTARTS}"
        )
        r, a = max(pairs, key=lambda pair: pair[1]["single"] - pair[0]["single"])
        if a["single"] > r["single"]:
            print(f"{name}: largest single-restart fall {a['single'] - r['single']:.4f} nats, seed {r['seed']} {r['series']}")
        else:
            print(f"{name}: no single restart fell")
        fell = [(r, a) for r, a in pairs if a["single"] - r["single"] > MISS]
        rose = [(r, a) for r, a in pairs if r["single"] - a["single"] > MISS]
        unmoved = [
            (r, a) for r, a in pairs
            if r["best"] - r["single"] > MISS >= a["best"] - a["single"] and abs(r["single"] - a["single"]) <= MISS
        ]
        for title, chosen in (
            (f"series whose single restart fell by more than {MISS:g} nats", fell),
            (f"series whose single restart rose by more than {MISS:g} nats", rose),
            ("new misses whose single restart did not move", unmoved),
        ):
            print(f"{name}: {len(chosen)} {title}")
            for r, a in chosen:
                print(line(r, a))


def check(bounds, records) -> list[str]:
    """Each ceiling of ``bounds`` that ``records`` pass, one line naming the workload and its series; empty if none.

    ``bounds["ceilings"]`` maps a workload to its ceilings on ``misses``,
    ``missed_nats``, ``single_failed_evaluations`` (failed evaluations
    summed over the single restarts) and ``single_nfev`` (their objective
    evaluations summed).
    """
    failures = []
    for name, ceiling in bounds["ceilings"].items():
        chosen = [r for r in records if r["workload"] == name]
        if not chosen:
            failures.append(f"{name}: no series audited")
        misses = [r for r in chosen if r["best"] - r["single"] > MISS]
        missed = sum(r["best"] - r["single"] for r in misses)
        failed = [r for r in chosen if r["single_penalty_evals"] > 0]
        for count, limit, title, series in (
            (len(misses), ceiling["misses"], "misses", misses),
            (missed, ceiling["missed_nats"], "missed nats", misses),
            (sum(r["single_penalty_evals"] for r in failed), ceiling["single_failed_evaluations"],
             "single-restart failed evaluations", failed),
            (sum(r["single_nfev"] for r in chosen), ceiling["single_nfev"], "single-restart nfev", ()),
        ):
            if count > limit:
                listed = ", ".join(f"seed {r['seed']} {r['series']}" for r in series)
                failures.append(f"{name}: {count:g} {title}, above the ceiling of {limit:g}" + (listed and f": {listed}"))
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*SEEDS, "all"], default="all")
    parser.add_argument("--limit", type=int, help="audit only the first N series of each seed's design")
    parser.add_argument("--seeds", type=int, nargs="+", help="audit these seeds in place of the default ones")
    parser.add_argument("--records", metavar="PATH", help="also write one JSON line per series to PATH")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two --records files")
    parser.add_argument("--check", metavar="BOUNDS", help="audit the workloads of a bounds file; exit 1 above a ceiling")
    args = parser.parse_args()
    if args.check and (args.limit is not None or args.seeds):
        parser.error("--check audits every series at the default seeds; it takes neither --limit nor --seeds")
    if args.compare:
        parent, change = ([json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()] for path in args.compare)
        compare(parent, change)
        return
    bounds = json.loads(Path(args.check).read_text(encoding="utf-8")) if args.check else None
    audited = []
    for name, seeds in SEEDS.items():
        if (name in bounds["ceilings"]) if bounds else args.workload in (name, "all"):
            records = list(audit(name, args.seeds or seeds, args.limit))
            report(name, records)
            audited += records
    if args.records:
        Path(args.records).write_text("".join(json.dumps(r) + "\n" for r in audited), encoding="utf-8")
    if bounds:
        failures = check(bounds, audited)
        for failure in failures:
            print(f"ceiling passed: {failure}")
        if failures:
            raise SystemExit(1)
        print(f"every ceiling of {args.check} holds")


if __name__ == "__main__":
    main()
