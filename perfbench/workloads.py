"""Seeded synthetic inputs for the benchmark workloads.

Every workload draws its series from a fixed stratified design: each slot
(shape, length and noise level) has a structure (phases, slopes, cycle
lengths) drawn once from a generator keyed by the slot alone, so every
seed exercises the same mix of work.  The workload seed draws the level,
the scale, a small phase shift and the noise of every series.  That keeps
the run-to-run spread in speed and accuracy small while each seed still
gives different inputs.

The generator depends on numpy alone, never on gpforecast, so the program
under test sees nothing but the arrays produced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MONTHLY_STEPS = 12.0
SIX_HOURLY_STEPS = 1461.0
MONTHLY_HORIZON = 18
SIX_HOURLY_HORIZON = 42

# One copy of each workload's design.  Slot structure is fixed; copies and
# seeds differ only in the seed-drawn parts.  Lengths crowd the middle of
# their range, and each design has one noise level (or one dominant one),
# so that medians of latency and of accuracy fall inside a dense cluster of
# per-series values, not on a gap between two clusters, where a small
# change would move them far.
MONTHLY_SHAPES = ("trend", "yearly", "quasi")
MONTHLY_SLOTS = 24
MONTHLY_MIN_LENGTH, MONTHLY_MAX_LENGTH = 48, 132
MONTHLY_NOISE = 0.05
SIX_HOURLY_SLOTS = 26
# Each 6-hourly call costs several monthly ones, so a run holds few of
# them; their lengths crowd the middle more tightly to keep the median steady.
SIX_HOURLY_PEAK = 1.5
SIX_HOURLY_MIN_LENGTH, SIX_HOURLY_MAX_LENGTH = 112, 336
SIX_HOURLY_NOISE = (0.0, 0.1, 0.1, 0.1, 0.2)
# Largest seed-drawn shift of a slot's seasonal phase, in radians.
PHASE_JITTER = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "forecast": one forecast() call per series; "bench": run_benchmark over a CSV
    mode: str
    steps_per_year: float
    horizon: int
    unit_s: float  # seconds one copy of the design takes at nominal host speed (see hostspeed)
    why: str

    def copies(self, seconds: float) -> int:
        """Copies of the design that fill a run of ``seconds``.

        Sized from the nominal ``unit_s``, never from a measurement, so that
        the inputs depend on the seed and the run length alone.
        """
        return max(1, round(seconds / self.unit_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "monthly-forecast",
            "forecast",
            "single-seasonal",
            MONTHLY_STEPS,
            MONTHLY_HORIZON,
            7.75,
            "closed loop, one caller: forecast(ts, 18) on monthly series of length 48-132, the paper's headline traffic",
        ),
        Workload(
            "six-hourly-double",
            "bench",
            "double-seasonal",
            SIX_HOURLY_STEPS,
            SIX_HOURLY_HORIZON,
            30.5,
            "serial run_benchmark, one series per call, double-seasonal on 6-hourly series of length 112-336: the PER2 path, 16 trainables",
        ),
    )
}


def _monthly_values(shape_rng, rng, n: int, shape: str, noise: float) -> np.ndarray:
    t = np.arange(n) / MONTHLY_STEPS  # years
    phase = shape_rng.uniform(0, 2 * np.pi) + rng.uniform(-PHASE_JITTER, PHASE_JITTER)
    if shape == "trend":
        slope = shape_rng.uniform(0.4, 0.6) * shape_rng.choice((-1.0, 1.0))
        signal = slope * t + 0.3 * np.sin(2 * np.pi * t + phase)
    elif shape == "yearly":
        second = shape_rng.uniform(0.3, 0.4)
        signal = np.sin(2 * np.pi * t + phase) + second * np.sin(4 * np.pi * t + 2 * phase)
        signal = signal + shape_rng.uniform(-0.1, 0.1) * t
    elif shape == "quasi":
        cycle = shape_rng.uniform(1.5, 2.5)
        signal = np.sin(2 * np.pi * t / cycle + phase) + 0.5 * np.sin(2 * np.pi * t + shape_rng.uniform(0, 2 * np.pi))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    level = rng.uniform(50.0, 150.0)
    scale = rng.uniform(2.0, 8.0)
    return level + scale * (signal + noise * rng.standard_normal(n))


def _six_hourly_values(shape_rng, rng, n: int, noise: float) -> np.ndarray:
    i = np.arange(n)
    daily = np.sin(2 * np.pi * i / 4 + shape_rng.uniform(0, 2 * np.pi) + rng.uniform(-PHASE_JITTER, PHASE_JITTER))
    weekly = shape_rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * i / 28 + shape_rng.uniform(0, 2 * np.pi))
    trend = shape_rng.uniform(-0.5, 0.5) * i / n
    values = rng.uniform(10.0, 30.0) + 3.0 * (daily + weekly + trend)
    if noise > 0:
        values = values + 3.0 * noise * rng.standard_normal(n)
    return values


def _slot_rng(name: str, slot: int) -> np.random.Generator:
    """The seed-independent generator for one slot's structure."""
    return np.random.default_rng([slot, sum(name.encode())])


def _spread(low: int, high: int, slots: int, peak: float = 1.0) -> list[int]:
    """Lengths at evenly spaced quantiles (both ends included) of a triangular
    distribution on [low, high], pulled further to the middle by ``peak``.

    Dense in the middle of the range, so that the median latency falls
    among many series of nearly equal cost; sparse towards both ends,
    which are still covered.  With ``peak`` above 1 a quantile at distance
    ``d`` from the middle (as a share of half the range) moves to ``d ** peak``.
    """
    lengths = []
    for k in range(slots):
        u = k / (slots - 1)
        x = math.sqrt(u / 2) if u < 0.5 else 1 - math.sqrt((1 - u) / 2)
        x = 0.5 + math.copysign(abs(2 * x - 1) ** peak, x - 0.5) / 2
        lengths.append(round(low + (high - low) * x))
    return lengths


def _design(name: str) -> list[tuple[str, str, int, float]]:
    """One copy's slots: (slot name, shape, training length, noise level)."""
    if name == "monthly-forecast":
        lengths = _spread(MONTHLY_MIN_LENGTH, MONTHLY_MAX_LENGTH, MONTHLY_SLOTS)
        return [
            (f"m-{MONTHLY_SHAPES[k % 3]}-{n}", MONTHLY_SHAPES[k % 3], n, MONTHLY_NOISE)
            for k, n in enumerate(lengths)
        ]
    if name == "six-hourly-double":
        lengths = _spread(SIX_HOURLY_MIN_LENGTH, SIX_HOURLY_MAX_LENGTH, SIX_HOURLY_SLOTS, SIX_HOURLY_PEAK)
        return [
            (f"h-{n}-{k}", "daily-weekly", n, SIX_HOURLY_NOISE[k % len(SIX_HOURLY_NOISE)])
            for k, n in enumerate(lengths)
        ]
    raise ValueError(f"unknown workload {name!r}")


def generate(name: str, seed: int, copies: int = 1) -> list[tuple[str, np.ndarray]]:
    """Named full series (training part plus the held-out horizon) for a workload.

    The same ``(name, seed, copies)`` always gives byte-identical arrays.
    """
    workload = WORKLOADS[name]
    rng = np.random.default_rng([seed, 0x6770])
    series: list[tuple[str, np.ndarray]] = []
    for copy in range(copies):
        for slot, (slot_name, shape, n, noise) in enumerate(_design(name)):
            length = n + workload.horizon
            if name == "six-hourly-double":
                values = _six_hourly_values(_slot_rng(name, slot), rng, length, noise)
            else:
                values = _monthly_values(_slot_rng(name, slot), rng, length, shape, noise)
            series.append((f"{slot_name}-c{copy}", values))
    return series
