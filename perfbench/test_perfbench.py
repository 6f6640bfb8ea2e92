"""The benchmark's own tests: metric names, seeding, checks and tracing.

Run from the repository root with ``python -m pytest perfbench``.  They
use short runs over a few series of each workload, so they check
behaviour, not speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hostspeed
import run
import tracer as tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = run.DEFAULT_SEED
# first series of each workload's design, enough to exercise every check
SMOKE_LIMITS = {"monthly-forecast": 12, "six-hourly-double": 2}


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_declared_with_units(benchmark_json):
    declared_e2e = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert {w["name"] for w in benchmark_json["workloads"]} == set(workloads.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_inputs(name):
    first = workloads.generate(name, SEED)
    again = workloads.generate(name, SEED)
    other = workloads.generate(name, run.HELDOUT_SEED)
    assert [n for n, _ in first] == [n for n, _ in again] == [n for n, _ in other]
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(first, again))
    assert all(a.tobytes() != b.tobytes() for (_, a), (_, b) in zip(first, other))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_output_checks(name):
    out = run.run_workload(name, SEED, seconds=0.0, trace=False, limit=SMOKE_LIMITS[name])
    result = out["result"]
    assert out["info"]["check_failures"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= SMOKE_LIMITS[name]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values() if m["unit"] != "nats")


def test_bench_path_check_catches_a_different_score(tmp_path):
    gp = run.import_program()
    inputs = run.make_inputs("monthly-forecast", SEED, 1, tmp_path, limit=run.CROSS_PATH_SERIES)
    checks = run.Checks()
    first = run.forecast_pass(gp, inputs, run.load_program_inputs(gp, inputs), checks)
    run.check_bench_path(gp, inputs, first, checks)
    assert checks.failures == []
    name = inputs.names[0]
    mae, crps, ll, converged = first.scores[name]
    first.scores[name] = (mae * (1 + 1e-6), crps, ll, converged)
    run.check_bench_path(gp, inputs, first, checks)
    assert len(checks.failures) == 1 and name in checks.failures[0]


def test_traced_counts_repeat_exactly():
    runs = [run.run_workload("monthly-forecast", SEED, 0.0, True, limit=3)["result"] for _ in range(2)]
    for result in runs:
        assert result["correct"] is True
        assert set(result["metrics"]) == set(run.PER_LAYER)
    for key in run.EXACT_COUNTS:
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key], key
        assert runs[0]["metrics"][key]["value"] > 0, key


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    missing = tracing.Target("gpforecast.gp", "grad_gram_removed", "kernels.grad_gram")
    targets = tuple(missing if t.attr == "grad_gram" else t for t in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    out = run.run_workload("monthly-forecast", SEED, 0.0, True, limit=2)
    metrics = out["result"]["metrics"]
    assert out["info"]["absent_targets"] == ["gpforecast.gp.grad_gram_removed"]
    assert "kernels.grad_gram.s" not in metrics
    assert "kernels.grad_gram.bytes_computed" not in metrics
    assert "kernels.grad_gram.s" in out["info"]["absent_metrics"]
    assert metrics["gp.cholesky.calls"]["value"] > 0


def test_tracer_restores_wrapped_functions():
    gp = run.import_program()
    original = gp.gp.cholesky
    with tracing.Tracer():
        assert gp.gp.cholesky is not original
    assert gp.gp.cholesky is original


def test_self_time_subtracts_union_of_children():
    parent = tracing._Span("p", start=0.0, end=10.0)
    parent.children = [
        tracing._Span("a", start=1.0, end=4.0),
        tracing._Span("b", start=3.0, end=5.0),  # overlaps a, as on two pool threads
        tracing._Span("c", start=8.0, end=12.0),  # clipped to the parent
    ]
    assert tracing._covered(parent) == pytest.approx(6.0)


def test_unclassified_series_failure_aborts():
    run.classify_failure("ConstantSeriesError: series is constant")
    run.classify_failure("IllConditionedModelError: not positive definite")
    run.classify_failure("ValueError: need at least 8 observations, got 5")
    for reason in ("TypeError: unsupported operand", "ValueError: forecast contains non-finite values"):
        with pytest.raises(run.BenchmarkError):
            run.classify_failure(reason)


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(1, 41)]
    percentile, value = run.tail_latency(samples)
    assert percentile == 75.0
    assert value == 30.0
    assert sum(s > value for s in samples) == 10
    assert run.tail_latency([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail_latency([float(i) for i in range(20)]) == (100.0, 19.0)


def test_normalize_rescales_by_the_bursts_around_each_call():
    nominal, window = hostspeed.NOMINAL_S, hostspeed.WINDOW
    assert hostspeed.normalize([1.0, 2.0], [nominal] * 3) == pytest.approx([1.0, 2.0])
    # the host runs at half speed for the second half of a long run
    calls = 8 * window
    bursts = [nominal] * (calls // 2) + [2 * nominal] * (calls // 2 + 1)
    normalized = hostspeed.normalize([1.0] * (calls // 2) + [2.0] * (calls // 2), bursts)
    assert normalized[:window] == pytest.approx([1.0] * window)
    assert normalized[-window:] == pytest.approx([1.0] * window)
    # one stalled burst does not move its neighbours
    stalled = [nominal] * 5
    stalled[2] = 3 * nominal
    assert hostspeed.normalize([1.0] * 4, stalled) == pytest.approx([1.0] * 4)
    with pytest.raises(ValueError):
        hostspeed.normalize([1.0], [nominal])


def test_checkout_without_program_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monthly-forecast", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_generated_values_are_finite_and_long_enough():
    for name, workload in workloads.WORKLOADS.items():
        for series_name, values in workloads.generate(name, SEED):
            assert np.all(np.isfinite(values)), series_name
            assert values.size > workload.horizon + 8, series_name
