import importlib.util
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "forecast_digest.py"

RECORD = {
    "workload": "monthly-forecast",
    "seed": 1,
    "series": "m-48-0",
    "theta": [0.5, 1.25],
    "objective": -12.5,
    "iterations": 7,
    "nfev": 9,
    "penalty_evals": 0,
    "converged": True,
    "termination": "CONVERGENCE: PREDICTED DECREASE OF F <= DECREASE_TOL",
    "mean": [0.1, -0.2],
    "variance": [1.5, 1.75],
}


def compare(tmp_path, change, parent=(RECORD,)):
    paths = []
    for name, records in (("parent", parent), ("change", change if isinstance(change, list) else [change])):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(TOOL), "--compare", *paths], capture_output=True, text=True)


def test_compare_passes_identical_digests(tmp_path):
    run = compare(tmp_path, dict(RECORD))
    assert run.returncode == 0, run.stdout + run.stderr
    assert "mean: 1 series bit-identical" in run.stdout


@pytest.mark.parametrize(
    "field, value",
    [
        ("theta", [0.5, 1.2500000000000002]),
        ("objective", -12.500000000000002),
        ("iterations", 8),
        ("nfev", 10),
        ("penalty_evals", 1),
        ("converged", False),
        ("termination", "ABNORMAL: NO STRONG-WOLFE STEP"),
        ("mean", [0.1, -0.20000000000000004]),
        ("variance", [1.5000000000000002, 1.75]),
    ],
)
def test_compare_fails_on_any_difference(tmp_path, field, value):
    run = compare(tmp_path, {**RECORD, field: value})
    assert run.returncode == 1, run.stdout + run.stderr


def test_compare_counts_termination_differences(tmp_path):
    run = compare(tmp_path, [{**RECORD, "termination": "ABNORMAL: NO STRONG-WOLFE STEP"}, dict(RECORD)], parent=[RECORD, RECORD])
    assert run.returncode == 1, run.stdout + run.stderr
    assert "termination: 1 differ\n" in run.stdout


def test_compare_counts_penalty_evals_differences(tmp_path):
    run = compare(tmp_path, [{**RECORD, "penalty_evals": 2}, dict(RECORD)], parent=[RECORD, RECORD])
    assert run.returncode == 1, run.stdout + run.stderr
    assert "penalty_evals: 1 differ\n" in run.stdout


@pytest.mark.parametrize("field", ["termination", "penalty_evals"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_compare_fails_when_one_digest_lacks_a_field(tmp_path, field, side):
    # a digest that dropped a field cannot pass the gate on the others
    lacking = {key: value for key, value in RECORD.items() if key != field}
    digests = {"parent": [RECORD, RECORD], "change": [RECORD, RECORD]}
    digests[side] = [RECORD, lacking]
    run = compare(tmp_path, digests["change"], parent=digests["parent"])
    assert run.returncode == 1, run.stdout + run.stderr
    assert f"{field}: missing from 1 series of the {side} digest" in run.stderr


def test_compare_sums_the_optimizer_counts_and_reports_the_objective_moves(tmp_path):
    run = compare(tmp_path, {**RECORD, "objective": -13.0, "iterations": 8, "nfev": 12})
    assert run.returncode == 1, run.stdout + run.stderr
    assert "iterations summed: 7 -> 8" in run.stdout
    assert "nfev summed: 9 -> 12" in run.stdout
    assert (
        "objective: 0 series rose, 1 fell by more than 1e-06, largest fall 0.5 (monthly-forecast seed 1 m-48-0)"
        in run.stdout
    )
    rose = compare(tmp_path, {**RECORD, "objective": -12.0})
    assert "objective: 1 series rose, 0 fell by more than 1e-06\n" in rose.stdout


def test_compare_reports_nfev_objective_falls_and_converged_flips_per_workload(tmp_path):
    hourly = {**RECORD, "workload": "six-hourly-double", "series": "h-112-0", "nfev": 30, "converged": False}
    change = [
        {**RECORD, "objective": -12.502, "nfev": 8, "converged": False},
        {**hourly, "objective": -12.5005, "nfev": 31, "converged": True},
    ]
    run = compare(tmp_path, change, parent=[RECORD, hourly])
    assert run.returncode == 1, run.stdout + run.stderr
    assert (
        "monthly-forecast: nfev summed 9 -> 8, rose on 0 series; objective fell by more than 0.001 on 1 series,"
        " largest 0.002 (seed 1 m-48-0); converged flipped true -> false on 1, false -> true on 0\n"
    ) in run.stdout
    assert (
        "six-hourly-double: nfev summed 30 -> 31, rose on 1 series; objective fell by more than 0.001 on 0 series;"
        " converged flipped true -> false on 0, false -> true on 1\n"
    ) in run.stdout


def test_digest_fails_on_a_runtime_warning(monkeypatch):
    # non-convergence warnings are ignored, numerical ones stop the digest
    spec = importlib.util.spec_from_file_location("forecast_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # digest() puts src and perfbench first

    import gpforecast.forecasting

    def overflowing(*args, **kwargs):
        warnings.warn("overflow encountered in multiply", RuntimeWarning)

    monkeypatch.setattr(gpforecast.forecasting, "standardized_posterior", overflowing)
    with pytest.raises(RuntimeWarning, match="overflow"):
        next(tool.digest())
