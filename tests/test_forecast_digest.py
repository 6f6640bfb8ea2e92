import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "forecast_digest.py"

RECORD = {
    "workload": "monthly-forecast",
    "seed": 1,
    "series": "m-48-0",
    "theta": [0.5, 1.25],
    "iterations": 7,
    "nfev": 9,
    "converged": True,
    "mean": [0.1, -0.2],
    "variance": [1.5, 1.75],
}


def compare(tmp_path, change):
    paths = []
    for name, record in (("parent", RECORD), ("change", change)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(json.dumps(record) + "\n")
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
        ("iterations", 8),
        ("nfev", 10),
        ("converged", False),
        ("mean", [0.1, -0.20000000000000004]),
        ("variance", [1.5000000000000002, 1.75]),
    ],
)
def test_compare_fails_on_any_difference(tmp_path, field, value):
    run = compare(tmp_path, {**RECORD, field: value})
    assert run.returncode == 1, run.stdout + run.stderr
