import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "optimum_audit.py"


def load_tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("optimum_audit", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # audit() puts src and perfbench first
    return tool


def test_audit_of_two_series_is_deterministic_and_never_beats_the_best(monkeypatch, capsys):
    tool = load_tool(monkeypatch)
    records = list(tool.audit("monthly-forecast", (1,), limit=2))
    assert [r["series"] for r in records] == ["m-trend-48-c0", "m-yearly-60-c0"]
    for r in records:
        # the five restarts begin with the single one's start, so they do at least as well
        assert r["best"] >= r["single"] and r["best_nfev"] > r["single_nfev"] > 0
    assert list(tool.audit("monthly-forecast", (1,), limit=2)) == records
    tool.report("monthly-forecast", records)
    totals = capsys.readouterr().out.splitlines()[-1]
    assert totals.startswith("monthly-forecast: 2 series, ")
    assert f"nfev summed {sum(r['single_nfev'] for r in records)} (one restart)" in totals


def test_report_lists_each_miss_and_totals_them(monkeypatch, capsys):
    tool = load_tool(monkeypatch)
    records = [
        {"seed": 1, "series": "a", "single": 10.0, "best": 10.5, "single_nfev": 20, "best_nfev": 100},
        {"seed": 2, "series": "b", "single": 10.0, "best": 10.05, "single_nfev": 25, "best_nfev": 110},
    ]
    for record, failed in zip(records, [(0, 2), (1, 1)]):
        record["single_penalty_evals"], record["best_penalty_evals"] = failed
    tool.report("six-hourly-double", records)
    assert capsys.readouterr().out.splitlines() == [
        "six-hourly-double seed 1 a: single 10.0000, best of 5 10.5000, missed 0.5000",
        "six-hourly-double: 2 series, 1 miss by more than 0.1 nats, 0.50 nats in total;"
        " nfev summed 45 (one restart), 210 (5 restarts); failed evaluations summed 1 (one restart), 3 (5 restarts)",
    ]
