import importlib.util
import json
import sys
from pathlib import Path

import pytest

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


def test_compare_lists_each_single_restart_that_moved_and_each_new_miss_that_did_not(monkeypatch, capsys):
    tool = load_tool(monkeypatch)

    def record(workload, series, single, best, nfev=(10, 50), failed=(0, 0)):
        return {
            "workload": workload,
            "seed": 3,
            "series": series,
            "single": single,
            "best": best,
            "single_nfev": nfev[0],
            "best_nfev": nfev[1],
            "single_penalty_evals": failed[0],
            "best_penalty_evals": failed[1],
        }

    parent = [
        record("monthly-forecast", "fell", 20.0, 20.0, failed=(0, 1)),
        record("monthly-forecast", "rose", 30.0, 30.5),
        record("monthly-forecast", "unmoved-new-miss", 40.0, 40.0),
        record("monthly-forecast", "within-miss", 50.0, 50.0),
        record("six-hourly-double", "small-fall", 60.0, 60.0),
    ]
    change = [
        record("monthly-forecast", "fell", 19.5, 20.0, (12, 47)),
        record("monthly-forecast", "rose", 30.5, 30.5),
        record("monthly-forecast", "unmoved-new-miss", 40.05, 41.0, failed=(0, 3)),
        record("monthly-forecast", "within-miss", 49.95, 50.0, (9, 50), (1, 2)),
        record("six-hourly-double", "small-fall", 59.99, 60.0, (11, 52)),
    ]
    tool.compare(parent, change[::-1])  # records pair up by workload, seed and series, not by order
    # monthly missed nats rise by 0.95: against the parent's best of 5 the
    # change's single restarts miss 0.50 more (fell) and 0.50 less (rose), and
    # the change's best of 5 adds 0.95 (unmoved-new-miss); the largest fall is
    # reported even when it is below 0.1 nats (small-fall)
    assert capsys.readouterr().out.splitlines() == [
        "six-hourly-double: 1 series; parent 0 misses, 0.00 nats, change 0 misses, 0.00 nats",
        "six-hourly-double: nfev summed, parent 10 (one restart), 50 (5 restarts); change 11 (one restart), 52 (5 restarts)",
        "six-hourly-double: failed evaluations summed, parent 0 (one restart), 0 (5 restarts); change 0 (one restart), 0 (5 restarts)",
        "six-hourly-double: missed nats +0.00: +0.00 from single restarts, +0.00 from the best of 5",
        "six-hourly-double: largest single-restart fall 0.0100 nats, seed 3 small-fall",
        "six-hourly-double: 0 series whose single restart fell by more than 0.1 nats",
        "six-hourly-double: 0 series whose single restart rose by more than 0.1 nats",
        "six-hourly-double: 0 new misses whose single restart did not move",
        "monthly-forecast: 4 series; parent 1 misses, 0.50 nats, change 2 misses, 1.45 nats",
        "monthly-forecast: nfev summed, parent 40 (one restart), 200 (5 restarts); change 41 (one restart), 197 (5 restarts)",
        "monthly-forecast: failed evaluations summed, parent 0 (one restart), 1 (5 restarts); change 1 (one restart), 5 (5 restarts)",
        "monthly-forecast: missed nats +0.95: +0.00 from single restarts, +0.95 from the best of 5",
        "monthly-forecast: largest single-restart fall 0.5000 nats, seed 3 fell",
        "monthly-forecast: 1 series whose single restart fell by more than 0.1 nats",
        "  seed 3 fell: single 20.0000 -> 19.5000 (-0.5000), best of 5 20.0000 -> 20.0000",
        "monthly-forecast: 1 series whose single restart rose by more than 0.1 nats",
        "  seed 3 rose: single 30.0000 -> 30.5000 (+0.5000), best of 5 30.5000 -> 30.5000",
        "monthly-forecast: 1 new misses whose single restart did not move",
        "  seed 3 unmoved-new-miss: single 40.0000 -> 40.0500 (+0.0500), best of 5 40.0000 -> 41.0000",
    ]
    tool.compare(change, change)
    assert "monthly-forecast: no single restart fell" in capsys.readouterr().out.splitlines()
    with pytest.raises(SystemExit, match="different series"):
        tool.compare(parent, change[1:])


def test_records_and_seeds_write_one_line_per_audited_series(monkeypatch, tmp_path, capsys):
    tool = load_tool(monkeypatch)
    path = tmp_path / "records.jsonl"
    argv = ["optimum_audit.py", "--workload", "monthly-forecast", "--seeds", "11", "--limit", "1", "--records", str(path)]
    monkeypatch.setattr(sys, "argv", argv)
    tool.main()
    [record] = [json.loads(line) for line in path.read_text().splitlines()]
    assert (record["workload"], record["seed"]) == ("monthly-forecast", 11)
    assert capsys.readouterr().out.startswith("monthly-forecast: 1 series, ")


def synthetic_records():
    """Two monthly misses (0.5 and 0.25 nats, one with a failed evaluation) and one six-hourly series that did not miss."""
    def record(workload, seed, series, single, best, failed):
        return {
            "workload": workload,
            "seed": seed,
            "series": series,
            "single": single,
            "best": best,
            "single_nfev": 10,
            "best_nfev": 50,
            "single_penalty_evals": failed,
            "best_penalty_evals": failed,
        }

    return [
        record("monthly-forecast", 1, "a", 10.0, 10.5, 0),
        record("monthly-forecast", 2, "b", 20.0, 20.25, 1),
        record("monthly-forecast", 3, "c", 30.0, 30.05, 0),
        record("six-hourly-double", 1, "h", 40.0, 40.0, 0),
    ]


def bounds(misses=2, nats=0.75, failed=1, nfev=30):
    return {
        "ceilings": {
            "monthly-forecast": {"misses": misses, "missed_nats": nats, "single_failed_evaluations": failed, "single_nfev": nfev},
            "six-hourly-double": {"misses": 0, "missed_nats": 0.0, "single_failed_evaluations": 0, "single_nfev": 10},
        }
    }


def test_check_names_each_ceiling_passed_with_its_workload_and_series(monkeypatch):
    tool = load_tool(monkeypatch)
    records = synthetic_records()
    assert tool.check(bounds(), records) == []  # a ceiling is a bound that may be met
    assert tool.check(bounds(misses=1, nats=0.7, failed=0, nfev=29), records) == [
        "monthly-forecast: 2 misses, above the ceiling of 1: seed 1 a, seed 2 b",
        "monthly-forecast: 0.75 missed nats, above the ceiling of 0.7: seed 1 a, seed 2 b",
        "monthly-forecast: 1 single-restart failed evaluations, above the ceiling of 0: seed 2 b",
        "monthly-forecast: 30 single-restart nfev, above the ceiling of 29",  # summed, so no series is named
    ]
    # a workload of the bounds that no record covers fails, rather than passing with no misses
    assert tool.check(bounds(), records[:3]) == ["six-hourly-double: no series audited"]


def test_check_mode_audits_the_bounds_workloads_and_exits_1_above_a_ceiling(monkeypatch, tmp_path, capsys):
    tool = load_tool(monkeypatch)
    audited = []

    def fake_audit(name, seeds, limit=None):
        audited.append((name, tuple(seeds)))
        return [r for r in synthetic_records() if r["workload"] == name]

    monkeypatch.setattr(tool, "audit", fake_audit)
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(bounds()))
    monkeypatch.setattr(sys, "argv", ["optimum_audit.py", "--check", str(path)])
    tool.main()
    assert audited == list(tool.SEEDS.items())
    assert capsys.readouterr().out.splitlines()[-1] == f"every ceiling of {path} holds"
    path.write_text(json.dumps(bounds(misses=1)))
    with pytest.raises(SystemExit) as exit_info:
        tool.main()
    assert exit_info.value.code == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "ceiling passed: monthly-forecast: 2 misses, above the ceiling of 1: seed 1 a, seed 2 b"
    )


@pytest.mark.parametrize("narrowed", [["--limit", "1"], ["--seeds", "11"]], ids=["limit", "seeds"])
def test_check_mode_refuses_a_narrowed_audit(monkeypatch, tmp_path, capsys, narrowed):
    tool = load_tool(monkeypatch)
    monkeypatch.setattr(tool, "audit", lambda *args, **kwargs: pytest.fail("audited"))
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(bounds()))
    monkeypatch.setattr(sys, "argv", ["optimum_audit.py", "--check", str(path), *narrowed])
    with pytest.raises(SystemExit) as exit_info:
        tool.main()
    assert exit_info.value.code == 2
    assert "it takes neither --limit nor --seeds" in capsys.readouterr().err


def test_the_committed_bounds_cover_every_workload_with_no_failed_single_restart(monkeypatch):
    tool = load_tool(monkeypatch)
    committed = json.loads((TOOL.parent / "optimum_audit_bounds.json").read_text(encoding="utf-8"))
    assert set(committed["ceilings"]) == set(tool.SEEDS)
    for ceiling in committed["ceilings"].values():
        assert set(ceiling) == {"misses", "missed_nats", "single_failed_evaluations", "single_nfev"}
        assert ceiling["single_failed_evaluations"] == 0


@pytest.mark.parametrize("empty", [("parent", "change"), ("change",)], ids=["both", "change"])
def test_compare_mode_refuses_a_records_file_that_holds_no_series(monkeypatch, tmp_path, empty):
    # two empty files printed nothing and exited 0: no workload reached the comparison
    tool = load_tool(monkeypatch)
    paths = [tmp_path / f"{side}.jsonl" for side in ("parent", "change")]
    for path in paths:
        path.write_text("" if path.stem in empty else json.dumps(synthetic_records()[0]) + "\n")
    monkeypatch.setattr(sys, "argv", ["optimum_audit.py", "--compare", *map(str, paths)])
    with pytest.raises(SystemExit) as exit_info:
        tool.main()
    assert exit_info.value.code == f"{tmp_path / empty[0]}.jsonl holds no series"
