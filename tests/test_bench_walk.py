"""Smoke tests for the ``--suite walk`` benchmark and the
``--check`` trajectory ratchet — both stay runnable at toy sizes and
their JSON stays well-formed."""

import json
from pathlib import Path

import pytest

from repro import bench


def test_quick_walk_benchmark_writes_wellformed_json(tmp_path):
    out = tmp_path / "BENCH_walk.json"
    code = bench.main(
        [
            "--suite", "walk", "--quick",
            "--output", str(out), "--seed", "3", "--repeats", "1",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == bench.WALK_SCHEMA
    assert report["quick"] is True
    assert report["seed"] == 3
    cat_rows = report["caterpillar"]["rows"]
    twa_rows = report["twa"]["rows"]
    assert len(cat_rows) == (
        len(bench.CATERPILLAR_SIZES_QUICK) * len(bench.CATERPILLAR_EXPRESSIONS)
    )
    assert len(twa_rows) == (
        len(bench.TWA_SIZES_QUICK) * len(bench.TWA_AUTOMATA)
    )
    for row in cat_rows + twa_rows:
        assert row["reference_seconds"] > 0
        assert row["engine_seconds"] > 0
        assert row["speedup"] > 0
    for row in twa_rows:
        assert row["steps"] > 0
    assert report["errors"] == []  # no per-case exception was swallowed
    summary = report["summary"]
    assert summary["errors"] == 0
    assert summary["caterpillar_max_size"] == bench.CATERPILLAR_SIZES_QUICK[-1]
    assert summary["twa_max_size"] == bench.TWA_SIZES_QUICK[-1]
    assert summary["pass"] is True  # quick mode never gates on speed


def test_walk_benchmark_is_agreement_checked(monkeypatch):
    # The bench raises (rather than records nonsense) if the walking
    # engines ever disagree on a timed case.
    def broken(expr, tree):
        return frozenset({(("bogus",), ("bogus",))})

    monkeypatch.setattr(bench.fast_walk, "relation", broken)
    try:
        bench.run_caterpillar_benchmark([6], seed=0, repeats=1)
    except AssertionError as err:
        assert "disagree" in str(err)
    else:  # pragma: no cover
        raise AssertionError("expected the differential guard to fire")


def test_committed_walk_trajectory_matches_schema():
    # The repo ships a full-size BENCH_walk.json; keep it honest.
    path = Path(__file__).resolve().parents[1] / "BENCH_walk.json"
    report = json.loads(path.read_text())
    assert report["schema"] == bench.WALK_SCHEMA
    assert report.get("errors", []) == []
    summary = report["summary"]
    assert summary["pass"] is True
    assert summary.get("errors", 0) == 0
    if not report["quick"]:  # `make bench-walk` may have left a quick regen
        assert (
            summary["caterpillar_median_speedup_at_max_size"]
            >= summary["thresholds"]["caterpillar"]
        )
        assert (
            summary["twa_median_speedup_at_max_size"]
            >= summary["thresholds"]["twa"]
        )


def test_check_passes_on_committed_trajectories():
    root = Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("BENCH_*.json"))
    assert paths, "the repo should ship committed benchmark trajectories"
    assert bench.check_reports(paths) == []


def test_check_flags_regressed_and_malformed_reports(tmp_path):
    regressed = tmp_path / "BENCH_slow.json"
    regressed.write_text(json.dumps({
        "schema": "repro-bench-walk/1",
        "summary": {"caterpillar_median_speedup_at_max_size": 0.5},
    }))
    alien = tmp_path / "BENCH_alien.json"
    alien.write_text(json.dumps({"schema": "something-else"}))
    empty = tmp_path / "BENCH_empty.json"
    empty.write_text(json.dumps({"schema": "repro-bench-walk/1",
                                 "summary": {}}))
    broken = tmp_path / "BENCH_broken.json"
    broken.write_text("{not json")
    failures = bench.check_reports([regressed, alien, empty, broken])
    assert len(failures) == 4
    assert any("below the 1.0x floor" in f for f in failures)
    assert any("unrecognised schema" in f for f in failures)
    assert any("no median speedups" in f for f in failures)
    assert any("unreadable" in f for f in failures)


def _passing(op, bound):
    return bound if op == "==" else bound + 1 if op == ">=" else bound / 2


def _failing(op, bound):
    return bound + 1 if op != ">=" else bound / 2


@pytest.mark.parametrize(
    "prefix, gate",
    [
        (prefix, gate)
        for prefix, gates in bench.CHECK_GATES.items()
        for gate in gates
    ],
    ids=lambda item: item if isinstance(item, str) else item[0],
)
def test_each_check_gate_fails_alone_past_its_bound(tmp_path, prefix, gate):
    """A full-size report that clears every gate of its schema, then
    the one gate pushed past its bound: exactly one failure."""
    gates = bench.CHECK_GATES[prefix]
    summary = {}
    for key, op, bound, _ in gates:
        summary[key.replace("*", "probe")] = _passing(op, bound)
    path = tmp_path / "BENCH_gate.json"

    def failures():
        path.write_text(json.dumps({
            "schema": f"{prefix}probe/1", "quick": False, "summary": summary,
        }))
        return bench.check_reports([path])

    assert failures() == []
    key, op, bound, _ = gate
    summary[key.replace("*", "probe")] = _failing(op, bound)
    assert len(failures()) == 1


def test_check_cli_returns_failure_on_regression(tmp_path, capsys):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps({
        "schema": "repro-bench-engine/1",
        "summary": {"fo_median_speedup_at_max_size": 0.2},
    }))
    assert bench.main(["--check", str(bad)]) == 1
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps({
        "schema": "repro-bench-engine/1",
        "summary": {"fo_median_speedup_at_max_size": 12.0},
    }))
    assert bench.main(["--check", str(good)]) == 0
