"""Smoke tests for the ``--suite store`` benchmark — the disk-store
sweep stays runnable at toy sizes, its JSON stays well-formed, the
committed full-size trajectory keeps clearing its gates, and
``--check`` rejects a trajectory that stopped clearing them."""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.corpus.store import DEFAULT_SEGMENT_SIZE

pytestmark = pytest.mark.store


def test_quick_store_benchmark_writes_wellformed_json(tmp_path):
    out = tmp_path / "BENCH_store.json"
    code = bench.main(
        [
            "--suite", "store", "--quick",
            "--output", str(out), "--seed", "3", "--repeats", "1",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == bench.STORE_SCHEMA
    assert report["quick"] is True
    assert report["seed"] == 3
    assert report["errors"] == []  # no per-case exception was swallowed
    rows = report["store"]["rows"]
    assert [r["n"] for r in rows] == list(bench.STORE_TREE_COUNTS_QUICK)
    for row in rows:
        assert row["window"] == bench.STORE_WINDOW
        assert row["ingest_seconds"] > 0
        assert row["ingest_trees_per_second"] > 0
        assert row["ingest_peak_rss_kb"] > 0
        assert row["cold_open_seconds"] > 0
        assert row["warm_batch_seconds"] > 0
        assert row["speedup"] > 0
    repair_rows = report["store"]["repair_rows"]
    assert [r["n"] for r in repair_rows] == list(
        bench.STORE_REPAIR_SIZES_QUICK
    )
    for row in repair_rows:
        assert row["edits"] > 0
        assert 0 < row["min_speedup"] <= row["median_speedup"]
        assert row["median_speedup"] <= row["max_speedup"]
    assert len(report["store"]["queries"]) == len(bench.STORE_QUERIES)
    replace = report["store"]["replace"]
    assert replace["segment_size"] == DEFAULT_SEGMENT_SIZE
    assert replace["edits"] == bench.STORE_REPLACE_EDITS_QUICK
    assert replace["wall_ms"] > 0 and replace["cpu_ms"] > 0
    assert replace["bytes_written"] > 0
    summary = report["summary"]
    assert summary["store_replace_wall_ms"] == replace["wall_ms"]
    assert summary["store_replace_cpu_ms"] == replace["cpu_ms"]
    assert summary["store_replace_bytes_written"] == replace["bytes_written"]
    assert summary["errors"] == 0
    assert summary["store_max_trees"] == bench.STORE_TREE_COUNTS_QUICK[-1]
    assert summary["store_warm_flat_ratio"] > 0
    assert summary["store_ingest_rss_ratio"] > 0
    assert summary["pass"] is True  # quick mode never gates on speed


def test_store_benchmark_is_agreement_checked(monkeypatch):
    # The bench raises (rather than records nonsense) if the store
    # batch ever disagrees with the naive per-call loop on the window.
    original = bench._naive_corpus_rows

    def broken(trees, queries):
        grid = original(trees, queries)
        return grid[::-1]  # scrambled tree order

    monkeypatch.setattr(bench, "_naive_corpus_rows", broken)
    try:
        bench.run_store_benchmark(
            [bench.STORE_WINDOW + 8], seed=0, repeats=1
        )
    except AssertionError as err:
        assert "disagrees" in str(err)
    else:  # pragma: no cover
        raise AssertionError("expected the differential guard to fire")
    # ...and the replace cost is timed only after an edited window agrees.
    with pytest.raises(AssertionError, match="disagrees"):
        bench.run_replace_benchmark(seed=0, edits=1, errors=[])


def test_committed_store_trajectory_matches_schema():
    # The repo ships a full-size BENCH_store.json; keep it honest.
    path = Path(__file__).resolve().parents[1] / "BENCH_store.json"
    report = json.loads(path.read_text())
    assert report["schema"] == bench.STORE_SCHEMA
    assert report.get("errors", []) == []
    summary = report["summary"]
    assert summary["pass"] is True
    assert summary.get("errors", 0) == 0
    if not report["quick"]:  # `make bench-store` may have left a quick regen
        thresholds = summary["thresholds"]
        assert 0 < summary["store_warm_flat_ratio"] <= thresholds["flat"]
        assert 0 < summary["store_ingest_rss_ratio"] <= thresholds["rss"]
        assert (
            summary["store_repair_median_speedup_at_max_size"]
            >= thresholds["repair"]
        )
        assert (
            summary["store_warm_median_speedup_at_max_size"]
            >= bench.CHECK_FLOOR
        )
        # Reported, not gated: a replace's absolute cost.
        assert summary["store_replace_wall_ms"] > 0
        assert summary["store_replace_cpu_ms"] > 0
        assert summary["store_replace_bytes_written"] > 0


def test_check_rejects_a_store_trajectory_below_its_gates(tmp_path):
    report = bench.run_store_suite(quick=True, seed=0, repeats=1)
    report["quick"] = False  # full-size reports must carry their gates
    report["summary"]["store_warm_flat_ratio"] = 2.4  # latency doubled
    path = tmp_path / "BENCH_store.json"
    path.write_text(json.dumps(report))
    assert bench.main(["--check", str(path)]) == 1


def test_check_accepts_a_passing_store_trajectory(tmp_path):
    report = bench.run_store_suite(quick=True, seed=0, repeats=1)
    path = tmp_path / "BENCH_store.json"
    path.write_text(json.dumps(report))
    assert bench.main(["--check", str(path)]) == 0
