"""Smoke tests for the ``--suite kernel`` benchmark — the stacked shard
sweep stays runnable at toy sizes, its baseline is a per-tree cell
loop, its summary carries each structural op's ns per node, and the
committed full-size trajectory keeps clearing its gate."""

import json
from pathlib import Path

from repro import bench

MODES = {"per_tree", "vectorized", "auto"}
OPS = set(bench.KERNEL_OPS)


def test_quick_kernel_benchmark_writes_wellformed_json(tmp_path, monkeypatch):
    cells = []
    evaluate_cell = bench.evaluate_cell

    def counted(query, tree, engine):
        cells.append(engine)
        return evaluate_cell(query, tree, engine)

    monkeypatch.setattr(bench, "evaluate_cell", counted)
    out = tmp_path / "BENCH_kernel.json"
    code = bench.main(
        [
            "--suite", "kernel", "--quick",
            "--output", str(out), "--seed", "5", "--repeats", "1",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == bench.KERNEL_SCHEMA
    assert report["errors"] == []
    rows = report["kernel"]["rows"]
    for count in bench.CORPUS_TREE_COUNTS_QUICK:
        assert {r["mode"] for r in rows if r["n"] == count} == MODES
    # The baseline evaluates every cell on its own, on the fast engine.
    assert cells and set(cells) == {"fast"}
    assert len(cells) % len(bench.KERNEL_QUERIES) == 0
    summary = report["summary"]
    top = bench.CORPUS_TREE_COUNTS_QUICK[-1]
    assert summary["kernel_max_trees"] == top
    assert set(summary["kernel_ms_at_max_size"]) == MODES
    for mode, ms in summary["kernel_ms_at_max_size"].items():
        (row,) = [r for r in rows if r["n"] == top and r["mode"] == mode]
        assert ms == round(row["seconds"] * 1000, 3) > 0
    per_op = summary["kernel_op_ns_per_node_at_max_size"]
    assert set(per_op) == OPS and all(ns > 0 for ns in per_op.values())
    assert summary["pass"] is True  # quick mode never gates on speed


def test_committed_kernel_trajectory_clears_its_gate():
    root = Path(__file__).resolve().parents[1]
    path = root / "BENCH_kernel.json"
    report = json.loads(path.read_text())
    assert report["schema"] == bench.KERNEL_SCHEMA
    summary = report["summary"]
    assert summary["pass"] is True
    assert set(summary["kernel_ms_at_max_size"]) == MODES
    assert set(summary["kernel_op_ns_per_node_at_max_size"]) == OPS
    if not report["quick"]:
        assert (
            summary["kernel_median_speedup_at_max_size"]
            >= summary["thresholds"]["vectorized"]
        )
    assert bench.check_reports([path]) == []
