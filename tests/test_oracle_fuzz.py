"""Bounded fuzz rounds of the differential oracle.

Marked ``oracle``: deselect with ``pytest -m "not oracle"`` for a quick
local run; CI (and ``make fuzz``) runs the fixed seed matrix below so
every build cross-checks the engines on a few hundred fresh cases.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.oracle import run_oracle

SEED_MATRIX = (0, 1, 2)


@pytest.mark.oracle
@pytest.mark.parametrize("seed", SEED_MATRIX)
def test_fuzz_round_finds_no_disagreements(seed):
    report = run_oracle(seed=seed, budget=120, max_size=10)
    assert report.total_cases() == 120
    failures = [
        f"[{d.pair}] tree={d.shrunk['tree']} query={d.shrunk['query']} "
        f"left={d.outcome.left} right={d.outcome.right}"
        for d in report.disagreements
    ]
    assert not failures, "\n".join(failures)


@pytest.mark.oracle
def test_fuzz_round_with_larger_trees():
    report = run_oracle(seed=3, budget=60, max_size=16)
    assert report.total_disagreements() == 0


@pytest.mark.oracle
def test_cli_end_to_end(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.oracle",
            "--seed", "0", "--budget", "30",
            "--corpus-dir", str(tmp_path),
        ],
        capture_output=True, text=True,
        cwd=repo, env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 disagreements" in proc.stdout


@pytest.mark.oracle
def test_cli_replay(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.oracle", "--replay"],
        capture_output=True, text=True,
        cwd=repo, env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 disagreeing" in proc.stdout


@pytest.mark.oracle
@pytest.mark.planner
def test_auto_pair_fuzz_planner_routes_agree():
    """≥300 fresh cases through auto/fast-fo alone: whichever engine
    the cost-based planner picks per case (guarded fast, reference, or
    a mid-flight re-plan onto the reference), the relation must equal
    the direct fast engine's.  Disagreements shrink and persist under
    ``tests/corpus/`` like every other pair's."""
    from repro.oracle import pairs_by_name

    report = run_oracle(
        seed=271828,
        budget=300,
        max_size=10,
        pairs=[pairs_by_name()["auto/fast-fo"]],
        corpus_dir=Path(__file__).parent / "corpus",
    )
    assert report.total_cases() == 300
    failures = [
        f"[{d.pair}] tree={d.shrunk['tree']} query={d.shrunk['query']} "
        f"left={d.outcome.left} right={d.outcome.right}"
        for d in report.disagreements
    ]
    assert not failures, "\n".join(failures)


@pytest.mark.oracle
def test_corpus_pair_fuzz_batch_equals_sequential():
    """≥300 fresh cases through corpus/sequential alone: the batch
    executor must be element-wise byte-identical to the per-tree loop
    for all five query kinds, under both chunkings and ``auto``."""
    import random

    from repro.oracle.pairs import CorpusVsSequential

    pair = CorpusVsSequential()
    rng = random.Random(1729)
    kinds = set()
    for _ in range(300):
        case = pair.generate(rng, max_size=10)
        kinds.add(case.query.kind)
        outcome = pair.check(case)
        assert outcome.agree, (
            f"query={case.query} left={outcome.left} right={outcome.right}"
        )
    assert kinds == set(pair.KINDS)  # every formalism was exercised


def test_vectorized_pair_fuzz_stacked_equals_sequential():
    """≥300 more fresh cases through corpus/sequential, at a second
    seed and outside the oracle marker: the stacked shard pass — one
    wide integer per chunk per IR op, which every query with an IR plan
    rides whatever the engine name — must be element-wise
    byte-identical to the per-tree loop for all five query kinds."""
    import random

    from repro.oracle.pairs import CorpusVsSequential

    pair = CorpusVsSequential()
    rng = random.Random(2718)
    kinds = set()
    for _ in range(300):
        case = pair.generate(rng, max_size=10)
        kinds.add(case.query.kind)
        outcome = pair.check(case)
        assert outcome.agree, (
            f"query={case.query} left={outcome.left} right={outcome.right}"
        )
    assert kinds == set(pair.KINDS)  # every formalism was exercised
