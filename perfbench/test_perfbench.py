"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python -m pytest perfbench -q

Each run here uses a 600-tree corpus and ``--seconds 1``, so the whole
file takes a couple of minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import loadgen  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import Request  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_work", "selftest")


def bench(workload, seed=3, trace=0, extra=(), cwd=ROOT, script=None):
    """One tiny benchmark run: (exit code, last JSON line, full report)."""
    os.makedirs(SCRATCH, exist_ok=True)
    report = os.path.join(SCRATCH, f"{workload}-{seed}-{trace}-{os.getpid()}.json")
    command = [sys.executable, script or os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--trees", "600", "--report", report,
               *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        return done.returncode, None, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    with open(report, "r", encoding="utf-8") as handle:
        full = json.load(handle)
    os.unlink(report)
    return 0, last, full


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: row[0] for name, row in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (row[0], row[1]) for name, row in PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == ["lookup", "scan", "edit"]


@pytest.mark.parametrize("workload", ["lookup", "scan", "edit"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    code, last, full = bench(workload, trace=trace)
    assert code == 0, full
    table = PER_LAYER if trace else END_TO_END
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        k: row[0] for k, row in table.items()}
    for metric in last["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert full["validity"]["loadgen.late_p99_ms"]["n"] >= 1
    assert full["validity"]["machine.spin_ms"]["n"] >= 1


def test_a_flipped_expected_cell_lowers_ok_share():
    code, last, full = bench("lookup", extra=("--flip-expected",))
    assert code == 0, full
    assert last["correct"] is False
    assert full["wrong"] >= 1
    assert full["metrics"]["ok_share"]["value"] < 1.0


@pytest.mark.parametrize("workload", ["lookup", "scan", "edit"])
def test_same_seed_sends_the_same_requests_and_counts_the_same(workload):
    runs = [bench(workload, seed=5, trace=1) for _ in range(2)]
    for code, _, full in runs:
        assert code == 0, full
    (_, _, one), (_, _, two) = runs
    assert one["corpus_sha256"] == two["corpus_sha256"]
    assert one["requests_sha256"] == two["requests_sha256"]
    for name in ("ok_share", "disk_bytes_per_doc_byte"):
        assert one["metrics"][name]["value"] == two["metrics"][name]["value"]
    # Every workload talks over one connection at a time, which fixes
    # the service order.
    for name in ("engine.cells", "engine.index.builds",
                 "service.cache.hit_share"):
        assert one["per_layer"][name]["value"] == two["per_layer"][name]["value"]
    # Another seed draws other documents (edit: and other grafts) into
    # the same workload shape.
    other = bench(workload, seed=6)[2]
    assert other["corpus_sha256"] != one["corpus_sha256"]
    assert (other["requests_sha256"] != one["requests_sha256"]) == (workload == "edit")


def test_without_the_program_it_exits_nonzero_and_prints_no_result():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lookup",
             "--seed", "1", "--seconds", "10", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


class _StallingServer:
    """Answers the frames of one connection in order, holding the
    request with rid ``stall_rid`` for ``stall`` seconds."""

    def __init__(self, stall_rid: int, stall: float) -> None:
        self.stall_rid = stall_rid
        self.stall = stall
        self.stall_ended = None
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen()
        self.address = self.listener.getsockname()
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return
        with conn:
            while True:
                try:
                    request = json.loads(loadgen.read_body(conn))
                except (ConnectionError, OSError, struct.error):
                    return
                if request.get("rid") == self.stall_rid:
                    time.sleep(self.stall)
                    self.stall_ended = time.perf_counter()
                conn.sendall(loadgen.frame({"ok": True, "rid": request.get("rid")}))

    def close(self) -> None:
        self.listener.close()


def test_open_loop_latency_counts_a_stall_from_each_due_time():
    server = _StallingServer(stall_rid=5, stall=0.4)
    gap = 0.02
    requests = [Request(i, {"op": "query", "rid": i}, 0, 1, (0,), due=gap * (i + 1))
                for i in range(40)]
    try:
        results = loadgen.open_loop(server.address, requests, loadgen.Speed())
    finally:
        server.close()
    by_rid = {r[0]: r for r in results}
    assert len(by_rid) == len(requests)
    first_due = by_rid[0][1]
    stall_ended = server.stall_ended
    caught = 0
    for rid, due, sent, received, _ in results:
        # ``due`` is the schedule itself, not the moment of sending...
        assert abs((due - first_due) - gap * rid) < 1e-6
        # ...and the generator kept that schedule through the stall.
        assert sent - due < 0.05
        if rid > 5 and due < stall_ended:
            caught += 1
            # So a request that fell due during the stall is charged
            # the rest of the stall, measured from its due time.
            assert received - due >= stall_ended - due
    assert caught >= 10
    assert by_rid[6][3] - by_rid[6][1] > 0.3
