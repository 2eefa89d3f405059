"""The repository benchmark: lookup, scan and edit against the real
server and store.

    python3 perfbench/run.py --workload {lookup,scan,edit} --seed N \\
        --seconds S --trace {0,1} [--trees N] [--report FILE]

Run it from the root of a checkout.  Each run generates a seeded corpus
of ``random_tree`` documents, computes every expected answer with
per-tree ``evaluate_cell(..., "fast")``, ingests the corpus into a fresh
``CorpusStore`` (the timed set-up), and then:

* ``lookup`` — an open loop of Poisson arrivals (40 req/s, one
  connection, so requests queue first-come first-served at the server)
  against ``python -m repro serve --store DIR --port 0``, then a
  closed-loop capacity phase on one connection (two concurrent sessions
  hit a race in the server's warm chunk state and fail some requests
  at random, and the benchmark's workloads must not fail);
* ``scan`` — a closed loop on one connection of 3-query ``auto``
  batches over 256–512-tree segment-aligned windows;
* ``edit`` — a closed loop of ``replace``/``append`` writes, each
  followed by a read-your-writes window read and plain window reads,
  driven through ``perfbench/writer.py`` (one ``CorpusStore``
  writer process).

Every phase runs a fixed, seeded number of operations sized by
``--seconds``.  Every answer is checked; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and the metrics:
the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  The generator and the process under test share one
core.  End-to-end times are reported at the reference machine's speed,
scaled by speed probes taken in the same phase (see ``loadgen.Speed``);
the report also prints them as measured.  A traced run times the
phases twice, against an untraced process and then a traced one, so it
can report the tracing overhead.  All files go under ``.bench_work/``
in the checkout and are removed at the end, except each corpus's
document sizes (``xml-sizes-*.json``), which later runs of the same
seed reuse.  The benchmark's self-tests are
``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import shutil
import signal
import struct
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("lookup", "scan", "edit")
STARTUPS = 3
#: Ten full default 2,048-tree segments, more than the store's 8-segment
#: LRU of materialized segments.
CORPUS_TREES = 20_480
#: Trees ingested between two speed probes during set-up.
PROBE_TREES = 1_024

_children: List[subprocess.Popen] = []


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"  # the ready line must not sit in a buffer
    return env


def _reap(proc: subprocess.Popen, sig=signal.SIGINT) -> None:
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    if proc in _children:
        _children.remove(proc)


# -- the processes under test ------------------------------------------------


class Server:
    """``python -m repro serve --store DIR --port 0`` (or the traced
    launcher around it), ready once it prints its ``serving`` line."""

    def __init__(self, store: str, work: str, spans: Optional[str] = None):
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve",
                       "--store", store, "--port", "0"]
        else:
            command = [sys.executable, os.path.join(HERE, "launch.py"), spans,
                       "serve", "--store", store, "--port", "0"]
        self.log = os.path.join(work, "server.log")
        began = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        _children.append(self.proc)
        line = self.proc.stdout.readline()
        self.startup_s = time.perf_counter() - began
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}; see {self.log}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))
        self.pid = self.proc.pid

    def stop(self) -> None:
        _reap(self.proc)


class Writer:
    """``perfbench/writer.py`` over pipes, ready at its ``ready`` line."""

    _PREFIX = struct.Struct(">I")

    def __init__(self, store: str, work: str, spans: Optional[str] = None):
        command = [sys.executable, os.path.join(HERE, "writer.py"), store]
        if spans is not None:
            command.append(spans)
        began = time.perf_counter()
        with open(os.path.join(work, "writer.log"), "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log,
            )
        _children.append(self.proc)
        line = self.proc.stdout.readline()
        self.startup_s = time.perf_counter() - began
        if line != b"ready\n":
            self.stop()
            raise RuntimeError(f"edit writer did not start: {line!r}")
        self.pid = self.proc.pid

    def request(self, message: dict) -> dict:
        body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.write(self._PREFIX.pack(len(body)) + body)
        self.proc.stdin.flush()
        head = self.proc.stdout.read(self._PREFIX.size)
        if len(head) < self._PREFIX.size:
            raise RuntimeError("edit writer exited mid-operation")
        (length,) = self._PREFIX.unpack(head)
        return pickle.loads(self.proc.stdout.read(length))

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.request({"op": "quit"})
            except (BrokenPipeError, RuntimeError, struct.error):
                pass
        _reap(self.proc, signal.SIGTERM)


# -- set-up ----------------------------------------------------------------------


def build_store(path: str, corpus, speed) -> float:
    """Ingest ``corpus`` into a fresh store, probing ``speed`` every
    :data:`PROBE_TREES` trees; returns the seconds it took, probes
    excluded."""
    from repro.corpus import CorpusStore

    def trees():
        for position, tree in enumerate(corpus):
            if position % PROBE_TREES == 0:
                speed.probe()
            yield tree

    store = CorpusStore.create(path)
    try:
        began = time.perf_counter()
        store.ingest(trees())
        return time.perf_counter() - began - speed.spent
    finally:
        store.close()


def disk_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path) for name in names
    )


# -- checking ----------------------------------------------------------------------


class Tally:
    """Attempted / failed operations, failures by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.kinds: Dict[str, int] = {}
        self.examples: List[str] = []

    def check(self, ok: bool, kind: str = "", detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            if kind == "wrong":
                self.wrong += 1
            if len(self.examples) < 3:
                self.examples.append(f"{kind}: {detail}"[:300])


def check_responses(results, requests, expected, tally: Tally) -> set:
    """Check every response against its expected rows; returns the
    request ids that failed."""
    by_rid = {request.rid: request for request in requests}
    answered, failed = set(), set()
    for rid, _, _, _, body in results:
        answered.add(rid)
        response = json.loads(body)
        if not response.get("ok"):
            error = response.get("error") or {}
            tally.check(False, error.get("code", "error"),
                        f"{by_rid[rid].payload} -> {error.get('message')}")
            failed.add(rid)
        else:
            ok = response["results"] == expected.rows(by_rid[rid])
            tally.check(ok, "wrong", str(by_rid[rid].payload))
            if not ok:
                failed.add(rid)
    for rid in by_rid:
        if rid not in answered:
            tally.check(False, "unanswered")
    return failed


# -- one pass of the timed phases against one process ---------------------------


def serve_pass(workload, store_path, work, expected, tally, startups, spans=None):
    """Start the server ``startups`` times (the last one stays), warm it
    up, run the timed phases, and read its CPU and peak RSS."""
    from loadgen import Speed, call, closed_loop, cpu_seconds, open_loop, peak_rss_mb

    setup_speed = Speed()
    starts = []
    for attempt in range(startups):
        setup_speed.probe()
        server = Server(store_path, work, spans if attempt == startups - 1 else None)
        starts.append(server.startup_s)
        if attempt < startups - 1:
            server.stop()
    out: Dict[str, object] = {"startups_s": starts}
    try:
        began, probing = time.perf_counter(), setup_speed.spent
        warm = closed_loop(server.address, workload.warmup, setup_speed)
        out["warmup_s"] = (time.perf_counter() - began
                           - (setup_speed.spent - probing))
        out["setup_probes"] = setup_speed.samples
        check_responses(warm, workload.warmup, expected, tally)
        call(server.address, {"op": "ping", "rid": "mark:begin"})
        phases = {}
        for name, requests in workload.phases.items():
            speed = Speed()
            cpu0 = cpu_seconds(server.pid)
            began = time.perf_counter()
            if name == "open":
                results = open_loop(server.address, requests, speed)
            else:
                results = closed_loop(server.address, requests, speed)
            phases[name] = {"results": results, "probes": speed.samples,
                            "seconds": time.perf_counter() - began - speed.spent,
                            "cpu_s": cpu_seconds(server.pid) - cpu0}
        call(server.address, {"op": "ping", "rid": "mark:end"})
        out["rss_peak_mb"] = peak_rss_mb(server.pid)
    finally:
        server.stop()
    for name, requests in workload.phases.items():
        phases[name]["failed"] = check_responses(
            phases[name]["results"], requests, expected, tally)
    out["phases"] = phases
    return out


def edit_pass(workload, store_path, work, tally, startups, spans=None):
    """Start the edit writer ``startups`` times (the last one stays),
    warm it up, run the script, and read its CPU and peak RSS."""
    from loadgen import Speed, cpu_seconds, peak_rss_mb
    from workloads import canonical

    setup_speed = Speed()
    starts = []
    for attempt in range(startups):
        setup_speed.probe()
        writer = Writer(store_path, work, spans if attempt == startups - 1 else None)
        starts.append(writer.startup_s)
        if attempt < startups - 1:
            writer.stop()
    out: Dict[str, object] = {"startups_s": starts}
    try:
        began = time.perf_counter()
        for op in workload.warmup:
            reply = writer.request({k: v for k, v in op.items() if k != "expected"})
            tally.check(bool(reply.get("ok")), "error", str(reply.get("error")))
        out["warmup_s"] = time.perf_counter() - began
        out["setup_probes"] = setup_speed.samples
        speed = Speed()
        cpu0 = cpu_seconds(writer.pid)
        writer.request({"op": "mark", "label": "mark:begin"})
        records = []
        began = time.perf_counter()
        previous = began
        for rid, op in enumerate(workload.ops):
            if speed.due():
                speed.probe()
                previous = time.perf_counter()
            message = {k: v for k, v in op.items() if k != "expected"}
            message["rid"] = rid
            sent = time.perf_counter()
            reply = writer.request(message)
            received = time.perf_counter()
            records.append((op, reply, previous, sent, received))
            previous = received
        seconds = time.perf_counter() - began - speed.spent
        writer.request({"op": "mark", "label": "mark:end"})
        cpu_s = cpu_seconds(writer.pid) - cpu0
        out["rss_peak_mb"] = peak_rss_mb(writer.pid)
    finally:
        writer.stop()
    failed = set()
    for index, (op, reply, _, _, _) in enumerate(records):
        if not reply.get("ok"):
            tally.check(False, "error", f"{op['op']} -> {reply.get('error')}")
            failed.add(index)
        elif op["op"] == "read":
            rows = [[canonical(cell) for cell in row] for row in reply["rows"]]
            ok = rows == op["expected"]
            tally.check(ok, "wrong",
                        f"read [{op['start']}, {op['stop']}) {op['queries']}")
            if not ok:
                failed.add(index)
        else:
            tally.check(True)
    out["records"] = records
    out["failed"] = failed
    out["phases"] = {"closed": {"probes": speed.samples, "seconds": seconds,
                                "cpu_s": cpu_s}}
    return out


# -- end-to-end metrics of one pass ------------------------------------------------


def end_to_end(name: str, run: Dict, setup: Dict) -> Dict[str, Dict]:
    """Every end-to-end metric of one pass, with its sample count.

    Times and rates are scaled to the reference machine by the speed
    probes of the phase they come from (see ``loadgen.Speed``); ``raw``
    holds them as measured."""
    from loadgen import reference_scale
    from metrics import latency_block, median

    # A failed operation misses any latency limit (infinite latency) and
    # is no completion.
    inf = float("inf")
    phases = run["phases"]
    timed_probes = [p for phase in phases.values() for p in phase["probes"]]
    # Each part of the set-up and each phase's CPU time is scaled by the
    # probes taken while it ran.
    cpu_s = sum(phase["cpu_s"] for phase in phases.values())
    cpu_scale = sum(phase["cpu_s"] * reference_scale(phase["probes"])
                    for phase in phases.values()) / max(cpu_s, 1e-9)
    ingest_scale = reference_scale(setup["probes"])
    started_s = median(run["startups_s"]) + run["warmup_s"]
    setup_s = setup["ingest_s"] + started_s
    setup_scale = (setup["ingest_s"] * ingest_scale + started_s
                   * reference_scale(run["setup_probes"])) / setup_s
    if name == "edit":
        records = list(enumerate(run["records"]))
        failed = run["failed"]
        latencies = [inf if i in failed else r[1]["seconds"] * 1000.0
                     for i, r in records if r[0]["op"] == "read"]
        write_ms = [inf if i in failed else r[1]["seconds"] * 1000.0
                    for i, r in records if r[0]["op"] != "read"]
        completed = capacity_n = len(records) - len(failed)
        capacity = completed / phases["closed"]["seconds"]
        late = [(r[3] - r[2]) * 1000.0 for _, r in records]
        latency_scale = capacity_scale = write_scale = reference_scale(
            phases["closed"]["probes"])
    else:
        # No write happens in the timed phases: the write latency is the
        # set-up ingest's time per document.  It is a mean: the median of
        # the narrowly spread per-document times jumps between the
        # machine's speed states.
        write_ms = [setup["ingest_s"] * 1000.0 / setup["trees"]]
        write_scale = ingest_scale
        if name == "lookup":
            timed, closed = phases["open"], phases["capacity"]
            start = 1  # open loop: from the due time
        else:
            timed = closed = phases["closed"]
            start = 2  # closed loop: from the send
        latencies = [inf if r[0] in timed["failed"] else (r[3] - r[start]) * 1000.0
                     for r in timed["results"]]
        late = [(r[2] - r[1]) * 1000.0 for r in timed["results"]]
        capacity_n = len(closed["results"]) - len(closed["failed"])
        capacity = capacity_n / closed["seconds"]
        completed = sum(len(p["results"]) - len(p["failed"])
                        for p in phases.values())
        latency_scale = reference_scale(timed["probes"])
        capacity_scale = reference_scale(closed["probes"])
    block = latency_block(latencies)
    cpu_ms = cpu_s * 1000.0 / max(1, completed)
    raw = {
        "setup_s": (setup_s, setup_scale, len(run["startups_s"])),
        "latency_p50_ms": (block["p50"], latency_scale, block["n"]),
        "latency_p90_ms": (block["p90"], latency_scale, block["n"]),
        "capacity_rps": (capacity, 1.0 / capacity_scale, capacity_n),
        "cpu_ms_per_req": (cpu_ms, cpu_scale, completed),
        "write_p50_ms": (median(write_ms), write_scale,
                         len(write_ms) if name == "edit" else setup["trees"]),
    }
    out = {key: {"value": value * scale, "n": n, "raw": value}
           for key, (value, scale, n) in raw.items()}
    out["latency_p90_ms"]["p99"] = block["p99"] * latency_scale
    out["rss_peak_mb"] = {"value": run["rss_peak_mb"], "n": 1}
    out["_late_p99_ms"] = {"value": latency_block(late)["p99"], "n": len(late)}
    out["_spin_ms"] = {"value": median(timed_probes), "n": len(timed_probes)}
    return out


# -- per-layer metrics of a traced pass ---------------------------------------------


def per_layer(name, traced, setup, base_e2e, traced_e2e, server_spans,
              setup_spans) -> Dict[str, float]:
    import tracer as tr

    timed = tr.window(server_spans, "mark:begin", "mark:end")
    begin = tr.mark_amount(server_spans, "mark:begin") or [0, 0]
    end = tr.mark_amount(server_spans, "mark:end") or [0, 0]
    s = tr.Summary(timed)
    if name == "edit":
        ops = len(traced["records"])
        writes = [r for r in traced["records"] if r[0]["op"] != "read"]
        write_spans = s
        bytes_written = [r[1].get("wchar", 0) for r in writes]
    else:
        ops = sum(len(p["results"]) for p in traced["phases"].values())
        write_spans = tr.Summary(setup_spans)
        bytes_written = []
    ops = max(1, ops)
    writes_n = max(1, write_spans.count("corpus.store.append")
                   + write_spans.count("corpus.store.replace"))
    ingests = [sp[6] for sp in setup_spans
               if sp[0] == "corpus.store.ingest" and sp[3] is None]
    fsyncs = _fsyncs_in_writes(write_spans.spans)
    plans_seen = (end[0] + end[1]) - (begin[0] + begin[1])
    chunk_amounts = s.amounts("corpus.executor.run_batch")
    shard_cells = s.total("engine.ir.eval")
    cells = s.outer_calls.get("engine.cell", 0)
    gc_spans = [sp for sp in timed if sp[0] == "python.gc"]
    startup = traced["startups_s"][-1]
    return {
        "service.decode_ms": s.mean_ms("service.decode"),
        "service.encode_ms": s.mean_ms("service.encode"),
        "service.response_kb": (s.total("service.encode") / 1024.0
                                / max(1, s.count("service.encode"))),
        "service.handle_self_ms": s.mean_ms("service.handle"),
        "service.queue_wait_ms": _queue_wait(name, traced, timed),
        "service.cache.hit_share": (s.total("service.cache.get")
                                    / max(1, s.count("service.cache.get"))),
        "service.cache.put_ms": s.mean_ms("service.cache.put"),
        "service.admission.refused": s.total("service.admission.admit") / ops,
        "service.startup_s": 0.0 if name == "edit" else startup,
        "engine.plans.compile_ms": s.mean_ms("engine.plans.compile"),
        "engine.plans.miss_share": ((end[1] - begin[1]) / plans_seen
                                    if plans_seen else 0.0),
        "engine.planner.price_ms": s.mean_ms("engine.planner.price"),
        "engine.planner.kernel_share": (shard_cells / (shard_cells + cells)
                                        if shard_cells + cells else 0.0),
        "corpus.store.run_ms": s.mean_ms("corpus.store.run"),
        "corpus.executor.chunks_per_req": sum(a[0] for a in chunk_amounts) / ops,
        "corpus.executor.degraded_chunks": sum(a[1] for a in chunk_amounts) / ops,
        "corpus.segment.unpickle_ms": s.mean_ms("corpus.segment.tree"),
        "corpus.segment.trees_unpickled": s.count("corpus.segment.tree") / ops,
        "corpus.store.stats_ms": s.mean_ms("corpus.store.statistics"),
        "corpus.store.ingest_s": (sum(ingests) / len(ingests) / 1e9
                                  - setup["probe_s"] if ingests else 0.0),
        "corpus.store.replace_ms": write_spans.mean_ms("corpus.store.replace"),
        "corpus.store.append_ms": write_spans.mean_ms(
            "corpus.store.append", absorbing="corpus.store.ingest"),
        "corpus.segment.seal_ms": write_spans.mean_ms("corpus.segment.seal"),
        "corpus.segment.sidecar_write_ms": write_spans.mean_ms(
            "corpus.segment.sidecar_write"),
        "corpus.store.fsyncs_per_write": fsyncs / writes_n,
        "corpus.store.bytes_written_per_write": (
            sum(bytes_written) / len(bytes_written) if bytes_written else 0.0),
        "engine.index.build_ms": s.mean_ms("engine.index.build"),
        "engine.index.builds": s.count("engine.index.build") / ops,
        "engine.index.packed_ms": s.mean_ms("engine.index.packed"),
        "engine.index.packed_lanes": s.count("engine.index.packed") / ops,
        "engine.index.repair_ms": write_spans.mean_ms("engine.index.repair"),
        "engine.index.serialize_ms": write_spans.mean_ms("engine.index.serialize"),
        "engine.ir.stack_ms": s.mean_ms("engine.ir.stack"),
        "engine.ir.eval_ms": s.mean_ms("engine.ir.eval"),
        "engine.index.to_nodes_ms": s.mean_ms("engine.index.to_nodes"),
        "engine.cell_ms": s.mean_ms("engine.cell"),
        "engine.cells": cells / ops,
        "python.gc_ms": sum(sp[2] - sp[1] for sp in gc_spans) / 1e6 / ops,
        "python.gc_gen2": sum(1 for sp in gc_spans if sp[5] == 2) / ops,
        "loadgen.late_p99_ms": traced_e2e["_late_p99_ms"]["value"],
        "machine.spin_ms": traced_e2e["_spin_ms"]["value"],
        "trace.overhead_latency_p50_ms": (traced_e2e["latency_p50_ms"]["value"]
                                          - base_e2e["latency_p50_ms"]["value"]),
        "trace.overhead_cpu_ms_per_req": (traced_e2e["cpu_ms_per_req"]["value"]
                                          - base_e2e["cpu_ms_per_req"]["value"]),
    }


def _fsyncs_in_writes(spans) -> int:
    """fsync spans inside a top-level append/replace span."""
    writes = [(sp[1], sp[2]) for sp in spans
              if sp[0] in ("corpus.store.append", "corpus.store.replace")
              and sp[3] is None]
    return sum(
        1 for sp in spans if sp[0] == "os.fsync"
        and any(lo <= sp[1] <= hi for lo, hi in writes)
    )


def _queue_wait(name, traced, timed) -> float:
    """Client latency minus the server span (decode start → encode end)."""
    if name == "edit":
        return 0.0
    decode = {sp[4]: sp[1] for sp in timed if sp[0] == "service.decode"}
    encode = {sp[4]: sp[2] for sp in timed if sp[0] == "service.encode"}
    waits = []
    for phase, data in traced["phases"].items():
        for rid, due, sent, received, _ in data["results"]:
            if rid in decode and rid in encode:
                start = due if phase == "open" else sent
                server_s = (encode[rid] - decode[rid]) / 1e9
                waits.append((received - start - server_s) * 1000.0)
    return sum(waits) / len(waits) if waits else 0.0


# -- the run ---------------------------------------------------------------------


def run(args) -> Dict[str, object]:
    import workloads as wl

    from loadgen import Speed
    from metrics import COVERAGE_GAPS, END_TO_END, PER_LAYER

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    store_path = os.path.join(work, "store")
    tracer = None
    try:
        began = time.perf_counter()
        corpus = wl.make_corpus(args.seed, args.trees)
        corpus_digest = hashlib.sha256(pickle.dumps(
            corpus, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()
        prep = {"generate_s": time.perf_counter() - began}
        began = time.perf_counter()
        final = corpus  # the corpus as the workload leaves it
        if args.workload == "lookup":
            workload = wl.lookup_workload(args.trees, args.seconds)
        elif args.workload == "scan":
            workload = wl.scan_workload(args.trees, args.seconds)
        else:
            workload = wl.Workload(wl.EDIT_QUERIES, wl.edit_warmup())
            workload.ops, final = wl.edit_ops(args.seed, corpus, args.seconds)
        expected = None
        if args.workload != "edit":
            expected = wl.Expected(corpus, workload.pool)
            expected.prepare(workload.warmup + [
                r for phase in workload.phases.values() for r in phase])
            if args.flip_expected:
                expected.flip_one()
        elif args.flip_expected:
            for op in workload.ops:
                if op["op"] == "read":
                    op["expected"] = op["expected"][1:] + [[None]]
                    break
        prep["expected_s"] = time.perf_counter() - began
        began = time.perf_counter()
        doc_bytes = wl.xml_bytes(
            corpus, wl.xml_sizes(corpus, corpus_digest, WORK), final)
        del final
        prep["xml_s"] = time.perf_counter() - began
        digest = hashlib.sha256(json.dumps(
            workload.script(), ensure_ascii=False, sort_keys=True,
        ).encode("utf-8")).hexdigest()

        if args.trace:
            import tracer as tr

            tracer = tr.Tracer()
            tr.install_writes(tracer)
        ingest_speed = Speed()
        setup = {"ingest_s": build_store(store_path, corpus, ingest_speed),
                 "trees": len(corpus), "probes": ingest_speed.samples,
                 "probe_s": ingest_speed.spent}
        # The generator keeps no corpus while it measures, and its own
        # collector stays out of the timed phases.
        del corpus
        if expected is not None:
            expected.release_trees()
        gc.collect()
        gc.freeze()
        gc.disable()
        tally = Tally()
        passes = [None] if not args.trace else [None, os.path.join(work, "spans.jsonl")]
        pristine = store_path + ".pristine"
        if args.trace and args.workload == "edit":
            # The traced pass replays the script on the store the base
            # pass started from.
            shutil.copytree(store_path, pristine)
        results = []
        for spans in passes:
            startups = STARTUPS if not args.trace else 1
            if args.workload == "edit":
                if os.path.isdir(pristine) and spans is not None:
                    shutil.rmtree(store_path)
                    os.rename(pristine, store_path)
                results.append(edit_pass(workload, store_path, work, tally,
                                         startups, spans))
            else:
                results.append(serve_pass(workload, store_path, work, expected,
                                          tally, startups, spans))
        gc.enable()
        gc.unfreeze()
        e2e = [end_to_end(args.workload, r, setup) for r in results]
        ratio = disk_bytes(store_path) / doc_bytes
        metrics: Dict[str, Dict] = {}
        for key, unit_info in END_TO_END.items():
            if key == "ok_share":
                value = (tally.attempted - tally.failed) / max(1, tally.attempted)
                n = tally.attempted
            elif key == "disk_bytes_per_doc_byte":
                value, n = ratio, 1
            else:
                value, n = e2e[0][key]["value"], e2e[0][key]["n"]
            metrics[key] = {"value": value, "unit": unit_info[0], "n": n}
            if "raw" in e2e[0].get(key, {}):
                metrics[key]["raw"] = e2e[0][key]["raw"]
        layers = None
        if args.trace:
            tracer.dump(os.path.join(work, "setup-spans.jsonl"))
            setup_spans = tr.load(os.path.join(work, "setup-spans.jsonl"))
            server_spans = tr.load(passes[1])
            layer_values = per_layer(args.workload, results[1], setup, e2e[0],
                                     e2e[1], server_spans, setup_spans)
            layers = {k: {"value": layer_values[k], "unit": PER_LAYER[k][0]}
                      for k in PER_LAYER}
        return {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "trees": args.trees,
            "requests_sha256": digest, "corpus_sha256": corpus_digest,
            "distinct_windows": len({
                (r.start, r.stop) for phase in workload.phases.values()
                for r in phase}),
            "attempted": tally.attempted, "failed": tally.failed,
            "wrong": tally.wrong, "failures": tally.kinds,
            "failure_examples": tally.examples,
            "metrics": metrics, "per_layer": layers,
            "validity": {
                "loadgen.late_p99_ms": e2e[0]["_late_p99_ms"],
                "machine.spin_ms": e2e[0]["_spin_ms"],
                "latency_p99_ms": e2e[0]["latency_p90_ms"]["p99"],
            },
            "setup": {"ingest_s": setup["ingest_s"],
                      "startups_s": results[0]["startups_s"],
                      "warmup_s": results[0]["warmup_s"]},
            "inputs": prep,
            "coverage_gaps": list(COVERAGE_GAPS),
        }
    finally:
        gc.enable()
        for proc in list(_children):
            _reap(proc, signal.SIGKILL)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def print_report(report: Dict[str, object]) -> None:
    from metrics import COVERAGE_GAPS, PER_LAYER

    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} "
          f"trees={report['trees']} requests={report['requests_sha256'][:16]} "
          f"distinct windows={report['distinct_windows']}")
    setup = report["setup"]
    print("  inputs (untimed): " + ", ".join(
        f"{k} {v:.2f}" for k, v in report["inputs"].items()))
    print(f"  set-up: ingest {setup['ingest_s']:.3f} s, starts "
          f"{', '.join(f'{s:.3f}' for s in setup['startups_s'])} s, "
          f"warm-up {setup['warmup_s']:.3f} s")
    print("  end to end (times at reference speed; as measured in [])")
    for name, metric in report["metrics"].items():
        extra = ""
        if "raw" in metric:
            extra = f"  [{metric['raw']:.4f}]"
        if name == "latency_p90_ms":
            extra += f"  (p99 {report['validity']['latency_p99_ms']:.3f} ms)"
        print(f"  {name:<26} {metric['value']:>12.4f} {metric['unit']:<9}"
              f" n={metric['n']}{extra}")
    validity = report["validity"]
    print(f"  validity: loadgen.late_p99_ms="
          f"{validity['loadgen.late_p99_ms']['value']:.3f} "
          f"(n={validity['loadgen.late_p99_ms']['n']}), machine.spin_ms="
          f"{validity['machine.spin_ms']['value']:.3f} "
          f"(n={validity['machine.spin_ms']['n']})")
    print(f"  answers: {report['attempted']} attempted, {report['failed']} "
          f"failed, {report['wrong']} wrong {report['failures'] or ''}")
    for example in report["failure_examples"]:
        print(f"    {example}")
    if report["per_layer"]:
        print("  per layer (times: mean self time per call; counts: per "
              "operation)  -> moves, on")
        for name, metric in report["per_layer"].items():
            _, _, _, moves, on = PER_LAYER[name]
            print(f"    {name:<38} {metric['value']:>12.4f} "
                  f"{metric['unit']:<8} -> {moves}; {on}")
    print("  not exercised by any workload: " + "; ".join(COVERAGE_GAPS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trees", type=int, default=CORPUS_TREES,
                        help="corpus size (the self-tests shrink it)")
    parser.add_argument("--report", default=None,
                        help="also write the full report as JSON here")
    parser.add_argument("--flip-expected", action="store_true",
                        help=argparse.SUPPRESS)  # the answer-check self-test
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run it from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Children start with SIGINT at its default (a handler is reset on
    # exec, an inherited "ignore" is not), so the server stops on it and
    # the traced one writes its spans; this process stops on it too.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # One core for the generator and the process under test (children
    # and threads inherit it), so a request never waits for an idle
    # virtual core to be woken and every speed probe runs where the
    # process under test does.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    report = run(args)
    print_report(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, ensure_ascii=False)
    chosen = report["per_layer"] if args.trace else report["metrics"]
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
