"""The benchmark's metric tables and the statistics it reports.

``BENCHMARK.json`` lists the same names, units and directions; the
per-layer → end-to-end map and the coverage map live here (that file's
keys are fixed) and are printed with every report.

End-to-end times and rates are reported at the reference machine's
speed (``loadgen.REFERENCE_PROBE_MS``): each is scaled by the median
speed probe of the phase it was measured in.  Per-layer times are as
measured.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: name -> (unit, better, definition)
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": ("s", "lower",
                "ingest of the generated corpus into a fresh store + "
                "median of 3 server/writer starts + warm-up"),
    "latency_p50_ms": ("ms", "lower",
                       "median read/query latency; open loop: from the due time"),
    "latency_p90_ms": ("ms", "lower", "90th percentile of the same"),
    "capacity_rps": ("req/s", "higher",
                     "completions per second in a closed loop"),
    "cpu_ms_per_req": ("ms", "lower",
                       "user+sys CPU of the process under test per completed "
                       "operation over the timed phases"),
    "rss_peak_mb": ("MB", "lower",
                    "VmHWM of the process under test at the end of the run"),
    "ok_share": ("fraction", "higher",
                 "operations verified correct / operations attempted"),
    "disk_bytes_per_doc_byte": ("ratio", "lower",
                                "store directory bytes / corpus to_xml bytes"),
    "write_p50_ms": ("ms", "lower",
                     "median write latency: replace/append on edit; on "
                     "lookup and scan, which write nothing else, the "
                     "set-up ingest's wall time per document"),
}

#: name -> (unit, better, timed at, moves, on).  Times are mean self time
#: per call of the entry point; counts are per end-to-end operation.
PER_LAYER: Dict[str, Tuple[str, str, str, str, str]] = {
    "service.decode_ms": ("ms", "lower", "server.decode_payload",
                          "latency_p50_ms", "lookup"),
    "service.encode_ms": ("ms", "lower", "server.encode_frame",
                          "latency_p50_ms, cpu_ms_per_req", "scan"),
    "service.response_kb": ("KiB", "lower", "server.encode_frame bytes",
                            "latency_p50_ms, cpu_ms_per_req", "scan"),
    "service.handle_self_ms": ("ms", "lower", "Dispatcher.handle minus children",
                               "latency_p50_ms; capacity_rps", "scan; lookup"),
    "service.queue_wait_ms": ("ms", "lower",
                              "client latency minus decode start..encode end",
                              "latency_p90_ms", "lookup"),
    "service.cache.hit_share": ("fraction", "higher", "ResultCache.get",
                                "latency_p50_ms", "lookup"),
    "service.cache.put_ms": ("ms", "lower", "ResultCache.put",
                             "rss_peak_mb", "scan"),
    "service.admission.refused": ("count", "lower",
                                  "AdmissionController.admit OVERLOADED",
                                  "ok_share", "all"),
    "service.startup_s": ("s", "lower", "spawn -> serving line",
                          "setup_s", "lookup, scan"),
    "engine.plans.compile_ms": ("ms", "lower", "executor.compile_query",
                                "latency_p50_ms", "edit, lookup"),
    "engine.plans.miss_share": ("fraction", "lower", "plan_cache_info deltas",
                                "latency_p50_ms", "edit, lookup"),
    "engine.planner.price_ms": ("ms", "lower", "session.plan_queries",
                                "latency_p50_ms", "lookup"),
    "engine.planner.kernel_share": ("fraction", "higher",
                                    "evaluate_shard cells / all cells",
                                    "latency_p50_ms, cpu_ms_per_req", "scan"),
    "corpus.store.run_ms": ("ms", "lower", "CorpusStore.run",
                            "latency_p50_ms", "all"),
    "corpus.executor.chunks_per_req": ("count", "lower", "run_batch chunks",
                                       "latency_p50_ms", "scan"),
    "corpus.executor.degraded_chunks": ("count", "lower",
                                        "run_batch chunks fell_back",
                                        "ok_share", "all"),
    "corpus.segment.unpickle_ms": ("ms", "lower", "Segment.tree",
                                   "latency_p50_ms; write_p50_ms", "lookup; edit"),
    "corpus.segment.trees_unpickled": ("count", "lower", "Segment.tree calls",
                                       "latency_p50_ms; write_p50_ms",
                                       "lookup; edit"),
    "corpus.store.stats_ms": ("ms", "lower", "CorpusStore.statistics",
                              "latency_p50_ms", "edit"),
    "corpus.store.ingest_s": ("s", "lower", "CorpusStore.ingest (set-up)",
                              "setup_s", "all"),
    "corpus.store.replace_ms": ("ms", "lower", "CorpusStore.replace",
                                "write_p50_ms", "edit"),
    "corpus.store.append_ms": ("ms", "lower", "CorpusStore.append",
                               "write_p50_ms", "edit"),
    "corpus.segment.seal_ms": ("ms", "lower", "SegmentWriter.seal",
                               "write_p50_ms; setup_s", "edit; all"),
    "corpus.segment.sidecar_write_ms": ("ms", "lower", "write_sidecar",
                                        "write_p50_ms; setup_s", "edit; all"),
    "corpus.store.fsyncs_per_write": ("count", "lower", "os.fsync per write",
                                      "write_p50_ms", "edit"),
    "corpus.store.bytes_written_per_write": ("bytes", "lower",
                                             "/proc/<pid>/io wchar per write",
                                             "write_p50_ms, "
                                             "disk_bytes_per_doc_byte", "edit"),
    "engine.index.build_ms": ("ms", "lower", "TreeIndex() under executor.index_for",
                              "latency_p50_ms; latency_p90_ms", "lookup; edit"),
    "engine.index.builds": ("count", "lower", "TreeIndex() calls",
                            "latency_p50_ms; latency_p90_ms", "lookup; edit"),
    "engine.index.packed_ms": ("ms", "lower", "PackedIndex(...)",
                               "setup_s; latency_p90_ms", "scan; edit"),
    "engine.index.packed_lanes": ("count", "lower", "PackedIndex(...) calls",
                                  "setup_s; latency_p90_ms", "scan; edit"),
    "engine.index.repair_ms": ("ms", "lower", "repair_index",
                               "write_p50_ms", "edit"),
    "engine.index.serialize_ms": ("ms", "lower", "serialize_index",
                                  "write_p50_ms", "edit"),
    "engine.ir.stack_ms": ("ms", "lower", "StackedShard(...)",
                           "latency_p50_ms, cpu_ms_per_req", "scan"),
    "engine.ir.eval_ms": ("ms", "lower", "evaluate_shard",
                          "latency_p50_ms, cpu_ms_per_req", "scan"),
    "engine.index.to_nodes_ms": ("ms", "lower", "TreeIndex/PackedIndex.to_nodes",
                                 "latency_p50_ms", "scan"),
    "engine.cell_ms": ("ms", "lower", "evaluate_cell", "latency_p50_ms", "lookup"),
    "engine.cells": ("count", "lower", "outermost evaluate_cell calls",
                     "latency_p50_ms", "lookup"),
    "python.gc_ms": ("ms", "lower", "gc.callbacks pause time per operation",
                     "latency_p90_ms, rss_peak_mb", "lookup, scan"),
    "python.gc_gen2": ("count", "lower", "gc.callbacks generation-2 runs",
                       "latency_p90_ms, rss_peak_mb", "lookup, scan"),
    "loadgen.late_p99_ms": ("ms", "lower", "send time minus due time",
                            "none (run validity)", "all"),
    "machine.spin_ms": ("ms", "lower",
                        "median speed probe (fixed loop) in the timed phases",
                        "none (run validity)", "all"),
    "trace.overhead_latency_p50_ms": ("ms", "lower",
                                      "traced minus untraced latency_p50_ms",
                                      "none (tracing cost)", "all"),
    "trace.overhead_cpu_ms_per_req": ("ms", "lower",
                                      "traced minus untraced cpu_ms_per_req",
                                      "none (tracing cost)", "all"),
}

#: Layers no workload exercises: the benchmark cannot judge changes there.
COVERAGE_GAPS = (
    "concurrent sessions (every workload uses one connection at a time: "
    "two sessions hit a race in the executor's warm chunk state that "
    "fails requests at random)",
    "worker-pool fan-out (serve --workers N, shard shipping)",
    "fault degradation",
    "CorpusStore.compact and CorpusStore.recover",
    "caterpillar-relation queries",
    "the reference engine, except where engine=auto picks it",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def latency_block(samples_ms: List[float]) -> Dict[str, float]:
    return {
        "p50": median(samples_ms),
        "p90": percentile(samples_ms, 90),
        "p99": percentile(samples_ms, 99),
        "n": len(samples_ms),
    }
