"""Spans around each layer's public entry points, for traced runs only.

:class:`Tracer` replaces a module or class attribute with a wrapper that
records a span — name, start, end, parent span, request id and one
optional amount — and calls the original.  Spans stay in memory and are
written out as JSON lines when the traced process ends.  A span's self
time is its duration minus the durations of its child spans (spans that
started and ended inside it on the same thread).

Untraced runs never import this module.  The ``install_*`` functions
name every wrapped entry point; :class:`Summary` totals a span file per
entry point for the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

_NAME, _START, _END, _PARENT, _RID, _AMOUNT, _CHILD = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    # -- request ids -----------------------------------------------------

    def set_rid(self, rid) -> None:
        self._local.rid = rid

    def rid(self):
        return getattr(self._local, "rid", None)

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        amount: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
        rid_of: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``amount(args, result)`` and ``on_error(args, exc)`` give the
        span's amount; ``rid_of(args, result)`` its request id when the
        calling thread has none set."""
        original = getattr(owner, attr)
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, 0, 0, parent, getattr(local, "rid", None), None, 0]
            spans.append(span)
            stack.append(span)
            span[_START] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[_END] = clock()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += span[_END] - span[_START]
                if on_error is not None:
                    span[_AMOUNT] = on_error(args, exc)
                raise
            span[_END] = clock()
            stack.pop()
            if parent is not None:
                parent[_CHILD] += span[_END] - span[_START]
            if amount is not None:
                span[_AMOUNT] = amount(args, result)
            if rid_of is not None and span[_RID] is None:
                span[_RID] = rid_of(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def mark(self, label: str, amount=None) -> None:
        """A zero-length span bounding a timed phase."""
        now = time.perf_counter_ns()
        self.spans.append([label, now, now, None, None, amount, 0])

    def record(self, name: str, start_ns: int, end_ns: int, amount=None) -> None:
        """A span timed by the caller (GC pauses, spin loops)."""
        self.spans.append([name, start_ns, end_ns, None, self.rid(), amount, 0])

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in list(self.spans):
                parent = span[_PARENT]
                handle.write(json.dumps([
                    span[_NAME], span[_START], span[_END],
                    None if parent is None else ids.get(id(parent)),
                    span[_RID], span[_AMOUNT],
                    span[_END] - span[_START] - span[_CHILD],
                ], ensure_ascii=False) + "\n")


# -- what each process wraps ---------------------------------------------------


def install_gc(tracer: Tracer) -> None:
    started: Dict[int, int] = {}

    def callback(phase, info):
        if phase == "start":
            started[threading.get_ident()] = time.perf_counter_ns()
        else:
            began = started.pop(threading.get_ident(), None)
            if began is not None:
                tracer.record("python.gc", began, time.perf_counter_ns(),
                              info.get("generation"))

    gc.callbacks.append(callback)


def install_writes(tracer: Tracer) -> None:
    """The store's write path: ingest, append, replace, and below."""
    from repro.corpus import segment, store

    tracer.wrap(store.CorpusStore, "ingest", "corpus.store.ingest")
    tracer.wrap(store.CorpusStore, "append", "corpus.store.append")
    tracer.wrap(store.CorpusStore, "replace", "corpus.store.replace")
    tracer.wrap(segment.SegmentWriter, "seal", "corpus.segment.seal")
    tracer.wrap(store, "write_sidecar", "corpus.segment.sidecar_write")
    tracer.wrap(store, "serialize_index", "engine.index.serialize")
    tracer.wrap(store, "repair_index", "engine.index.repair")
    tracer.wrap(os, "fsync", "os.fsync")


def install_reads(tracer: Tracer) -> None:
    """The store's read path: run, executor, segments, engines."""
    from repro.corpus import executor, segment, store
    from repro.engine import index

    tracer.wrap(store.CorpusStore, "run", "corpus.store.run")
    tracer.wrap(store.CorpusStore, "statistics", "corpus.store.statistics")
    tracer.wrap(
        store, "run_batch", "corpus.executor.run_batch",
        amount=lambda args, result: [
            len(result.chunks), sum(1 for c in result.chunks if c.fell_back)
        ],
    )
    tracer.wrap(segment.Segment, "tree", "corpus.segment.tree")
    tracer.wrap(
        segment.Segment, "trees", "corpus.segment.trees",
        amount=lambda args, result: len(result),
    )
    tracer.wrap(executor, "compile_query", "engine.plans.compile")
    tracer.wrap(executor, "evaluate_cell", "engine.cell")
    tracer.wrap(
        executor, "evaluate_shard", "engine.ir.eval",
        amount=lambda args, result: args[1].lanes,
    )
    tracer.wrap(
        executor, "StackedShard", "engine.ir.stack",
        amount=lambda args, result: result.lanes,
    )
    tracer.wrap(executor, "PackedIndex", "engine.index.packed")
    tracer.wrap(index.TreeIndex, "__init__", "engine.index.build")
    tracer.wrap(index.TreeIndex, "to_nodes", "engine.index.to_nodes")
    tracer.wrap(index.PackedIndex, "to_nodes", "engine.index.to_nodes")


def install_service(tracer: Tracer) -> None:
    """The query service above the store (server process only)."""
    from repro.engine.plans import plan_cache_info
    from repro.service import admission, cache, server, session
    from repro.service.protocol import OVERLOADED, ServiceError

    # The request id rides in the request itself; it is set on the
    # dispatch thread before the handle span opens, so every span below
    # carries it, and the response object carries it on to the encode.
    responses: Dict[int, object] = {}
    tracer.wrap(session.Dispatcher, "handle", "service.handle")
    traced_handle = session.Dispatcher.handle

    def handle(self, request, state):
        rid = request.get("rid") if isinstance(request, dict) else None
        if isinstance(rid, str) and rid.startswith("mark:"):
            info = plan_cache_info()
            tracer.mark(rid, [info.hits, info.misses])
        tracer.set_rid(rid)
        try:
            response = traced_handle(self, request, state)
        finally:
            tracer.set_rid(None)
        responses[id(response)] = rid
        return response

    session.Dispatcher.handle = handle
    tracer.wrap(
        server, "decode_payload", "service.decode",
        rid_of=lambda args, result: result.get("rid"),
    )
    tracer.wrap(
        server, "encode_frame", "service.encode",
        amount=lambda args, result: len(result),
        rid_of=lambda args, result: responses.pop(id(args[0]), None),
    )
    tracer.wrap(
        cache.ResultCache, "get", "service.cache.get",
        amount=lambda args, result: 0 if result is None else 1,
    )
    tracer.wrap(cache.ResultCache, "put", "service.cache.put")
    tracer.wrap(
        admission.AdmissionController, "admit", "service.admission.admit",
        on_error=lambda args, exc: int(
            isinstance(exc, ServiceError) and exc.code == OVERLOADED
        ),
    )
    tracer.wrap(session, "plan_queries", "engine.planner.price")


# -- summarizing ----------------------------------------------------------------


def load(path: str) -> List[list]:
    """Spans as ``[name, start, end, parent id, rid, amount, self, id]``."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) + [index]
                for index, line in enumerate(handle)]


def window(spans: Iterable[list], begin: str, end: str) -> List[list]:
    """The spans that started between the two marks (inclusive)."""
    spans = list(spans)
    starts = [s[1] for s in spans if s[0] == begin]
    ends = [s[1] for s in spans if s[0] == end]
    if not starts or not ends:
        raise ValueError(f"missing phase marks {begin!r}/{end!r}")
    lo, hi = min(starts), max(ends)
    return [s for s in spans if lo <= s[1] <= hi]


def mark_amount(spans: Iterable[list], label: str):
    for span in spans:
        if span[0] == label:
            return span[5]
    return None


class Summary:
    """Per-name span totals: calls, self time, summed amounts."""

    def __init__(self, spans: Iterable[list]) -> None:
        self.spans = list(spans)
        self.names = {span[7]: span[0] for span in self.spans}
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.amount: Dict[str, float] = {}
        self.outer_calls: Dict[str, int] = {}
        for span in self.spans:
            name = span[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + span[6]
            if isinstance(span[5], (int, float)) and not isinstance(span[5], bool):
                self.amount[name] = self.amount.get(name, 0) + span[5]
            if self.parent_name(span) != name:
                self.outer_calls[name] = self.outer_calls.get(name, 0) + 1

    def parent_name(self, span) -> Optional[str]:
        return None if span[3] is None else self.names.get(span[3])

    def mean_ms(self, name: str, absorbing: str = "") -> float:
        """Mean self time per call of ``name``; with ``absorbing``, the
        self time of its direct ``absorbing`` children counts as its own
        (``append`` does its work inside a nested ``ingest``)."""
        calls = self.calls.get(name, 0)
        total = self.self_ns.get(name, 0)
        if absorbing:
            total += sum(span[6] for span in self.spans if span[0] == absorbing
                         and self.parent_name(span) == name)
        return total / calls / 1e6 if calls else 0.0

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def total(self, name: str) -> float:
        return self.amount.get(name, 0)

    def amounts(self, name: str) -> List:
        return [s[5] for s in self.spans if s[0] == name and s[5] is not None]
