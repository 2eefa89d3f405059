"""The chunked batch executor: many trees × many queries, one pass.

The execution model is *tree-outer, query-inner* over contiguous chunks
of the corpus:

* every query text is compiled **once** up front through the shared
  plan cache (:mod:`repro.engine.plans`) — this also rejects malformed
  queries with a :class:`~repro.resilience.errors.ParseError` before
  any fan-out, since the reference engine would refuse the same text;
* each chunk evaluates its trees in order, building (or adopting) each
  tree's :class:`~repro.engine.index.TreeIndex` once and running every
  query against it — never once per (query, tree) cell;
* with ``workers > 0`` chunks are fanned out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Workers inherit
  the already-compiled plans when the platform forks; otherwise each
  worker compiles each plan once into its own process-wide cache and
  keeps it warm across every chunk it serves.  Results are reassembled
  by chunk index, so the output ordering is identical to the serial
  path — and to a loop of single-tree calls, which the
  ``corpus/sequential`` oracle pair fuzzes.

Resilience (the PR-4 contract, lifted to chunks): the fast attempt of a
chunk runs under an optional per-chunk :class:`~repro.resilience.Budget`
and fault injector.  An engine fault or budget exhaustion inside a
chunk degrades *that chunk* to the reference evaluators — the batch
never fails, and never reorders.  Parse errors propagate: they are the
caller's, and no fallback could answer them.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine import fo as fast_fo
from ..engine import walk as engine_walk
from ..engine import xpath as fast_xpath
from ..engine.index import (
    IndexFormatError,
    PackedIndex,
    TreeIndex,
    adopt_index,
    index_for,
)
from ..engine.ir import StackedShard, evaluate_shard
from ..engine.planner import Plan, default_planner
from ..engine.plans import (
    compile_caterpillar_plan,
    compile_ir_plan,
    compile_select_plan,
    compile_sentence_plan,
    compile_walk_plan,
    compile_xpath_plan,
)
from ..engine.stats import CorpusStatistics, corpus_statistics
from ..logic import tree_fo
from ..resilience.budget import Budget, ExecutionContext, activate
from ..resilience.errors import EngineError, ParseError, ResourceExhausted
from ..resilience.faults import Fault, FaultInjector
from ..trees.tree import Tree
from .query import CorpusQuery

__all__ = ["ChunkReport", "BatchResult", "run_batch", "plan_queries"]

#: Engines a batch can run on.  ``"fast"`` is the indexed set-at-a-time
#: path with per-chunk reference degradation; ``"reference"`` runs the
#: node-at-a-time evaluators directly (the oracle's other half);
#: ``"vectorized"`` runs each chunk's root-context queries as ONE
#: shared-IR plan over the whole chunk at once — every tree packed into
#: its own lane of one wide integer (:mod:`repro.engine.ir`), with
#: per-tree fallback for queries outside the IR fragment; ``"auto"``
#: lets the cost-based planner pick per query from the corpus's
#: aggregate statistics (:mod:`repro.engine.planner`), upgrading
#: fast picks to the vectorized pass when the batch is big enough to
#: amortise the shard stacking.
ENGINES = ("fast", "reference", "auto", "vectorized")


@dataclass(frozen=True)
class ChunkReport:
    """What happened to one chunk: which trees it covered, which engine
    produced its answers, and whether (and why) it degraded.

    ``steps`` is the budget fuel the chunk's successful attempt spent
    (0 when it ran without a budget) — the query service reconciles
    per-session quotas against it.  ``retries`` counts worker-death
    resubmissions that preceded the answer."""

    index: int
    start: int
    stop: int
    engine: str
    fell_back: bool
    error: Optional[str]
    seconds: float
    steps: int = 0
    retries: int = 0


@dataclass(frozen=True)
class BatchResult:
    """The answers of one batch, in deterministic (tree, query) order.

    ``rows[t][q]`` is the canonical result of query ``q`` on tree ``t``
    — element-wise identical to a loop of single-tree calls, whatever
    the chunking or worker count."""

    queries: Tuple[CorpusQuery, ...]
    rows: Tuple[Tuple[object, ...], ...]
    chunks: Tuple[ChunkReport, ...]
    workers: int
    #: Per-query planner decisions — populated only by ``engine="auto"``
    #: batches, aligned with ``queries``.
    plans: Optional[Tuple[Plan, ...]] = None

    @property
    def tree_count(self) -> int:
        return len(self.rows)

    @property
    def fell_back(self) -> bool:
        """Did any chunk degrade to the reference engine?"""
        return any(chunk.fell_back for chunk in self.chunks)

    def cell(self, tree_index: int, query_index: int) -> object:
        return self.rows[tree_index][query_index]

    def for_query(self, query_index: int) -> Tuple[object, ...]:
        """One query's answers across every tree, in corpus order."""
        return tuple(row[query_index] for row in self.rows)

    def __repr__(self) -> str:
        return (
            f"BatchResult({self.tree_count} trees x "
            f"{len(self.queries)} queries, {len(self.chunks)} chunks, "
            f"workers={self.workers})"
        )


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------


def compile_query(query: CorpusQuery) -> object:
    """Force-compile one query's plan (shared cache); raises
    :class:`ParseError` on malformed text."""
    if query.kind == "xpath":
        return compile_xpath_plan(query.text)
    if query.kind == "ask":
        return compile_sentence_plan(query.text)
    if query.kind == "select":
        return compile_select_plan(query.text)
    if query.kind == "caterpillar":
        return compile_caterpillar_plan(query.text)
    return compile_walk_plan(query.text)[0]


def _planner_parsed(query: CorpusQuery) -> Optional[object]:
    """The parsed object the planner's cost model wants for ``query``
    (``None`` for the walk kinds — it compiles those itself)."""
    if query.kind == "xpath":
        return compile_xpath_plan(query.text)
    if query.kind == "ask":
        return compile_sentence_plan(query.text)
    if query.kind == "select":
        return compile_select_plan(query.text).formula
    return None


def plan_queries(
    queries: Sequence[CorpusQuery], stats: CorpusStatistics
) -> Tuple[Plan, ...]:
    """One planner decision per query against aggregate corpus
    statistics — the whole batch's ``engine="auto"`` resolution."""
    planner = default_planner()
    return tuple(
        planner.plan_for_stats(
            query.kind, query.text, stats, parsed=_planner_parsed(query)
        )
        for query in queries
    )


def evaluate_cell(query: CorpusQuery, tree: Tree, engine: str = "fast"):
    """One (query, tree) cell, canonicalised: node tuples in document
    order, plain bools, or sorted pair tuples — byte-comparable across
    engines and picklable across processes."""
    if engine == "auto":
        plan = default_planner().plan_for_tree(
            query.kind, query.text, tree, parsed=_planner_parsed(query)
        )
        return evaluate_cell(query, tree, plan.engine)
    if engine == "vectorized":
        engine = "fast"  # one cell has no shard to stack across
    if engine == "fast":
        if query.kind == "xpath":
            return fast_xpath.select(
                compile_xpath_plan(query.text), tree, query.context
            )
        if query.kind == "ask":
            return fast_fo.evaluate(compile_sentence_plan(query.text), tree)
        if query.kind == "select":
            plan = compile_select_plan(query.text)
            return fast_fo.select(
                plan.formula, tree, query.context, plan.x, plan.y
            )
        if query.kind == "caterpillar":
            expr, _ = compile_walk_plan(query.text)
            return engine_walk.walk(expr, tree, query.context)
        expr, _ = compile_walk_plan(query.text)
        return tuple(sorted(engine_walk.relation(expr, tree)))
    from ..caterpillar import nfa as reference_walk
    from ..xpath.evaluator import select as reference_xpath_select

    if query.kind == "xpath":
        return reference_xpath_select(
            compile_xpath_plan(query.text), tree, query.context
        )
    if query.kind == "ask":
        return tree_fo.evaluate(compile_sentence_plan(query.text), tree)
    if query.kind == "select":
        return compile_select_plan(query.text).select(tree, query.context)
    if query.kind == "caterpillar":
        return reference_walk.walk(
            compile_caterpillar_plan(query.text), tree, query.context
        )
    return tuple(
        sorted(reference_walk.relation(
            compile_caterpillar_plan(query.text), tree
        ))
    )


# ---------------------------------------------------------------------------
# chunks
# ---------------------------------------------------------------------------

#: One chunk's work order: everything a worker needs, all picklable.
#: ``indexes`` rides along only on the in-process path (pre-built
#: pinned indexes adopted tree by tree); workers rebuild from trees.
#: ``token`` identifies an immutable corpus so persistent workers can
#: keep the chunk's trees and indexes warm across batches; once a
#: routed worker holds a chunk, later batches ship ``trees=None``.
#: ``shard`` is the disk-store alternative to shipping trees at all:
#: ``(segment path, generation, lo, hi, sidecar)`` names a contiguous
#: record range of one segment file, and the worker memory-maps the
#: segment and unpickles exactly that byte range itself.  ``sidecar``
#: — ``(sidecar path, generation tag)`` or ``None`` — additionally
#: names the segment's index sidecar: a vectorized-eligible chunk then
#: assembles its :class:`~repro.engine.ir.StackedShard` lanes straight
#: from the sidecar's serialized-index bytes (:class:`PackedIndex`) and
#: never unpickles a tree or builds a :class:`TreeIndex` at all — the
#: zero-rebuild path.
_ChunkPayload = Tuple[
    int,                    # chunk index
    int,                    # corpus position of the first tree
    int,                    # corpus position past the last tree
    Optional[Tuple[Tree, ...]],  # the chunk's trees (None: shard/warm state)
    Tuple[CorpusQuery, ...],
    Union[str, Tuple[str, ...]],  # engine (or per-query engines, auto)
    Optional[int],          # per-chunk fast budget (steps)
    Optional[Fault],        # injected fault, if the harness armed one
    Optional[Tuple[TreeIndex, ...]],
    Optional[str],          # corpus token, or None for one-shot batches
    Optional[Tuple],        # disk shard (5-tuple above), or None
    Optional[float],        # per-chunk wall-clock budget (seconds)
    str,                    # on_exhausted: "degrade" | "raise"
]

#: Guards every check-then-mutate block on the worker caches below.
#: Server dispatch threads run :func:`_run_chunk` in-process, so two
#: threads may warm chunks of one process's caches at once.  Held only
#: around dict bookkeeping and file opens — never across unpickling,
#: index builds or lane parsing.
_WORKER_LOCK = threading.Lock()


def _fresh_worker_lock() -> None:
    """Give a forked worker an unheld lock: a pool may fork while a
    dispatch thread holds the parent's, and that thread does not exist
    in the child to release it."""
    global _WORKER_LOCK
    _WORKER_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_worker_lock)

#: Worker-side warm state: (token, start, stop) → (trees, indexes).
#: A persistent pool's worker fills this on its first batch over a
#: corpus and then skips tree shipping, revalidation and index
#: rebuilds on every later batch.  Only the latest token is retained,
#: so the cache is bounded by one corpus's chunks.
_WORKER_TREES: Dict[Tuple[str, int, int], Tuple] = {}

#: The token every :data:`_WORKER_TREES` key carries.
_WORKER_TOKEN: Optional[str] = None

#: Returned by a worker asked to run a chunk from warm state it does
#: not have (e.g. the worker process was restarted).  The parent then
#: re-runs the chunk itself from the full payload.
_CACHE_MISS = "__corpus_chunk_cache_miss__"

#: Worker-side open segments: (path, generation) → Segment.  A routed
#: worker serving shard chunks maps each segment file once per store
#: generation; a bumped generation (any store mutation) retires the
#: stale mapping on first sight.
_WORKER_SEGMENTS: Dict[Tuple[str, int], object] = {}


def _shard_trees(shard: Tuple) -> Tuple[Tree, ...]:
    """Materialize one shard: mmap its segment (cached per generation)
    and unpickle only records ``[lo, hi)`` — the store fan-out path
    where the parent ships byte coordinates instead of trees."""
    from .segment import Segment

    path, generation, lo, hi = shard[:4]
    key = (path, generation)
    with _WORKER_LOCK:
        segment = _WORKER_SEGMENTS.get(key)
        if segment is None:
            for stale in [k for k in _WORKER_SEGMENTS if k[0] == path]:
                _WORKER_SEGMENTS.pop(stale).close()
            while len(_WORKER_SEGMENTS) >= 64:  # mmaps are cheap, not free
                _WORKER_SEGMENTS.pop(next(iter(_WORKER_SEGMENTS))).close()
            segment = _WORKER_SEGMENTS[key] = Segment(path)
    return segment.trees(lo, hi)


#: Worker-side open index sidecars: (sidecar path, generation tag) →
#: Sidecar | None.  ``None`` caches a validation failure, so a corrupt
#: or stale sidecar costs one open attempt per generation, not one per
#: chunk.  Evicted together with its :data:`_WORKER_LANES` entries —
#: packed lanes hold zero-copy views into the sidecar's mmap and must
#: never outlive it.
_WORKER_SIDECARS: Dict[Tuple[str, int], object] = {}

#: Worker-side packed lanes: (sidecar path, tag, lo, hi) → tuple of
#: :class:`PackedIndex` — one chunk's StackedShard inputs, parsed once
#: from the sidecar bytes and reused every batch until the generation
#: moves.
_WORKER_LANES: Dict[Tuple[str, int, int, int], Tuple] = {}


def _evict_sidecar(key: Tuple[str, int]) -> None:
    """Drop one sidecar and its lanes; the caller holds
    :data:`_WORKER_LOCK`."""
    for lane_key in [k for k in _WORKER_LANES if k[:2] == key]:
        _WORKER_LANES.pop(lane_key)
    sidecar = _WORKER_SIDECARS.pop(key, None)
    if sidecar is not None:
        try:
            sidecar.close()
        except BufferError:  # a straggler lane still views the mmap;
            pass             # the view's release will close it instead


def _packed_plans(
    queries: Sequence[CorpusQuery], engine: Union[str, Tuple[str, ...]]
) -> Optional[Tuple]:
    """Every query's IR plan iff the *whole* chunk can run packed —
    each query vectorized and inside the IR fragment; else ``None``."""
    engines = engine if isinstance(engine, tuple) else (engine,) * len(queries)
    plans = []
    for query, chosen in zip(queries, engines):
        if chosen != "vectorized":
            return None
        plan = _ir_batch_plan(query)
        if plan is None:
            return None
        plans.append(plan)
    return tuple(plans)


def _shard_lanes(
    shard: Tuple,
    queries: Sequence[CorpusQuery],
    engine: Union[str, Tuple[str, ...]],
) -> Optional[Tuple]:
    """The chunk's :class:`PackedIndex` lanes, assembled straight from
    the shard's sidecar bytes — or ``None`` whenever the chunk cannot
    run packed (no/invalid sidecar, a query outside the vectorized IR
    fragment), in which case the caller materializes trees as before."""
    if len(shard) < 5 or shard[4] is None:
        return None
    if _packed_plans(queries, engine) is None:
        return None
    from .segment import Sidecar, StoreError

    lo, hi = shard[2], shard[3]
    spath, tag = shard[4]
    lane_key = (spath, tag, lo, hi)
    lanes = _WORKER_LANES.get(lane_key)
    if lanes is not None:
        return lanes
    side_key = (spath, tag)
    with _WORKER_LOCK:
        if side_key in _WORKER_SIDECARS:
            sidecar = _WORKER_SIDECARS[side_key]
        else:
            for stale in [
                k for k in _WORKER_SIDECARS
                if k[0] == spath and k != side_key
            ]:
                _evict_sidecar(stale)
            while len(_WORKER_SIDECARS) >= 64:
                _evict_sidecar(next(iter(_WORKER_SIDECARS)))
            sidecar = None
            try:
                candidate = Sidecar(spath)
                if candidate.generation == tag and candidate.count >= hi:
                    sidecar = candidate
                else:
                    candidate.close()
            except (OSError, StoreError):
                sidecar = None
            _WORKER_SIDECARS[side_key] = sidecar
    if sidecar is None:
        return None
    try:
        lanes = tuple(PackedIndex(sidecar.blob(i)) for i in range(lo, hi))
    except (StoreError, IndexFormatError, ValueError, IndexError):
        return None  # corrupt blob: fall back to rebuilding from records
    with _WORKER_LOCK:
        # Lanes view the sidecar's mmap: keep them only while the
        # sidecar they came from is still the cached one.
        if _WORKER_SIDECARS.get(side_key) is sidecar:
            _WORKER_LANES[lane_key] = lanes
    return lanes


def _evaluate_packed(lanes: Tuple, queries: Sequence[CorpusQuery],
                     engine: Union[str, Tuple[str, ...]]):
    """One chunk's cells evaluated entirely from packed lanes: every
    query's IR plan interpreted once over one :class:`StackedShard` of
    :class:`PackedIndex` lanes — no tree objects, no TreeIndex builds."""
    plans = _packed_plans(queries, engine)
    shard = StackedShard(lanes)
    columns = []
    for plan in plans:
        split = shard.split(evaluate_shard(plan, shard))
        if plan.mode == "boolean":
            columns.append([bool(lane) for lane in split])
        else:
            columns.append([
                idx.to_nodes(lane) for idx, lane in zip(lanes, split)
            ])
    return tuple(
        tuple(column[i] for column in columns) for i in range(len(lanes))
    )


def _warm_chunk(
    token: Optional[str],
    start: int,
    stop: int,
    trees: Tuple[Tree, ...],
) -> Tuple[Tuple[Tree, ...], Optional[Tuple[TreeIndex, ...]]]:
    """Swap freshly unpickled chunk trees for this worker's warm copies
    (building them on first sight).  Without a token, no caching."""
    global _WORKER_TOKEN
    if token is None:
        return trees, None
    key = (token, start, stop)
    cached = _WORKER_TREES.get(key)
    if cached is not None and len(cached[0]) == len(trees):
        return cached
    indexes = tuple(index_for(tree) for tree in trees)
    with _WORKER_LOCK:
        if _WORKER_TOKEN != token:
            _WORKER_TREES.clear()  # a new corpus: retire the old one's state
            _WORKER_TOKEN = token
        _WORKER_TREES[key] = (trees, indexes)
    return trees, indexes


def _ir_batch_plan(query: CorpusQuery):
    """The query's shared-IR plan for the stacked shard pass, or
    ``None`` when it cannot ride it: non-root contexts, the all-pairs
    relation kind, or a formula outside the IR fragment."""
    if query.context != () or query.kind == "caterpillar-relation":
        return None
    return compile_ir_plan(query.kind, query.text)


def _evaluate_rows(
    trees: Sequence[Tree],
    queries: Sequence[CorpusQuery],
    engine: Union[str, Tuple[str, ...]],
    indexes: Optional[Sequence[TreeIndex]],
) -> Tuple[Tuple[object, ...], ...]:
    """One chunk's cells: a stacked shard pass for the vectorized
    queries, then the tree-outer, query-inner sweep for the rest.

    ``engine`` is one name for the whole sweep, or (on the ``auto``
    path) one planner-chosen name per query.  Each ``"vectorized"``
    query lowers to one IR plan evaluated *once* across every tree of
    the chunk (each tree in its own bit lane); queries the IR cannot
    express quietly take the per-tree fast path instead."""
    for query in queries:
        compile_query(query)
    engines = list(
        engine if isinstance(engine, tuple) else (engine,) * len(queries)
    )
    stacked: Dict[int, object] = {}
    for position, (query, chosen) in enumerate(zip(queries, engines)):
        if chosen != "vectorized":
            continue
        plan = _ir_batch_plan(query)
        if plan is None:
            engines[position] = "fast"  # outside the fragment: per-tree
        else:
            stacked[position] = plan
    columns: Dict[int, List[object]] = {}
    if stacked and trees:
        tree_indexes = (
            tuple(indexes)
            if indexes is not None
            else tuple(index_for(tree) for tree in trees)
        )
        shard = StackedShard(tree_indexes)
        for position, plan in stacked.items():
            lanes = shard.split(evaluate_shard(plan, shard))
            if plan.mode == "boolean":
                columns[position] = [bool(lane) for lane in lanes]
            else:
                columns[position] = [
                    idx.to_nodes(lane)
                    for idx, lane in zip(tree_indexes, lanes)
                ]
    rows = []
    for position, tree in enumerate(trees):
        if indexes is not None:
            adopt_index(tree, indexes[position])
        row = []
        for query_index, (query, chosen) in enumerate(zip(queries, engines)):
            column = columns.get(query_index)
            if column is not None:
                row.append(column[position])
            else:
                row.append(evaluate_cell(query, tree, chosen))
        rows.append(tuple(row))
    return tuple(rows)


def _run_chunk(payload: _ChunkPayload):
    """Evaluate one chunk; degrade to the reference engine on faults.

    Runs in a worker process under ``workers > 0`` — everything it
    touches (plan cache, index cache) is that worker's own warm state.
    """
    (index, start, stop, trees, queries, engine,
     budget_steps, fault, indexes, token, shard,
     budget_seconds, on_exhausted) = payload
    started = time.perf_counter()
    lanes = None
    if trees is None:
        cached = _WORKER_TREES.get((token, start, stop))
        if cached is not None:
            trees, indexes = cached
        elif shard is not None:
            # A store chunk.  When the whole chunk is vectorized and
            # the segment's index sidecar is valid, its StackedShard
            # lanes assemble straight from the sidecar bytes — no
            # unpickling, no index builds.  Otherwise this worker loads
            # its own shard from the segment file and warms it under
            # the store token.
            lanes = _shard_lanes(shard, queries, engine)
            if lanes is None:
                trees, indexes = _warm_chunk(
                    token, start, stop, _shard_trees(shard)
                )
        else:  # e.g. a fresh worker after a pool restart
            return index, _CACHE_MISS, None
    elif indexes is None:
        trees, indexes = _warm_chunk(token, start, stop, trees)
    if engine == "reference":
        # Reference chunks have no engine to degrade to, so budgets
        # only make sense when exhaustion is the caller's verdict
        # (``on_exhausted="raise"`` — the query service's deadline
        # path).  In degrade mode the reference run is the recovery
        # itself and must be allowed to finish.
        budget = (
            Budget(steps=budget_steps, seconds=budget_seconds)
            if on_exhausted == "raise"
            and (budget_steps is not None or budget_seconds is not None)
            else None
        )
        if budget is not None:
            with activate(ExecutionContext(budget, None)):
                rows = _evaluate_rows(trees, queries, "reference", indexes)
        else:
            rows = _evaluate_rows(trees, queries, "reference", indexes)
        report = ChunkReport(
            index, start, stop, "reference", False, None,
            time.perf_counter() - started,
            steps=budget.steps if budget is not None else 0,
        )
        return index, rows, report
    attempt = engine  # "fast", "vectorized", or the auto per-query mix
    attempted_name = "auto" if isinstance(engine, tuple) else engine
    injector = FaultInjector(fault) if fault is not None else None
    budget = (
        Budget(steps=budget_steps, seconds=budget_seconds)
        if budget_steps is not None or budget_seconds is not None
        else None
    )
    try:
        if injector is not None or budget is not None:
            with activate(ExecutionContext(budget, injector)):
                rows = (
                    _evaluate_packed(lanes, queries, engine)
                    if lanes is not None
                    else _evaluate_rows(trees, queries, attempt, indexes)
                )
        elif lanes is not None:
            rows = _evaluate_packed(lanes, queries, engine)
        else:
            rows = _evaluate_rows(trees, queries, attempt, indexes)
        report = ChunkReport(
            index, start, stop, attempted_name, False, None,
            time.perf_counter() - started,
            steps=budget.steps if budget is not None else 0,
        )
    except ParseError:
        raise  # the caller's error: the reference engine would refuse too
    except ResourceExhausted as exc:
        if on_exhausted == "raise":
            # The query service's contract: an expired deadline or a
            # spent quota is the *caller's* verdict to deliver, not a
            # licence to keep burning the reference engine on it.
            raise
        if trees is None:  # the packed attempt: degrade needs real trees
            trees, indexes = _warm_chunk(
                token, start, stop, _shard_trees(shard)
            )
        rows = _evaluate_rows(trees, queries, "reference", indexes)
        report = ChunkReport(
            index, start, stop, "reference", True,
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - started,
            steps=budget.steps if budget is not None else 0,
        )
    except EngineError as exc:
        # The PR-4 contract at chunk granularity: an engine fault costs
        # this chunk its fast path, never the batch its answers or
        # their order.
        if trees is None:
            trees, indexes = _warm_chunk(
                token, start, stop, _shard_trees(shard)
            )
        rows = _evaluate_rows(trees, queries, "reference", indexes)
        report = ChunkReport(
            index, start, stop, "reference", True,
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - started,
            steps=budget.steps if budget is not None else 0,
        )
    return index, rows, report


def _chunk_bounds(
    count: int, chunk_size: Optional[int], workers: int
) -> Tuple[Tuple[int, int], ...]:
    """Contiguous ``[start, stop)`` chunk intervals covering ``count``
    trees.  The default size aims at ~4 chunks per worker (or ~4 chunks
    total when serial) so one slow chunk cannot straggle the pool."""
    if count == 0:
        return ()
    if chunk_size is None:
        lanes = 4 * max(1, workers)
        chunk_size = max(1, -(-count // lanes))
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return tuple(
        (start, min(start + chunk_size, count))
        for start in range(0, count, chunk_size)
    )


def run_batch(
    trees: Sequence[Tree],
    queries: Sequence[CorpusQuery],
    workers: int = 0,
    chunk_size: Optional[int] = None,
    engine: str = "fast",
    budget_steps: Optional[int] = None,
    faults: Optional[Dict[int, Fault]] = None,
    pool: Optional[
        Union[ProcessPoolExecutor, Sequence[ProcessPoolExecutor]]
    ] = None,
    indexes: Optional[Sequence[TreeIndex]] = None,
    token: Optional[str] = None,
    stats: Optional[CorpusStatistics] = None,
    bounds: Optional[Sequence[Tuple[int, int]]] = None,
    shard_for=None,
    budget_seconds: Optional[float] = None,
    on_exhausted: str = "degrade",
    route: int = 0,
    worker_retries: int = 0,
    retry_backoff: float = 0.05,
    replace_pool=None,
) -> BatchResult:
    """Evaluate every query against every tree, set-at-a-time.

    ``workers=0`` runs serially in-process (the fallback path — always
    available, bit-identical to the fan-out).  ``faults`` maps chunk
    index → :class:`~repro.resilience.faults.Fault` for the injection
    harness; ``budget_steps`` bounds each chunk's fast attempt.
    ``pool`` reuses caller-owned executors (warm workers) instead of
    spawning fresh ones per call — either one pool or a sequence of
    single-worker pools (as :class:`~repro.corpus.TreeCorpus` keeps);
    with a sequence, chunk *i* always routes to pool ``i % len(pool)``,
    so a chunk revisits the same worker batch after batch.  ``indexes``
    supplies pre-built pinned indexes, used on the in-process path
    only.  ``token`` (supplied by ``TreeCorpus``) marks the tree
    sequence as immutable so routed workers may keep per-chunk trees
    and indexes warm across batches — warm chunks ship ``trees=None``
    and fall back to a parent-side run if the worker lost its state;
    leave it ``None`` for ad-hoc calls.

    ``engine="auto"`` resolves each query to its planner-chosen engine
    against the corpus statistics (``stats`` when supplied — as
    :meth:`~repro.corpus.TreeCorpus.statistics` caches — else computed
    here), records the decisions on ``BatchResult.plans``, and runs the
    batch with that per-query mix; the per-chunk degrade contract is
    unchanged.

    ``bounds`` overrides the automatic chunking with explicit
    ``[start, stop)`` intervals (as :class:`~repro.corpus.CorpusStore`
    passes, segment-aligned).  ``shard_for`` — a callable mapping a
    chunk's bounds to a ``(segment path, generation, lo, hi, sidecar)``
    shard — makes every chunk mmap-lazy, serial or fanned out: chunks
    ship *no trees at all* and each worker (or the parent, serially)
    loads only its own shard's byte range; ``trees`` may then be any
    lazy sequence (it is never materialized here).  When ``sidecar``
    names a valid index sidecar and the chunk is wholly vectorized, the
    chunk skips tree and index materialization entirely
    (:func:`_shard_lanes`).

    The service-facing knobs: ``budget_seconds`` adds a wall-clock
    deadline to each chunk's budget (cancelling work cooperatively at
    the engine checkpoints); ``on_exhausted="raise"`` propagates a
    :class:`ResourceExhausted` to the caller instead of degrading the
    chunk — the query service maps it to a DEADLINE/RESOURCE error for
    that one query.  ``route`` rotates chunk→pool assignment (chunk
    ``i`` goes to pool ``(i + route) % len(pool)``), so a server
    spreading single-chunk batches over shared routed pools does not
    pile every query on pool 0.  ``worker_retries`` resubmits a chunk
    whose worker *process* died up to that many times, with exponential
    ``retry_backoff`` sleeps, on a fresh single-worker pool obtained
    from ``replace_pool(slot)`` (or a throwaway one); only after the
    attempts are spent does the chunk degrade to an in-parent reference
    run, as before.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if on_exhausted not in ("degrade", "raise"):
        raise ValueError(
            f"on_exhausted must be 'degrade' or 'raise', not {on_exhausted!r}"
        )
    if shard_for is None:
        trees = tuple(trees)
    queries = tuple(queries)
    for query in queries:
        compile_query(query)  # fail fast, warm the (inheritable) plans
    plans: Optional[Tuple[Plan, ...]] = None
    chunk_engine: Union[str, Tuple[str, ...]] = engine
    if engine == "auto":
        if stats is None:
            stats = corpus_statistics(trees)
        plans = plan_queries(queries, stats)
        # The planner priced fast vs reference per query; the stacked
        # shard pass does the same bitset work as the fast path but
        # interprets each plan once per chunk instead of once per tree,
        # so a fast pick upgrades to "vectorized" whenever a chunk can
        # hold more than one tree (and the query fits the IR).
        chunk_engine = tuple(
            "vectorized"
            if (
                plan.engine == "fast"
                and len(trees) > 1
                and _ir_batch_plan(query) is not None
            )
            else plan.engine
            for query, plan in zip(queries, plans)
        )
    faults = dict(faults or {})
    if bounds is None:
        bounds = _chunk_bounds(len(trees), chunk_size, workers)
    else:
        bounds = tuple(bounds)
    payloads: List[_ChunkPayload] = []
    for chunk_index, (start, stop) in enumerate(bounds):
        chunk_indexes = None
        if indexes is not None and workers == 0:
            chunk_indexes = tuple(indexes[start:stop])
        shard = None
        chunk_trees: Optional[Tuple[Tree, ...]]
        if shard_for is not None:
            # Store chunks ship byte coordinates, never pickles — and
            # the serial path takes the same shard (and packed sidecar)
            # route in-process, so zero-rebuild does not need a pool.
            shard = shard_for(start, stop)
            chunk_trees = None
        else:
            chunk_trees = tuple(trees[start:stop])
        payloads.append((
            chunk_index, start, stop, chunk_trees, queries,
            chunk_engine, budget_steps, faults.get(chunk_index),
            chunk_indexes, token, shard, budget_seconds, on_exhausted,
        ))

    results: Dict[int, Tuple] = {}
    reports: Dict[int, ChunkReport] = {}
    if workers == 0 or len(payloads) == 0:
        for payload in payloads:
            chunk_index, rows, report = _run_chunk(payload)
            results[chunk_index] = rows
            reports[chunk_index] = report
    else:
        owned = None
        if pool is None:
            owned = pools = _make_pools(workers)
        elif isinstance(pool, ProcessPoolExecutor):
            pools = (pool,)
        else:
            pools = tuple(pool)
        try:
            futures = []
            for payload in payloads:
                target = pools[(payload[0] + route) % len(pools)]
                futures.append(target.submit(_run_chunk, _wire(target, payload)))
            for payload, future in zip(payloads, futures):
                chunk_index, start, stop = payload[0], payload[1], payload[2]
                slot = (chunk_index + route) % len(pools)
                try:
                    chunk_index, rows, report = future.result()
                    if rows == _CACHE_MISS:
                        # The routed worker lost its warm state (e.g. a
                        # restarted process): run the full chunk here
                        # and let the next batch re-ship the trees.
                        _shipped(pools[slot]).discard((token, start, stop))
                        chunk_index, rows, report = _run_chunk(payload)
                except (ParseError, ValueError):
                    raise
                except ResourceExhausted:
                    # Only reaches here under on_exhausted="raise":
                    # degrade-mode workers absorb exhaustion into a
                    # reference rerun themselves.
                    raise
                except Exception as exc:  # a broken pool, a dead worker
                    recovered = _retry_chunk(
                        payload, worker_retries, retry_backoff,
                        replace_pool, slot, on_exhausted,
                    )
                    if recovered is not None:
                        chunk_index, rows, report = recovered
                    else:
                        # Last-resort degradation: answer the chunk
                        # here, on the engine no fault has ever
                        # indicted.
                        fallback_trees = payload[3]
                        if fallback_trees is None and payload[10] is not None:
                            fallback_trees = _shard_trees(payload[10])
                        rows = _evaluate_rows(
                            fallback_trees, payload[4], "reference", None
                        )
                        report = ChunkReport(
                            chunk_index, start, stop, "reference", True,
                            f"worker failed: {type(exc).__name__}: {exc}",
                            0.0, retries=worker_retries,
                        )
                results[chunk_index] = rows
                reports[chunk_index] = report
        finally:
            if owned is not None:
                for spare in owned:
                    spare.shutdown()

    ordered_rows = []
    for chunk_index in range(len(payloads)):
        ordered_rows.extend(results[chunk_index])
    return BatchResult(
        queries=queries,
        rows=tuple(ordered_rows),
        chunks=tuple(reports[i] for i in range(len(payloads))),
        workers=workers,
        plans=plans,
    )


def _retry_chunk(
    payload: _ChunkPayload,
    attempts: int,
    backoff: float,
    replace_pool,
    slot: int,
    on_exhausted: str,
):
    """Bounded resubmission of a chunk whose worker died.

    Each attempt sleeps ``backoff * 2**attempt`` then reruns the *full*
    payload (a fresh worker holds no warm state) on a replacement pool:
    ``replace_pool(slot)`` lets the pool's owner heal its routed slot in
    place — later batches then route to the healed worker — while a
    ``None`` owner gets a throwaway single-worker pool per attempt.
    Returns the ``(index, rows, report)`` triple with the retry count
    stamped on the report, or ``None`` when every attempt died too.
    """
    for attempt in range(attempts):
        time.sleep(backoff * (2 ** attempt))
        fresh = replace_pool(slot) if replace_pool is not None else None
        throwaway = None
        if fresh is None:
            throwaway = fresh = _make_pools(1)[0]
        try:
            index, rows, report = fresh.submit(_run_chunk, payload).result()
            if rows == _CACHE_MISS:  # pragma: no cover - full payload sent
                continue
            if report is not None:
                report = ChunkReport(
                    report.index, report.start, report.stop, report.engine,
                    report.fell_back, report.error, report.seconds,
                    steps=report.steps, retries=attempt + 1,
                )
            return index, rows, report
        except (ParseError, ValueError):
            raise
        except ResourceExhausted:
            if on_exhausted == "raise":
                raise
            continue  # pragma: no cover - degrade mode absorbs these
        except Exception:
            continue  # this worker died as well: back off harder
        finally:
            if throwaway is not None:
                throwaway.shutdown(wait=False)
    return None


def _shipped(pool: ProcessPoolExecutor) -> set:
    """The (token, start, stop) chunks this pool's worker already holds."""
    cache = getattr(pool, "_corpus_shipped", None)
    if cache is None:
        cache = pool._corpus_shipped = set()
    return cache


def _wire(pool: ProcessPoolExecutor, payload: _ChunkPayload) -> _ChunkPayload:
    """The payload as actually sent: once a routed worker has a chunk's
    trees warm, later batches ship ``trees=None`` instead of re-pickling
    the chunk — the single biggest per-batch cost at high tree counts."""
    (chunk_index, start, stop, trees, queries, engine,
     budget_steps, fault, indexes, token, shard,
     budget_seconds, on_exhausted) = payload
    if token is None or indexes is not None or trees is None:
        return payload  # shard chunks already ship no trees
    shipped = _shipped(pool)
    key = (token, start, stop)
    if key in shipped:
        trees = None
    else:
        shipped.add(key)
    return (chunk_index, start, stop, trees, queries, engine,
            budget_steps, fault, indexes, token, shard,
            budget_seconds, on_exhausted)


def _make_pools(workers: int) -> Tuple[ProcessPoolExecutor, ...]:
    """``workers`` single-worker pools, forked when the platform allows
    it — forked workers inherit the parent's warm plan and index caches
    for free, and one-pool-per-worker routing keeps each chunk pinned
    to the same worker across batches."""
    import multiprocessing

    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    return tuple(
        ProcessPoolExecutor(max_workers=1, mp_context=context)
        for _ in range(workers)
    )
