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

Each chunk travels as one frozen :class:`ChunkTask`.  A worker process
(or the parent, serially, where many service threads share it) keeps
three pieces of warm state: the trees and indexes of one corpus
token's chunks, and the open segment files and open index sidecars,
each a 64-entry :class:`~repro.caching.KeyedLRU` keyed by file path
and tagged with the generation the file was opened under.  A sidecar's
entry also holds the :class:`PackedIndex` lanes parsed from it, so they
leave together.  An evicted segment or sidecar is dropped, never
closed: its mapping stays valid for every reader still using it, and
goes away when the last one lets go.

Resilience (the PR-4 contract, lifted to chunks): the fast attempt of a
chunk runs under an optional per-chunk :class:`~repro.resilience.Budget`
and fault injector.  An engine fault or budget exhaustion inside a
chunk degrades *that chunk* to the reference evaluators — the batch
never fails, and never reorders.  Parse errors propagate: they are the
caller's, and no fallback could answer them.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..caching import KeyedLRU
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
from ..resilience.errors import EngineError, ResourceExhausted
from ..resilience.faults import Fault, FaultInjector
from ..trees.tree import Tree
from .query import CorpusQuery
from .segment import Segment, Sidecar, StoreError

__all__ = [
    "ChunkReport", "BatchResult", "WorkerPools", "run_batch", "plan_queries",
]

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

#: A store chunk's byte coordinates: ``(segment path, generation, lo,
#: hi, sidecar)`` names records ``[lo, hi)`` of one segment file, and
#: ``sidecar`` — ``(sidecar path, generation tag)`` or ``None`` — the
#: segment's index sidecar.
Shard = Tuple[str, int, int, int, Optional[Tuple[str, int]]]


@dataclass(frozen=True)
class ChunkTask:
    """One chunk's work order: everything a worker needs, all picklable.

    ``trees`` is ``None`` when the worker is expected to hold the chunk
    already (``token`` names an immutable corpus whose chunks routed
    workers keep warm across batches) or when ``shard`` supplies it: a
    store chunk ships byte coordinates, never pickles.  ``indexes``
    rides along only on the in-process path — pre-built pinned indexes
    adopted tree by tree; workers rebuild from trees."""

    index: int
    start: int
    stop: int
    trees: Optional[Tuple[Tree, ...]]
    queries: Tuple[CorpusQuery, ...]
    #: One engine name, or one planner-chosen name per query (``auto``).
    engine: Union[str, Tuple[str, ...]]
    budget_steps: Optional[int] = None
    budget_seconds: Optional[float] = None
    on_exhausted: str = "degrade"
    fault: Optional[Fault] = None
    indexes: Optional[Tuple[TreeIndex, ...]] = None
    token: Optional[str] = None
    shard: Optional[Shard] = None


#: Worker-side warm chunks: ``{token: {(start, stop): (trees,
#: indexes)}}``.  A persistent pool's worker fills it on its first
#: batch over a corpus and then skips tree shipping, revalidation and
#: index rebuilds on every later batch.  A new token retires the old
#: one's chunks, so it holds one corpus's chunks at most.  Threads
#: read and write single keys only, which needs no lock.
_WORKER_CHUNKS: Dict[str, Dict[Tuple[int, int], Tuple]] = {}

#: Worker-side open segments: path → ``(generation, Segment)``.  A
#: request under another generation (any store mutation) replaces the
#: entry.  Evicted segments are dropped, never closed: a thread still
#: reading one keeps its mapping alive until it is done.
_WORKER_SEGMENTS = KeyedLRU(64, name="worker segments")

#: Worker-side open index sidecars: path → ``(tag, Sidecar | None,
#: {(lo, hi): lanes})``.  ``None`` caches a validation failure, so a
#: corrupt or stale sidecar costs one open per tag, not one per chunk.
#: The chunks' :class:`PackedIndex` lanes are zero-copy views of the
#: sidecar's mapping and live in its entry, so they leave with it.
_WORKER_SIDECARS = KeyedLRU(64, name="worker sidecars")

#: Returned by a worker asked to run a chunk from warm state it does
#: not have (e.g. the worker process was restarted).  The parent then
#: re-runs the chunk itself from the full task.
_CACHE_MISS = "__corpus_chunk_cache_miss__"


def _shard_trees(shard: Shard) -> Tuple[Tree, ...]:
    """Materialize one shard: map its segment (once per generation)
    and unpickle only records ``[lo, hi)`` — the store fan-out path
    where the parent ships byte coordinates instead of trees."""
    path, generation, lo, hi = shard[:4]
    entry = _WORKER_SEGMENTS.get(path)
    if entry is None or entry[0] != generation:
        entry = (generation, Segment(path))
        _WORKER_SEGMENTS.put(path, entry)
    return entry[1].trees(lo, hi)


def _shard_lanes(shard: Shard) -> Optional[Tuple[PackedIndex, ...]]:
    """The shard's :class:`PackedIndex` lanes, parsed straight from its
    sidecar's bytes — or ``None`` when the sidecar is missing, stale or
    corrupt, in which case the caller loads trees instead."""
    _, _, lo, hi, (path, tag) = shard
    entry = _WORKER_SIDECARS.get(path)
    if entry is None or entry[0] != tag:
        try:
            sidecar = Sidecar(path)
        except (OSError, StoreError):
            sidecar = None
        if sidecar is not None and (
            sidecar.generation != tag or sidecar.count < hi
        ):
            sidecar = None
        entry = (tag, sidecar, {})
        _WORKER_SIDECARS.put(path, entry)
    _, sidecar, chunks = entry
    if sidecar is None:
        return None
    lanes = chunks.get((lo, hi))
    if lanes is None:
        try:
            lanes = tuple(PackedIndex(sidecar.blob(i)) for i in range(lo, hi))
        except (StoreError, IndexFormatError, ValueError, IndexError):
            return None  # corrupt blob: fall back to rebuilding from records
        chunks[(lo, hi)] = lanes
    return lanes


def _packed_chunks() -> int:
    """How many chunks' lanes this process holds — what the coldpath
    bench and the sidecar tests read to see that the packed path ran."""
    return sum(len(entry[2]) for entry in _WORKER_SIDECARS.values())


def _warm_chunk(
    token: Optional[str],
    start: int,
    stop: int,
    trees: Tuple[Tree, ...],
) -> Tuple[Tuple[Tree, ...], Optional[Tuple[TreeIndex, ...]]]:
    """Swap freshly loaded chunk trees for this worker's warm copies
    (building them on first sight).  Without a token, no caching."""
    if token is None:
        return trees, None
    chunks = _WORKER_CHUNKS.get(token)
    if chunks is None:
        # A new corpus: retire the old one's chunks.  ``setdefault``
        # hands every thread racing here the same dict, and ``list``
        # copies the keys in one step.
        chunks = _WORKER_CHUNKS.setdefault(token, {})
        for stale in [key for key in list(_WORKER_CHUNKS) if key != token]:
            _WORKER_CHUNKS.pop(stale, None)
    cached = chunks.get((start, stop))
    if cached is not None and len(cached[0]) == len(trees):
        return cached
    indexes = tuple(index_for(tree) for tree in trees)
    chunks[(start, stop)] = (trees, indexes)
    return trees, indexes


def _ir_batch_plan(query: CorpusQuery):
    """The query's shared-IR plan for the stacked shard pass, or
    ``None`` when it cannot ride it: non-root contexts, the all-pairs
    relation kind, or a formula outside the IR fragment."""
    if query.context != () or query.kind == "caterpillar-relation":
        return None
    return compile_ir_plan(query.kind, query.text)


def _stacked_plans(
    queries: Sequence[CorpusQuery], engine: Union[str, Tuple[str, ...]]
) -> Tuple[List[str], Dict[int, object]]:
    """Each query's engine, and position → IR plan for the queries the
    stacked shard pass runs: those routed ``"vectorized"`` that fit
    the IR.  The rest of the vectorized ones quietly go per-tree
    ``"fast"``."""
    engines = list(
        engine if isinstance(engine, tuple) else (engine,) * len(queries)
    )
    plans: Dict[int, object] = {}
    for position, (query, chosen) in enumerate(zip(queries, engines)):
        if chosen == "vectorized":
            plan = _ir_batch_plan(query)
            if plan is None:
                engines[position] = "fast"
            else:
                plans[position] = plan
    return engines, plans


def _evaluate_rows(
    trees: Optional[Sequence[Tree]],
    queries: Sequence[CorpusQuery],
    engine: Union[str, Tuple[str, ...]],
    indexes: Optional[Sequence[Union[TreeIndex, PackedIndex]]],
) -> Tuple[Tuple[object, ...], ...]:
    """One chunk's cells: one stacked shard pass for the queries routed
    to it, then the tree-outer, query-inner sweep for the rest.

    ``indexes`` is the chunk's index sequence, each tree in its own bit
    lane of the stacked pass.  With ``trees`` it holds pinned
    :class:`TreeIndex` objects, adopted tree by tree (``None``: built
    here when the stacked pass needs them); without trees it holds
    :class:`PackedIndex` lanes straight from a sidecar, and every query
    must ride the stacked pass."""
    engines, plans = _stacked_plans(queries, engine)
    if trees is not None:
        for query in queries:
            compile_query(query)
    stacked = indexes
    if stacked is None and plans and trees:
        stacked = tuple(index_for(tree) for tree in trees)
    columns: Dict[int, List[object]] = {}
    if plans and stacked:
        shard = StackedShard(tuple(stacked))
        for position, plan in plans.items():
            lanes = shard.split(evaluate_shard(plan, shard))
            if plan.mode == "boolean":
                columns[position] = [bool(lane) for lane in lanes]
            else:
                columns[position] = [
                    idx.to_nodes(lane) for idx, lane in zip(stacked, lanes)
                ]
    rows = []
    for position in range(len(trees if trees is not None else indexes)):
        tree = None
        if trees is not None:
            tree = trees[position]
            if indexes is not None:
                adopt_index(tree, indexes[position])
        row = []
        for q, (query, chosen) in enumerate(zip(queries, engines)):
            column = columns.get(q)
            if column is not None:
                row.append(column[position])
            else:
                row.append(evaluate_cell(query, tree, chosen))
        rows.append(tuple(row))
    return tuple(rows)


def _degrade(
    task: ChunkTask,
    trees: Optional[Tuple[Tree, ...]],
    indexes: Optional[Tuple[TreeIndex, ...]],
    started: float,
    error: str,
    steps: int = 0,
    retries: int = 0,
):
    """The one degrade path: answer the chunk on the reference engine —
    unbudgeted, since it is the recovery and must be allowed to finish —
    and report why.  A packed attempt left no trees, so they load here."""
    if trees is None:
        trees, indexes = _warm_chunk(
            task.token, task.start, task.stop, _shard_trees(task.shard)
        )
    rows = _evaluate_rows(trees, task.queries, "reference", indexes)
    return rows, ChunkReport(
        task.index, task.start, task.stop, "reference", True, error,
        time.perf_counter() - started, steps=steps, retries=retries,
    )


def _run_chunk(task: ChunkTask):
    """Evaluate one chunk; degrade to the reference engine on faults.
    Returns ``(rows, report)``.

    Runs in a worker process under ``workers > 0`` — everything it
    touches (plan cache, index cache) is that worker's own warm state.
    """
    started = time.perf_counter()
    trees, indexes, lanes = task.trees, task.indexes, None
    if trees is None:
        chunks = _WORKER_CHUNKS.get(task.token)
        cached = None
        if chunks is not None:
            cached = chunks.get((task.start, task.stop))
        if cached is not None:
            trees, indexes = cached
        elif task.shard is None:  # e.g. a fresh worker after a pool restart
            return _CACHE_MISS, None
        else:
            # A store chunk.  When every query rides the stacked pass
            # and the segment's index sidecar is valid, the lanes come
            # straight from the sidecar bytes — no unpickling, no index
            # builds.  Otherwise this worker loads its own shard and
            # warms it under the store token.
            if task.shard[4] is not None:
                _, plans = _stacked_plans(task.queries, task.engine)
                if len(plans) == len(task.queries):
                    lanes = _shard_lanes(task.shard)
            if lanes is None:
                trees, indexes = _warm_chunk(
                    task.token, task.start, task.stop,
                    _shard_trees(task.shard),
                )
    elif indexes is None:
        trees, indexes = _warm_chunk(task.token, task.start, task.stop, trees)
    # A reference chunk has no engine to degrade to, so its budget
    # applies only when exhaustion is the caller's verdict
    # (``on_exhausted="raise"`` — the query service's deadline path)
    # and it ignores injected faults.
    reference = task.engine == "reference"
    budget = None
    if (task.budget_steps is not None or task.budget_seconds is not None) and (
        not reference or task.on_exhausted == "raise"
    ):
        budget = Budget(steps=task.budget_steps, seconds=task.budget_seconds)
    injector = (
        FaultInjector(task.fault)
        if task.fault is not None and not reference
        else None
    )
    context = (
        activate(ExecutionContext(budget, injector))
        if budget is not None or injector is not None
        else nullcontext()
    )
    try:
        with context:
            rows = _evaluate_rows(
                trees, task.queries, task.engine,
                lanes if lanes is not None else indexes,
            )
    except (ResourceExhausted, EngineError) as exc:
        if reference or (
            isinstance(exc, ResourceExhausted) and task.on_exhausted == "raise"
        ):
            # The query service's contract: an expired deadline or a
            # spent quota is the *caller's* verdict to deliver, not a
            # licence to keep burning the reference engine on it.
            raise
        # The resilience contract at chunk granularity: a fault or an
        # exhausted budget costs this chunk its fast path, never the
        # batch its answers or their order.
        return _degrade(
            task, trees, indexes, started, f"{type(exc).__name__}: {exc}",
            steps=budget.steps if budget is not None else 0,
        )
    return rows, ChunkReport(
        task.index, task.start, task.stop,
        "auto" if isinstance(task.engine, tuple) else task.engine,
        False, None, time.perf_counter() - started,
        steps=budget.steps if budget is not None else 0,
    )


def _chunk_bounds(
    start: int,
    stop: int,
    chunk_size: Optional[int],
    workers: int,
    cut=None,
) -> Tuple[Tuple[int, int], ...]:
    """Contiguous ``[lo, hi)`` chunk intervals covering ``[start,
    stop)``.  The default size aims at ~4 chunks per worker (or ~4
    chunks total when serial) so one slow chunk cannot straggle the
    pool.  ``cut(position)`` — the store's segment ends — caps each
    chunk so none spans two segments."""
    if stop <= start:
        return ()
    if chunk_size is None:
        chunk_size = max(1, -(-(stop - start) // (4 * max(1, workers))))
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    bounds = []
    position = start
    while position < stop:
        hi = min(position + chunk_size, stop)
        if cut is not None:
            hi = min(hi, cut(position))
        bounds.append((position, hi))
        position = hi
    return tuple(bounds)


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
    spawning fresh ones per call — one pool, a sequence of
    single-worker pools, or a corpus's :class:`WorkerPools` (which
    also heals a dead worker's slot); with a sequence, chunk *i* always
    routes to pool ``i % len(pool)``, so a chunk revisits the same
    worker batch after batch.  ``indexes``
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
    chunk's bounds to a :data:`Shard` — makes every chunk mmap-lazy,
    serial or fanned out: chunks ship *no trees at all* and each worker
    (or the parent, serially) loads only its own shard's byte range;
    ``trees`` is then unused and ``bounds`` required.  When the shard
    names a valid index sidecar and every query rides the stacked
    pass, the chunk skips tree and index materialization entirely
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
    from ``replace_pool(slot)`` (the :class:`WorkerPools`'s own heal
    when ``pool`` is one; else a throwaway pool); only after the
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
    if bounds is None:
        bounds = _chunk_bounds(0, len(trees), chunk_size, workers)
    bounds = tuple(bounds)
    # The length of the tree sequence the bounds index into; a store's
    # is never materialized, so its known length is the last bound.
    count = len(trees)
    if shard_for is not None:
        count = bounds[-1][1] if bounds else 0
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
                and count > 1
                and _ir_batch_plan(query) is not None
            )
            else plan.engine
            for query, plan in zip(queries, plans)
        )
    faults = faults or {}
    tasks = [
        ChunkTask(
            index=chunk_index,
            start=start,
            stop=stop,
            # Store chunks ship byte coordinates, never pickles — and
            # the serial path takes the same shard (and packed sidecar)
            # route in-process, so zero-rebuild does not need a pool.
            trees=None if shard_for is not None else tuple(trees[start:stop]),
            queries=queries,
            engine=chunk_engine,
            budget_steps=budget_steps,
            budget_seconds=budget_seconds,
            on_exhausted=on_exhausted,
            fault=faults.get(chunk_index),
            indexes=(
                tuple(indexes[start:stop])
                if indexes is not None and workers == 0
                else None
            ),
            token=token,
            shard=shard_for(start, stop) if shard_for is not None else None,
        )
        for chunk_index, (start, stop) in enumerate(bounds)
    ]
    if workers == 0 or not tasks:
        answers = [_run_chunk(task) for task in tasks]
        return _batch_result(queries, answers, workers, plans)
    owned = None
    if isinstance(pool, WorkerPools):
        replace_pool = partial(pool.heal, workers)
        pool = pool.routed(workers)
    if pool is None:
        owned = pools = _make_pools(workers)
    elif isinstance(pool, ProcessPoolExecutor):
        pools = (pool,)
    else:
        pools = tuple(pool)
    try:
        slots = [(task.index + route) % len(pools) for task in tasks]
        futures = [
            pools[slot].submit(_run_chunk, _wire(pools[slot], task))
            for task, slot in zip(tasks, slots)
        ]
        answers = []
        for task, slot, future in zip(tasks, slots, futures):
            try:
                answer = future.result()
                if answer[0] == _CACHE_MISS:
                    # The routed worker lost its warm state (e.g. a
                    # restarted process): run the full chunk here and
                    # let the next batch re-ship the trees.
                    _shipped(pools[slot]).discard(
                        (task.token, task.start, task.stop)
                    )
                    answer = _run_chunk(task)
            except (ValueError, ResourceExhausted):
                # Parse errors are the caller's; exhaustion reaches
                # here only under on_exhausted="raise" (degrade-mode
                # workers absorb it into a reference rerun themselves).
                raise
            except Exception as exc:  # a broken pool, a dead worker
                answer = _retry_chunk(
                    task, worker_retries, retry_backoff, replace_pool, slot
                )
                if answer is None:
                    # Last-resort degradation: answer the chunk here,
                    # on the engine no fault has ever indicted.
                    answer = _degrade(
                        task,
                        task.trees if task.trees is not None
                        else _shard_trees(task.shard),
                        None, time.perf_counter(),
                        f"worker failed: {type(exc).__name__}: {exc}",
                        retries=worker_retries,
                    )
            answers.append(answer)
    finally:
        for spare in owned or ():
            spare.shutdown()
    return _batch_result(queries, answers, workers, plans)


def _batch_result(queries, answers, workers, plans) -> BatchResult:
    return BatchResult(
        queries=queries,
        rows=tuple(row for rows, _ in answers for row in rows),
        chunks=tuple(report for _, report in answers),
        workers=workers,
        plans=plans,
    )


def _retry_chunk(
    task: ChunkTask,
    attempts: int,
    backoff: float,
    replace_pool,
    slot: int,
):
    """Bounded resubmission of a chunk whose worker died.

    Each attempt sleeps ``backoff * 2**attempt`` then reruns the *full*
    task (a fresh worker holds no warm state) on a replacement pool:
    ``replace_pool(slot)`` lets the pool's owner heal its routed slot in
    place — later batches then route to the healed worker — while a
    ``None`` owner gets a throwaway single-worker pool per attempt.
    Returns ``(rows, report)`` with the retry count stamped on the
    report, or ``None`` when every attempt died too.
    """
    for attempt in range(attempts):
        time.sleep(backoff * (2 ** attempt))
        fresh = replace_pool(slot) if replace_pool is not None else None
        throwaway = None
        if fresh is None:
            throwaway = fresh = _make_pools(1)[0]
        try:
            rows, report = fresh.submit(_run_chunk, task).result()
            return rows, dataclasses.replace(report, retries=attempt + 1)
        except (ValueError, ResourceExhausted):
            raise
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


def _wire(pool: ProcessPoolExecutor, task: ChunkTask) -> ChunkTask:
    """The task as actually sent: once a routed worker has a chunk's
    trees warm, later batches ship ``trees=None`` instead of re-pickling
    the chunk — the single biggest per-batch cost at high tree counts."""
    if task.token is None or task.indexes is not None or task.trees is None:
        return task  # shard chunks already ship no trees
    shipped = _shipped(pool)
    key = (task.token, task.start, task.stop)
    if key not in shipped:
        shipped.add(key)
        return task
    return dataclasses.replace(task, trees=None)


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


class WorkerPools:
    """The routed worker pools one corpus owns: per worker count, one
    single-worker pool per routing slot, created on first use, healed
    in place when a worker dies, and shut down by :meth:`close`.  The
    query service runs many batches over one corpus from concurrent
    threads, so every method is thread-safe."""

    def __init__(self) -> None:
        self._routed: Dict[int, Tuple[ProcessPoolExecutor, ...]] = {}
        self._lock = threading.Lock()

    def routed(self, workers: int) -> Tuple[ProcessPoolExecutor, ...]:
        """The pools for ``workers``, created on first use."""
        with self._lock:
            if workers not in self._routed:
                self._routed[workers] = _make_pools(workers)
            return self._routed[workers]

    def heal(self, workers: int, slot: int) -> ProcessPoolExecutor:
        """Replace pool ``slot`` (its worker died) with a fresh one, in
        place — later batches route straight to the replacement."""
        with self._lock:
            routed = list(self._routed.get(workers) or _make_pools(workers))
            try:
                routed[slot].shutdown(wait=False)
            except Exception:
                pass
            routed[slot] = _make_pools(1)[0]
            self._routed[workers] = tuple(routed)
            return routed[slot]

    def health(self) -> Dict[int, bool]:
        """Liveness per routing slot (True = its worker process is
        running or not yet spawned)."""
        health: Dict[int, bool] = {}
        with self._lock:
            routed = list(self._routed.values())
        for pools in routed:
            for slot, pool in enumerate(pools):
                processes = list(getattr(pool, "_processes", {}).values())
                alive = not getattr(pool, "_broken", False) and (
                    not processes or any(p.is_alive() for p in processes)
                )
                health[slot] = health.get(slot, True) and alive
        return health

    def close(self) -> None:
        """Shut down every pool."""
        with self._lock:
            routed, self._routed = self._routed, {}
        for pools in routed.values():
            for pool in pools:
                pool.shutdown()
