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
* the query, not the engine name, picks the evaluator: every query
  with a root-anchored IR plan runs in one stacked shard pass over the
  whole chunk, under every engine but an explicit ``reference``, and
  only the rest run tree by tree (on ``auto``'s per-query pick);
* where a chunk's indexes come from follows what is on disk: a store
  chunk whose segment has a valid index sidecar, and whose queries all
  have IR plans, stacks the sidecar's
  :class:`~repro.engine.index.PackedIndex` lanes and loads no tree.  A
  missing or invalid sidecar, a query without an IR plan and a
  ``reference`` batch load trees; :attr:`ChunkReport.source` says
  which ran;
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
its warm state in four 64-entry :class:`~repro.caching.KeyedLRU` maps
of typed records: the open segments and index sidecars of
:mod:`repro.corpus.segment`, which the store's own reads share (a
sidecar's entry also holds the :class:`PackedIndex` lane parsed from
each of its records, so overlapping windows parse a record once), and
this module's warm :class:`Window` of each chunk — its trees and its
stacked shard — and the lane windows asked for once.  A kept window is
never stacked again.

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
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..caching import KeyedLRU
from ..engine.index import (
    IndexFormatError,
    PackedIndex,
    TreeIndex,
    adopt_index,
    index_for,
)
from ..engine.ir import StackedShard, evaluate_shard
from ..engine.planner import Plan, default_planner
from ..engine.plans import compile_ir_plan, dialect_for
from ..engine.stats import CorpusStatistics, corpus_statistics
from ..resilience.budget import Budget, ExecutionContext, activate
from ..resilience.errors import EngineError, ResourceExhausted
from ..resilience.faults import Fault, FaultInjector
from ..trees.tree import Tree
from .query import CorpusQuery
from .segment import SidecarSpec, StoreError, open_segment, open_sidecar

__all__ = [
    "ChunkReport", "BatchResult", "ResultRows", "WorkerPools", "run_batch",
    "plan_queries",
]

#: Engines a batch can run on.  Every query with a root-anchored IR
#: plan runs in the stacked shard pass — every tree of a chunk packed
#: into its own lane of one wide integer (:mod:`repro.engine.ir`) —
#: under every engine but ``"reference"``; the names decide only the
#: rest.  ``"fast"`` runs them on the indexed per-tree evaluators, with
#: per-chunk reference degradation; ``"vectorized"`` means what
#: ``"fast"`` means; ``"auto"`` lets the cost-based planner pick fast
#: or reference per query from the corpus's aggregate statistics
#: (:mod:`repro.engine.planner`); ``"reference"`` runs every cell on
#: the node-at-a-time evaluators (the oracle's other half).
ENGINES = ("fast", "reference", "auto", "vectorized")


@dataclass(frozen=True)
class ChunkReport:
    """What happened to one chunk: which trees it covered, which engine
    produced its answers, and whether (and why) it degraded.

    ``steps`` is the budget fuel the chunk's successful attempt spent
    (0 when it ran without a budget) — the query service reconciles
    per-session quotas against it.  The stacked pass checkpoints once
    per plan step for the whole chunk, not once per tree, and runs
    every query with an IR plan whatever the engine name, so steps
    follow one rule on every chunk source: a chunk of the same trees
    spends the same from trees as from lanes.  Its descendant, child
    and ancestor steps, and a walk's ``(down | right)*`` loop, are
    arithmetic over subtree sizes with no saturation rounds, so steps
    follow plan length, not tree depth: a ``//σ//δ`` chunk spends as
    much on a 64-node chain as on a shallow 64-node tree (only
    ``ClosurePlus`` over ``left``, ``right`` or ``down`` and a walk's
    other loops still spend one step per round).  ``retries`` counts
    worker-death resubmissions that preceded the answer.  ``source``
    names where the chunk's indexes came from: ``"lanes"`` — its
    segment's index sidecar, with no tree loaded — or ``"trees"``."""

    index: int
    start: int
    stop: int
    engine: str
    fell_back: bool
    error: Optional[str]
    seconds: float
    steps: int = 0
    retries: int = 0
    source: str = "trees"


class ResultRows(tuple):
    """A batch's rows: one tuple of cells per tree, each cell canonical
    by contract — a ``bool``, a tuple of node addresses (tuples of
    ``int``) or a tuple of address pairs.  The type marks the contract:
    the query service writes ``results`` that are ``ResultRows`` from
    cached address texts (:mod:`repro.service.protocol`), and any other
    value through ``json.dumps``."""

    __slots__ = ()


@dataclass(frozen=True)
class BatchResult:
    """The answers of one batch, in deterministic (tree, query) order.

    ``rows[t][q]`` is the canonical result of query ``q`` on tree ``t``
    — element-wise identical to a loop of single-tree calls, whatever
    the chunking or worker count."""

    queries: Tuple[CorpusQuery, ...]
    rows: ResultRows
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
    return dialect_for(query.kind).parse(query.text)


def plan_queries(
    queries: Sequence[CorpusQuery], stats: CorpusStatistics
) -> Tuple[Plan, ...]:
    """One planner decision per query against aggregate corpus
    statistics — the whole batch's ``engine="auto"`` resolution."""
    planner = default_planner()
    return tuple(
        planner.plan_for_stats(
            query.kind, query.text, stats, parsed=compile_query(query)
        )
        for query in queries
    )


def evaluate_cell(query: CorpusQuery, tree: Tree, engine: str = "fast"):
    """One (query, tree) cell, canonicalised: node tuples in document
    order, plain bools, or sorted pair tuples — byte-comparable across
    engines and picklable across processes.  ``vectorized`` means what
    ``fast`` means; ``auto`` asks the planner against this tree."""
    dialect = dialect_for(query.kind)
    parsed = dialect.parse(query.text)
    if engine == "auto":
        engine = default_planner().plan_for_tree(
            query.kind, query.text, tree, parsed=parsed
        ).engine
    evaluate = dialect.reference if engine == "reference" else dialect.fast
    return evaluate(parsed, tree, query.context)


# ---------------------------------------------------------------------------
# chunks
# ---------------------------------------------------------------------------

class Shard(NamedTuple):
    """A store chunk's byte coordinates: records ``[lo, hi)`` of the
    segment file at ``path`` as of store ``generation``.  ``sidecar`` —
    a :class:`~repro.corpus.segment.SidecarSpec` or ``None`` — names the
    segment's index sidecar and what it must say of itself, and
    ``store`` the store's identity, which the maps of open store files
    key on: two stores created one after the other at one path share
    file paths, generations and tags."""

    path: str
    generation: int
    lo: int
    hi: int
    sidecar: Optional[SidecarSpec]
    store: str


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


#: How many warm windows each process keeps, however many distinct
#: windows are asked for.
_WARM_CHUNKS = 64


class Window(NamedTuple):
    """One chunk's warm state: its trees (``None`` when stacked from
    sidecar lanes) and its stacked shard (``None`` until an engine that
    reads indexes runs on it), which pins the trees' indexes."""

    trees: Optional[Tuple[Tree, ...]]
    shard: Optional[StackedShard]


#: Warm windows, keyed by ``(token, start, stop, sidecar tag or
#: None)``: the token names an immutable tree sequence (a store's
#: embeds its generation), and the tag keeps a lane window apart from
#: a sidecars-off handle's tree window of the same range.  A window
#: that loaded or was shipped trees is kept at once, since a routed
#: worker's later batches ship none (:func:`_wire`); a lane window is
#: kept from its second request on (:data:`_ASKED_ONCE` remembers the
#: first), since stacking costs less than an entry's upkeep for a
#: window nobody asks for again.
_WINDOWS = KeyedLRU(_WARM_CHUNKS, name="warm windows")

#: The lane windows stacked once and not kept, same keys.
_ASKED_ONCE = KeyedLRU(_WARM_CHUNKS, name="windows asked once")

#: Returned by a worker asked to run a chunk from warm state it does
#: not have (e.g. the worker process was restarted).  The parent then
#: re-runs the chunk itself from the full task.
_CACHE_MISS = "__corpus_chunk_cache_miss__"


def _shard_lanes(shard: Shard) -> Optional[Tuple[PackedIndex, ...]]:
    """The shard's :class:`PackedIndex` lanes, parsed once per record
    straight from its open sidecar's bytes — or ``None`` when the
    sidecar is missing, stale or corrupt, and trees must load."""
    opened = open_sidecar(shard.store, shard.sidecar)
    if opened.sidecar is None:
        return None
    lanes = []
    for i in range(shard.lo, shard.hi):
        lane = opened.lanes.get(i)
        if lane is None:
            try:
                lane = PackedIndex(opened.sidecar.blob(i))
            except (StoreError, IndexFormatError, ValueError, IndexError):
                return None  # corrupt blob: fall back to rebuilding from records
            opened.lanes[i] = lane
        lanes.append(lane)
    return tuple(lanes)


def _lane_window(task: ChunkTask) -> Optional[Window]:
    """The chunk's window stacked from its sidecar's lanes, or ``None``
    when the sidecar is missing, stale or corrupt.

    Threads racing on a window not yet kept may each stack it; each
    answers from its own shard of the same bytes, so a race costs a
    stacking, never an answer."""
    key = (task.token, task.start, task.stop, task.shard.sidecar.tag)
    window = _WINDOWS.get(key)
    if window is not None:
        return window
    lanes = _shard_lanes(task.shard)
    if lanes is None:
        return None
    window = Window(None, StackedShard(lanes))
    if key in _ASKED_ONCE:
        _WINDOWS.put(key, window)
    else:
        _ASKED_ONCE.put(key, True)
    return window


def _reads_indexes(
    queries: Sequence[CorpusQuery], engine: Union[str, Tuple[str, ...]]
) -> bool:
    """Does a chunk of ``queries`` on ``engine`` (one name, or one per
    query) read tree indexes?  Only the reference evaluators read none:
    an explicit ``reference`` batch, or ``auto`` reference picks
    without an IR plan."""
    picks = engine if isinstance(engine, tuple) else (engine,)
    return any(pick != "reference" for pick in picks) or bool(
        _stacked_plans(queries, engine)
    )


def _tree_window(task: ChunkTask, indexed: bool) -> Optional[Window]:
    """The one way a chunk gets its trees: its warm window, else the
    trees it ships or its shard's records, kept under its token.  When
    ``indexed`` (the reference evaluators read no index) and the window
    has no shard yet, its indexes — pinned, or built here — are stacked
    into one.  ``None`` when the chunk has no trees to load (a routed
    worker that lost its warm state)."""
    key = (task.token, task.start, task.stop, None)
    window = _WINDOWS.get(key)
    if window is not None and (window.shard is not None or not indexed):
        return window
    if window is not None:
        trees = window.trees
    elif task.trees is not None:
        trees = task.trees
    elif task.shard is not None:  # unpickle only the shard's records
        at = task.shard
        trees = open_segment(at.store, at.path, at.generation).trees(
            at.lo, at.hi
        )
    else:
        return None
    shard = None
    if indexed:
        indexes = task.indexes
        if indexes is None:
            indexes = tuple(index_for(tree) for tree in trees)
        shard = StackedShard(indexes)
    window = Window(trees, shard)
    if task.token is not None:
        _WINDOWS.put(key, window)
    return window


def _ir_batch_plan(query: CorpusQuery):
    """The query's shared-IR plan for the stacked shard pass, or
    ``None`` when it cannot ride it: non-root contexts, the all-pairs
    relation kind, or a formula outside the IR fragment."""
    if query.context != ():
        return None
    return compile_ir_plan(query.kind, query.text)


def _stacked_plans(
    queries: Sequence[CorpusQuery], engine: Union[str, Tuple[str, ...]]
) -> Dict[int, object]:
    """Position → IR plan for the queries the stacked shard pass runs:
    every query with an IR plan, whatever the engine name, unless the
    batch is an explicit ``reference`` one."""
    if engine == "reference":
        return {}
    plans: Dict[int, object] = {}
    for position, query in enumerate(queries):
        plan = _ir_batch_plan(query)
        if plan is not None:
            plans[position] = plan
    return plans


def _evaluate_rows(
    window: Window,
    queries: Sequence[CorpusQuery],
    engine: Union[str, Tuple[str, ...]],
) -> Tuple[Tuple[object, ...], ...]:
    """One chunk's cells: one stacked shard pass over the window's shard
    for every query with an IR plan (none in a ``reference`` batch),
    then the tree-outer, query-inner sweep for the rest, each on its
    engine.

    A tree window's shard stacks its trees' :class:`TreeIndex` objects,
    each tree in its own bit lane, and the sweep adopts them tree by
    tree.  A lane window has no trees: its shard is stacked from
    :class:`PackedIndex` lanes straight from a sidecar, and every query
    must ride it."""
    plans = _stacked_plans(queries, engine)
    trees, shard = window
    if trees is not None:
        for query in queries:
            compile_query(query)
    columns: Dict[int, List[object]] = {}
    if plans:
        for position, plan in plans.items():
            lanes = shard.split(evaluate_shard(plan, shard))
            if plan.mode == "boolean":
                columns[position] = [bool(lane) for lane in lanes]
            else:
                columns[position] = [
                    idx.to_nodes(lane)
                    for idx, lane in zip(shard.indexes, lanes)
                ]
        if len(columns) == len(queries):
            # Every cell came from the shard: the rows are its columns,
            # transposed, with no per-tree work left to do.
            return tuple(zip(*(columns[q] for q in range(len(queries)))))
    engines = (
        engine if isinstance(engine, tuple) else (engine,) * len(queries)
    )
    indexes = shard.indexes if shard is not None else None
    rows = []
    for position in range(len(trees) if trees is not None else shard.lanes):
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
    window: Optional[Window],
    started: float,
    error: str,
    steps: int = 0,
    retries: int = 0,
):
    """The one degrade path: answer the chunk on the reference engine —
    unbudgeted, since it is the recovery and must be allowed to finish —
    and report why.  A lane-served attempt, or a worker that died,
    left no trees, so they load here."""
    if window is None or window.trees is None:
        window = _tree_window(task, indexed=False)
    rows = _evaluate_rows(window, task.queries, "reference")
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
    window = None
    # A store chunk with a valid sidecar whose queries all have IR
    # plans takes its lanes straight from the sidecar bytes — no
    # unpickling, no index builds.
    queries, engine = task.queries, task.engine
    if (
        task.shard is not None
        and task.shard.sidecar is not None
        and engine != "reference"
        and len(_stacked_plans(queries, engine)) == len(queries)
    ):
        window = _lane_window(task)
    if window is None:
        window = _tree_window(task, _reads_indexes(queries, engine))
        if window is None:  # e.g. a fresh worker after a pool restart
            return _CACHE_MISS, None
    # A reference chunk has no engine to degrade to, so its budget
    # applies only when exhaustion is the caller's verdict
    # (``on_exhausted="raise"`` — the query service's deadline path)
    # and it ignores injected faults.
    reference = engine == "reference"
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
            rows = _evaluate_rows(window, queries, engine)
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
            task, window, started, f"{type(exc).__name__}: {exc}",
            steps=budget.steps if budget is not None else 0,
        )
    return rows, ChunkReport(
        task.index, task.start, task.stop,
        "auto" if isinstance(engine, tuple) else engine,
        False, None, time.perf_counter() - started,
        steps=budget.steps if budget is not None else 0,
        source="lanes" if window.trees is None else "trees",
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

    Every query with a root-anchored IR plan runs in each chunk's
    stacked shard pass unless ``engine="reference"``; ``"vectorized"``
    means what ``"fast"`` means.  ``engine="auto"`` resolves each query
    to its planner-chosen engine against the corpus statistics
    (``stats`` when supplied — as
    :meth:`~repro.corpus.TreeCorpus.statistics` caches — else computed
    here) and records the decisions on ``BatchResult.plans``; a pick
    decides only a query without an IR plan.  The per-chunk degrade
    contract is unchanged.

    ``bounds`` overrides the automatic chunking with explicit
    ``[start, stop)`` intervals (as :class:`~repro.corpus.CorpusStore`
    passes, segment-aligned).  ``shard_for`` — a callable mapping a
    chunk's bounds to a :class:`Shard` — makes every chunk mmap-lazy,
    serial or fanned out: chunks ship *no trees at all* and each worker
    (or the parent, serially) loads only its own shard's byte range;
    ``trees`` is then unused and ``bounds`` required.  The index source
    follows the sidecar: when the shard names a valid index sidecar and
    every query has an IR plan, the chunk stacks the sidecar's lanes
    and skips tree and index materialization entirely
    (:func:`_shard_lanes`); only an explicit ``reference`` batch keeps
    its trees.

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
    ``retry_backoff`` sleeps, on a fresh single-worker pool: the
    :class:`WorkerPools`'s healed slot when ``pool`` is one, else a
    throwaway pool; only after the attempts are spent does the chunk
    degrade to an in-parent reference run, as before.
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
    plans: Optional[Tuple[Plan, ...]] = None
    chunk_engine: Union[str, Tuple[str, ...]] = engine
    if engine == "auto":
        if stats is None:
            stats = corpus_statistics(trees)
        plans = plan_queries(queries, stats)
        chunk_engine = tuple(plan.engine for plan in plans)
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
    replace_pool = None
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
            _submit(pools[slot], task) for task, slot in zip(tasks, slots)
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
                        task, None, time.perf_counter(),
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
        rows=ResultRows(row for rows, _ in answers for row in rows),
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


def _submit(pool: ProcessPoolExecutor, task: ChunkTask) -> Future:
    """``task``'s future on ``pool``.  A pool that refuses it — broken
    by a dead worker, or shut down by another batch's heal after this
    batch picked it — fails the chunk the way a dead worker does, so
    the retry ladder or the last-resort degrade answers it."""
    try:
        return pool.submit(_run_chunk, _wire(pool, task))
    except RuntimeError as exc:
        refused: Future = Future()
        refused.set_exception(exc)
        return refused


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
