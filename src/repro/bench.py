"""The engine performance trajectory: reference vs. indexed engines.

``python -m repro.bench`` times the assignment-at-a-time reference
evaluators (:mod:`repro.logic.tree_fo`, :mod:`repro.xpath.evaluator`)
against the indexed set-at-a-time engines (:mod:`repro.engine`) and
writes the measured trajectory to ``BENCH_engine.json``:

* **FO** — 3-variable formulas evaluated as full satisfying-assignment
  relations.  The reference walks the n^k assignment space; the engine
  compiles each subformula to a relation once.
* **XPath** — descendant-heavy expressions on deep documents.  The
  reference re-walks one subtree per frontier node; the engine merges
  subtree *intervals* with O(1) big-int range operations.

``python -m repro.bench --suite walk`` times the walking engines
instead and writes ``BENCH_walk.json``:

* **caterpillar** — full walk relations.  The reference runs the
  caterpillar NFA once per context node (~O(|expr|·n) each); the
  compiled engine answers all n contexts with one product-graph BFS
  over stacked frontier bitsets (:mod:`repro.engine.walk`).
* **twa** — guard-free deterministic tree-walking runs.  The
  reference interpreter re-derives the applicable rule at every
  step; the fast path replays a memoised per-(state, label,
  position) plan over dense preorder ids.

Every timed case is also checked for agreement between the two
engines, so a bench run doubles as a differential sweep.  All trees
are seeded: same seed, same JSON (modulo timings).

``python -m repro.bench --suite corpus`` times set-at-a-time batch
execution over a :class:`~repro.corpus.TreeCorpus` and writes
``BENCH_corpus.json``:

* **naive** — the status-quo loop: one facade call per (query, tree),
  a fresh :class:`~repro.queries.facade.TreeDatabase` each time, plan
  cache cold at the start of every sweep.  With more trees than the
  index LRU holds, the query-outer order rebuilds every index on
  every query.
* **serial cold / warm** — one batch through the corpus executor,
  with every process-wide cache emptied first (cold) or primed
  (warm).
* **workers 2/4/8** — the same batch fanned out over persistent
  routed worker pools that keep trees, indexes and plans warm
  between batches.

``python -m repro.bench --suite planner`` times ``engine="auto"``
against both manual engine choices per query and writes
``BENCH_planner.json``: the planner's chosen plan, its estimated vs
actual result cardinalities, re-plan counts, and how close auto comes
to the best manual pick per (query, size) cell.

``python -m repro.bench --check [files...]`` re-reads committed
``BENCH_*.json`` trajectories and fails if any reports a median
speedup below 1.0 — the "the engine never lost ground" ratchet — or,
at full size, a figure below the gate its own suite applies to a
fresh run (:data:`CHECK_GATES`).  Every trajectory must report zero
per-case errors.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .automata.examples import even_leaves_automaton
from .automata.runner import run as run_automaton
from .caterpillar import nfa as reference_walk
from .caterpillar.parser import parse_caterpillar
from .corpus import (
    TreeCorpus,
    ask_query,
    caterpillar_query,
    caterpillar_relation_query,
    select_query,
    xpath_query,
)
from .corpus.executor import evaluate_cell
from .engine import fo as fast_fo
from .engine import walk as fast_walk
from .engine import xpath as fast_xpath
from .engine.index import adopt_index, index_cache_clear, index_for
from .engine.ir import (
    Children,
    Closure,
    ClosurePlus,
    Descendants,
    LabelScan,
    StackedShard,
    evaluate_shard,
    evaluate_tree,
)
from .engine.ir import Plan as IRPlan
from .engine.planner import default_planner
from .engine.plans import plan_cache_clear
from .logic import tree_fo
from .logic.parser import parse_formula
from .queries.facade import TreeDatabase
from .trees import random_tree
from .xpath.evaluator import select as reference_xpath_select
from .xpath.parser import parse_xpath

SCHEMA = "repro-bench-engine/1"
DEFAULT_OUTPUT = "BENCH_engine.json"
WALK_SCHEMA = "repro-bench-walk/1"
WALK_DEFAULT_OUTPUT = "BENCH_walk.json"
CORPUS_SCHEMA = "repro-bench-corpus/1"
CORPUS_DEFAULT_OUTPUT = "BENCH_corpus.json"
PLANNER_SCHEMA = "repro-bench-planner/1"
PLANNER_DEFAULT_OUTPUT = "BENCH_planner.json"
KERNEL_SCHEMA = "repro-bench-kernel/1"
KERNEL_DEFAULT_OUTPUT = "BENCH_kernel.json"
STORE_SCHEMA = "repro-bench-store/1"
STORE_DEFAULT_OUTPUT = "BENCH_store.json"
SERVE_SCHEMA = "repro-bench-serve/1"
SERVE_DEFAULT_OUTPUT = "BENCH_serve.json"
COLDPATH_SCHEMA = "repro-bench-coldpath/1"
COLDPATH_DEFAULT_OUTPUT = "BENCH_coldpath.json"

#: 3-variable selectors (free x) timed as full satisfying-assignment
#: relations.  The first three make the reference pay the n^3 walk;
#: the last two early-exit well and are kept as honest counterpoints.
FO_FORMULAS = {
    "leaf-chain": "exists y (exists z ((x << y & y << z) & leaf(z)))",
    "value-homogeneous":
        "forall y (forall z ((x << y & y << z) -> val_a(y) = val_a(z)))",
    "value-chain":
        "exists y (exists z ((x << y & y << z) & val_a(y) = val_a(z)))",
    "leaves-matched":
        "forall y ((x << y & leaf(y)) -> "
        "exists z (E(z, y) & val_a(z) = val_a(y)))",
    "uniform-children":
        "exists y (E(x, y) & forall z (E(y, z) -> val_a(z) = val_a(x)))",
}

#: Descendant-heavy expressions evaluated from the root.
XPATH_EXPRESSIONS = [
    "//*//*",
    "//*//*//*",
    "//σ//δ//*",
    "//δ//σ//δ",
    "//σ[.//δ]//σ",
]

#: Closure-heavy caterpillar walks: the regime the compiled product
#: graph targets.  The Kleene stars keep the per-context reference NFA
#: exploring most of the tree from every start node, while the stacked
#: engine saturates all n frontiers in one BFS.  Two lighter walks
#: (a guarded descendant chase and the next-leaf caterpillar) stay in
#: as honest counterpoints.
CATERPILLAR_EXPRESSIONS = {
    "reach-sigma": "(up | down | left | right)* <σ>",
    "reach-sigma-leaf": "(up | down | left | right)* (<σ> isLeaf)",
    "zigzag-delta": "((up | left)* (down | right)*)* <δ>",
    "sigma-desc-leaf": "(down | right)* <σ> (down | right)* isLeaf",
    "leaf-next-leaf":
        "isLeaf (up isLast)* (up right | right) (down isFirst)* isLeaf",
}

#: Guard-free deterministic TWAs eligible for the memoised fast path.
TWA_AUTOMATA = {
    "even-leaves": even_leaves_automaton,
}

#: A mixed batch across every query kind the corpus executes — the
#: workload a user would otherwise run as a per-tree, per-query loop.
CORPUS_QUERIES = (
    xpath_query("//δ"),
    xpath_query("//σ//δ"),
    xpath_query("//σ[.//δ]//σ"),
    ask_query("exists x O_σ(x)"),
    ask_query("forall x (leaf(x) -> O_δ(x))"),
    ask_query("exists x exists y (x << y & O_σ(x) & O_δ(y))"),
    select_query("x << y & O_δ(y)"),
    caterpillar_query("down*"),
    caterpillar_query("(down | right)* <δ>"),
    caterpillar_relation_query("down <σ>"),
)

FO_SIZES = (25, 50, 100, 200)
XPATH_SIZES = (100, 250, 500, 1000)
CATERPILLAR_SIZES = (100, 250, 500)
TWA_SIZES = (100, 250, 500)
CORPUS_TREE_COUNTS = (40, 80, 160)
PLANNER_SIZES = (100, 250, 500)
FO_SIZES_QUICK = (8, 16)
XPATH_SIZES_QUICK = (40, 80)
CATERPILLAR_SIZES_QUICK = (20, 40)
TWA_SIZES_QUICK = (20, 40)
CORPUS_TREE_COUNTS_QUICK = (8, 16)
PLANNER_SIZES_QUICK = (12, 24)

#: Corpus trees cycle through sizes up to this bound; past the 64-entry
#: index LRU the naive query-outer loop rebuilds indexes constantly.
CORPUS_MAX_TREE_SIZE = 48
CORPUS_WORKER_COUNTS = (2, 4, 8)

#: Low fan-out makes documents deep — the descendant-heavy regime.
MAX_CHILDREN = 2
VALUE_POOL = (1, 2, 3)

FO_THRESHOLD = 10.0
XPATH_THRESHOLD = 5.0
CATERPILLAR_THRESHOLD = 10.0
TWA_THRESHOLD = 5.0
CORPUS_BATCH_THRESHOLD = 2.5
CORPUS_WARM_THRESHOLD = 1.0
#: The stacked shard pass must at least halve the warm per-tree batch
#: time at the top corpus size — the whole point of lowering every
#: dialect into one IR is interpreting each plan once per *chunk*
#: instead of once per tree.
KERNEL_THRESHOLD = 2.0
#: ``engine="auto"`` must pick the measured-fastest engine on at least
#: this fraction of planner-bench cells...
PLANNER_PICK_THRESHOLD = 0.8
#: ...and the median ``auto``/best-manual time ratio at the top size
#: must stay below this factor (the worst cell is recorded but not
#: gated — a single sub-100µs cell can swing several-fold on noise).
PLANNER_OVERHEAD_THRESHOLD = 1.1
#: A chosen engine within this factor of the measured best counts as
#: having picked the fastest — sub-millisecond cells tie up to noise.
PLANNER_TIE_TOLERANCE = 1.25

#: Disk-store sweep (``--suite store``): corpus sizes a decade apart —
#: the flat-latency claim is about what happens when the corpus grows
#: 10x under a fixed query window.
STORE_TREE_COUNTS = (10_000, 100_000)
STORE_TREE_COUNTS_QUICK = (300, 3_000)  # both cover the query window
#: The fixed window of trees every batch queries, whatever the store
#: size — mmap-lazy loading means the rest of the corpus never costs.
STORE_WINDOW = 256
#: Single-subtree repair is measured on trees of these node counts.
STORE_REPAIR_SIZES = (10_000, 20_000)
STORE_REPAIR_SIZES_QUICK = (1_500,)
STORE_REPAIR_EDITS = 12
#: Edited subtrees stay below this many nodes — the "fix one record"
#: workload incremental repair exists for (and the *hard* case: the
#: prefix/suffix splice work is maximal when the site is small).
STORE_REPAIR_SITE_LIMIT = 64

#: One-subtree replaces timed in one full default-size segment, on a
#: store of their own: absolute wall and CPU ms and bytes written, not
#: gated.
STORE_REPLACE_EDITS = 12
STORE_REPLACE_EDITS_QUICK = 3

#: Warm fixed-window batch latency may grow at most this factor as the
#: corpus grows 10x.
STORE_FLAT_THRESHOLD = 1.3
#: Peak ingest RSS may grow at most this factor over the same decade —
#: streaming ingest is sublinear in the corpus, or it is broken.
STORE_RSS_THRESHOLD = 3.0
#: Incremental index repair must beat a fresh build by at least this
#: factor (median over single-subtree edits) at n >= 10k nodes.
STORE_REPAIR_THRESHOLD = 5.0

#: One query per kind — the batch the store suite replays per window.
STORE_QUERIES = (
    xpath_query("//σ//δ"),
    ask_query("exists x exists y (x << y & O_σ(x) & O_δ(y))"),
    select_query("x << y & O_δ(y)"),
    caterpillar_query("(down | right)* <δ>"),
    caterpillar_relation_query("down <σ>"),
)

#: Serve sweep (``--suite serve``): a closed-loop load model.  Each
#: client thread sends one query over a small tree window, then
#: "thinks" for :data:`SERVE_THINK_SECONDS` before the next — think
#: time (and socket turnaround) is genuinely idle, so concurrency can
#: overlap it even on the single-core runners this repo targets; the
#: throughput gate measures exactly that overlap, not CPU parallelism.
SERVE_CLIENT_COUNTS = (1, 8, 32)
SERVE_TREE_COUNT = 48
SERVE_TREE_COUNT_QUICK = 12
SERVE_MAX_TREE_SIZE = 48
SERVE_WINDOW = 6
SERVE_DURATION = 2.0
SERVE_DURATION_QUICK = 0.5
SERVE_THINK_SECONDS = 0.008
#: In the chaos round every this-many-th request carries an injected
#: engine fault — the chunk must degrade to the reference, not error.
SERVE_FAULT_EVERY = 4
#: Aggregate throughput at 8 clients must be at least this multiple of
#: the single-client throughput (full-size sweep only).
SERVE_SCALE_THRESHOLD = 2.0
#: p99 latency under the chaos round may be at most this multiple of
#: the fault-free p99 at the same concurrency.
SERVE_FAULT_P99_THRESHOLD = 10.0
#: The one query every serve client replays — its truth table over the
#: whole corpus is precomputed once and every response checked.
SERVE_QUERY = xpath_query("//σ//δ")

#: Cold-path sweep (``--suite coldpath``): the zero-rebuild claim.
#: A cold vectorized window is timed twice in fresh child processes —
#: once reading :class:`~repro.engine.index.PackedIndex` lanes straight
#: from the ``.rpridx`` sidecars, once with sidecars disabled so every
#: tree is unpickled and its :class:`~repro.engine.index.TreeIndex`
#: rebuilt — then a dispatcher replays the same windows against the
#: generation-keyed result cache.
COLDPATH_TREE_COUNTS = (10_000, 100_000)
COLDPATH_TREE_COUNTS_QUICK = (300, 3_000)
#: Every cold round answers this fixed window from tree 0.
COLDPATH_WINDOW = 256
#: Document-sized trees — ``24 + (i * 13) % 41`` nodes — rather than
#: the store sweep's tiny ones: the cold path's whole point is the
#: per-tree index work, and 4-node trees bury it in fixed overhead.
COLDPATH_TREE_SIZES = (24, 13, 41)
#: Cold sidecar window must beat the rebuild-from-pickle window by
#: this much at the full 100k size.
COLDPATH_SIDECAR_THRESHOLD = 3.0
#: Cached window replay (p50) must beat the first, uncached answer of
#: the same window by this much at the full size.
COLDPATH_CACHE_THRESHOLD = 5.0
#: Distinct windows the cache round walks, and hits replayed per
#: window after its one miss.
COLDPATH_CACHE_WINDOWS = 5
COLDPATH_CACHE_HITS = 20
#: The IR-eligible subset of :data:`STORE_QUERIES` — the packed lane
#: path only engages when every query in the batch compiles to a
#: root-context IR plan, so the caterpillar kinds stay out.
COLDPATH_QUERIES = (
    xpath_query("//σ//δ"),
    ask_query("exists x exists y (x << y & O_σ(x) & O_δ(y))"),
    select_query("x << y & O_δ(y)"),
)

#: ``--check`` floor: no committed trajectory may report a median
#: speedup below this — the engine must never lose to the reference.
CHECK_FLOOR = 1.0

#: Gates every summary key ending in ``_median_speedup_at_max_size``;
#: a summary with no such key fails outright.
_MEDIAN_FLOOR = ("*_median_speedup_at_max_size", ">=", CHECK_FLOOR, False)

#: Every ``--check`` gate, by schema prefix (first match wins):
#: ``(summary key, op, bound, full_only)``.  ``op`` is ``"=="``,
#: ``">="``, ``"<="`` or ``"0<x<="`` (positive and at most the
#: bound); ``full_only`` gates bind full-size reports only, since
#: quick sweeps are too small to clear speed floors.  Each suite's
#: gates are the ones a fresh run of it passes or fails on.  The serve
#: and coldpath suites have no reference engine to beat, so they carry
#: no median floor: their gates are correctness plus their own speed
#: floors.
CHECK_GATES = {
    "repro-bench-engine": (
        _MEDIAN_FLOOR,
        ("fo_median_speedup_at_max_size", ">=", FO_THRESHOLD, True),
        ("xpath_median_speedup_at_max_size", ">=", XPATH_THRESHOLD, True),
    ),
    "repro-bench-walk": (
        _MEDIAN_FLOOR,
        ("caterpillar_median_speedup_at_max_size", ">=",
         CATERPILLAR_THRESHOLD, True),
        ("twa_median_speedup_at_max_size", ">=", TWA_THRESHOLD, True),
    ),
    "repro-bench-corpus": (
        _MEDIAN_FLOOR,
        ("corpus_median_speedup_at_max_size", ">=",
         CORPUS_BATCH_THRESHOLD, True),
    ),
    "repro-bench-serve": (
        ("serve_wrong_answers", "==", 0, False),
        ("serve_fault_error_rate", "==", 0.0, False),
        ("serve_fault_degraded_chunks", ">=", 1, False),
        ("serve_scale_at_8_clients", ">=", SERVE_SCALE_THRESHOLD, True),
        ("serve_fault_p99_ratio", "0<x<=", SERVE_FAULT_P99_THRESHOLD, True),
    ),
    "repro-bench-coldpath": (
        ("coldpath_disagreements", "==", 0, False),
        ("coldpath_wrong_answers", "==", 0, False),
        ("coldpath_sidecar_speedup_at_max_size", ">=",
         COLDPATH_SIDECAR_THRESHOLD, True),
        ("coldpath_cache_speedup_at_max_size", ">=",
         COLDPATH_CACHE_THRESHOLD, True),
    ),
    "repro-bench-planner": (
        _MEDIAN_FLOOR,
        ("planner_pick_fraction", ">=", PLANNER_PICK_THRESHOLD, True),
        ("planner_median_auto_vs_best_at_max_size", "<=",
         PLANNER_OVERHEAD_THRESHOLD, True),
    ),
    "repro-bench-store": (
        _MEDIAN_FLOOR,
        ("store_warm_flat_ratio", "0<x<=", STORE_FLAT_THRESHOLD, True),
        ("store_ingest_rss_ratio", "0<x<=", STORE_RSS_THRESHOLD, True),
        ("store_repair_median_speedup_at_max_size", ">=",
         STORE_REPAIR_THRESHOLD, True),
    ),
    "repro-bench-kernel": (
        _MEDIAN_FLOOR,
        ("kernel_median_speedup_at_max_size", ">=", KERNEL_THRESHOLD, True),
    ),
    "repro-bench-": (_MEDIAN_FLOOR,),
}


def _document(size: int, seed: int):
    return random_tree(
        size,
        value_pool=VALUE_POOL,
        max_children=MAX_CHILDREN,
        seed=seed,
    )


def _timed(thunk: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        thunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _guarded_case(errors: Optional[List[str]], label: str, body: Callable):
    """Run one benchmark case; record (rather than swallow) failures.

    Differential disagreements (``AssertionError``) always propagate —
    they mean an engine is *wrong*, and no trajectory may paper over
    that.  Any other exception used to cost the suite its whole run (or
    worse, a silently missing row); with an ``errors`` list it is
    recorded as a per-suite error surfaced in the JSON payload, where
    the test battery asserts there are none.  Without one (direct
    calls) exceptions propagate unchanged."""
    try:
        return body()
    except AssertionError:
        raise
    except Exception as exc:
        if errors is None:
            raise
        errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def run_fo_benchmark(
    sizes: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    rows = []
    for n in sizes:
        tree = _document(n, seed + n)
        for name, text in FO_FORMULAS.items():

            def case(name=name, text=text, n=n, tree=tree):
                formula = parse_formula(text)
                order = sorted(
                    tree_fo.free_variables(formula), key=lambda v: v.name
                )
                engine = fast_fo.satisfying_assignments(formula, tree, order)
                reference = tree_fo.satisfying_assignments(
                    formula, tree, order
                )
                if engine != reference:  # pragma: no cover - guard
                    raise AssertionError(
                        f"engines disagree on {name} at n={n}"
                    )
                # The engine side is sub-millisecond: median more runs.
                engine_s = _timed(
                    lambda: fast_fo.satisfying_assignments(
                        formula, tree, order
                    ),
                    max(repeats, 3),
                )
                reference_s = _timed(
                    lambda: tree_fo.satisfying_assignments(
                        formula, tree, order
                    ),
                    repeats,
                )
                return {
                    "formula": name,
                    "n": n,
                    "reference_seconds": reference_s,
                    "engine_seconds": engine_s,
                    "speedup": reference_s / engine_s,
                }

            row = _guarded_case(errors, f"fo:{name}@n={n}", case)
            if row is not None:
                rows.append(row)
    return rows


def run_xpath_benchmark(
    sizes: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    rows = []
    for n in sizes:
        tree = _document(n, seed + n)
        for text in XPATH_EXPRESSIONS:

            def case(text=text, n=n, tree=tree):
                expr = parse_xpath(text)
                engine = fast_xpath.select(expr, tree)
                reference = reference_xpath_select(expr, tree, ())
                if engine != reference:  # pragma: no cover - guard
                    raise AssertionError(
                        f"engines disagree on {text} at n={n}"
                    )
                runs = max(repeats, 3)
                engine_s = _timed(lambda: fast_xpath.select(expr, tree), runs)
                reference_s = _timed(
                    lambda: reference_xpath_select(expr, tree, ()), runs
                )
                return {
                    "expression": text,
                    "n": n,
                    "reference_seconds": reference_s,
                    "engine_seconds": engine_s,
                    "speedup": reference_s / engine_s,
                }

            row = _guarded_case(errors, f"xpath:{text}@n={n}", case)
            if row is not None:
                rows.append(row)
    return rows


def run_caterpillar_benchmark(
    sizes: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    """Full walk relations: per-context reference NFA vs one stacked BFS."""
    rows = []
    for n in sizes:
        tree = _document(n, seed + n)
        for name, text in CATERPILLAR_EXPRESSIONS.items():

            def case(name=name, text=text, n=n, tree=tree):
                expr = parse_caterpillar(text)
                engine = fast_walk.relation(expr, tree)
                reference = reference_walk.relation(expr, tree)
                if engine != reference:  # pragma: no cover - guard
                    raise AssertionError(
                        f"engines disagree on {name} at n={n}"
                    )
                engine_s = _timed(
                    lambda: fast_walk.relation(expr, tree), max(repeats, 3)
                )
                reference_s = _timed(
                    lambda: reference_walk.relation(expr, tree), repeats
                )
                return {
                    "expression": name,
                    "text": text,
                    "n": n,
                    "reference_seconds": reference_s,
                    "engine_seconds": engine_s,
                    "speedup": reference_s / engine_s,
                }

            row = _guarded_case(errors, f"caterpillar:{name}@n={n}", case)
            if row is not None:
                rows.append(row)
    return rows


def run_twa_benchmark(
    sizes: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    """Guard-free TWA runs: step interpreter vs memoised fast path."""
    rows = []
    for n in sizes:
        tree = _document(n, seed + n)
        for name, factory in TWA_AUTOMATA.items():

            def case(name=name, factory=factory, n=n, tree=tree):
                automaton = factory()
                reference = run_automaton(automaton, tree, engine="reference")
                fast = run_automaton(automaton, tree, engine="fast")
                if (
                    reference.accepted != fast.accepted
                    or reference.steps != fast.steps
                    or reference.reason != fast.reason
                ):  # pragma: no cover - differential guard
                    raise AssertionError(
                        f"runners disagree on {name} at n={n}"
                    )
                runs = max(repeats, 3)
                engine_s = _timed(
                    lambda: run_automaton(automaton, tree, engine="fast"),
                    runs,
                )
                reference_s = _timed(
                    lambda: run_automaton(
                        automaton, tree, engine="reference"
                    ),
                    runs,
                )
                return {
                    "automaton": name,
                    "n": n,
                    "steps": reference.steps,
                    "accepted": reference.accepted,
                    "reference_seconds": reference_s,
                    "engine_seconds": engine_s,
                    "speedup": reference_s / engine_s,
                }

            row = _guarded_case(errors, f"twa:{name}@n={n}", case)
            if row is not None:
                rows.append(row)
    return rows


def _naive_corpus_rows(trees, queries) -> tuple:
    """The status-quo loop: one facade call per (query, tree).

    Query-outer order is deliberate — it is the natural "run this
    query everywhere, then the next" shape, and with more trees than
    the index LRU holds it re-derives every tree's index per query.
    """
    grid = [[None] * len(queries) for _ in trees]
    for q, query in enumerate(queries):
        for t, tree in enumerate(trees):
            grid[t][q] = TreeDatabase(tree).query(
                query.kind, query.text, query.context
            )
    return tuple(tuple(row) for row in grid)


def run_corpus_benchmark(
    tree_counts: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    """Batch execution modes over growing corpora.

    Per tree count: the naive per-call loop, one cold batch (every
    process-wide cache emptied first, index build included), one warm
    serial batch, and warmed worker fan-outs.  Every mode's answers
    are checked against the naive loop before anything is timed.
    """
    rows = []
    runs = max(repeats, 3)
    for count in tree_counts:
        block = _guarded_case(
            errors, f"corpus:{count}",
            lambda count=count: _corpus_count_rows(count, seed, runs),
        )
        if block is not None:
            rows.extend(block)
    return rows


def _corpus_count_rows(count: int, seed: int, runs: int) -> List[Dict]:
    """All benchmark modes for one corpus size — one guarded case."""
    rows: List[Dict] = []
    with TreeCorpus.random(
        count, max_size=CORPUS_MAX_TREE_SIZE, seed=seed
    ) as corpus:
        trees = corpus.trees
        expected = _naive_corpus_rows(trees, CORPUS_QUERIES)
        serial = corpus.run(CORPUS_QUERIES)
        if serial.rows != expected:  # pragma: no cover - guard
            raise AssertionError(f"batch disagrees with loop at {count}")
        for workers in CORPUS_WORKER_COUNTS:  # warm pools + check
            fanned = corpus.run(CORPUS_QUERIES, workers=workers)
            if (
                fanned.rows != expected or fanned.fell_back
            ):  # pragma: no cover - guard
                raise AssertionError(
                    f"workers={workers} batch degraded at {count}: "
                    f"{[c.error for c in fanned.chunks if c.error]}"
                )

        def naive():
            plan_cache_clear()
            _naive_corpus_rows(trees, CORPUS_QUERIES)

        def cold():
            plan_cache_clear()
            index_cache_clear()
            TreeCorpus(trees).run(CORPUS_QUERIES)

        modes = [("naive", naive), ("serial_cold", cold)]
        modes.append(
            ("serial_warm", lambda: corpus.run(CORPUS_QUERIES))
        )
        for workers in CORPUS_WORKER_COUNTS:
            modes.append(
                (
                    f"workers_{workers}",
                    lambda w=workers: corpus.run(
                        CORPUS_QUERIES, workers=w
                    ),
                )
            )
        seconds = {
            mode: _timed(thunk, runs) for mode, thunk in modes
        }
        for mode, _ in modes:
            rows.append(
                {
                    "mode": mode,
                    "n": count,
                    "nodes": corpus.total_nodes(),
                    "seconds": seconds[mode],
                    "speedup": seconds["naive"] / seconds[mode],
                }
            )
        # cold mode thrashed the shared caches; re-prime them so a
        # later tree count's warm modes stay warm.
        corpus.run(CORPUS_QUERIES)
    return rows


#: The IR-expressible slice of the mixed corpus batch: everything but
#: the all-pairs relation kind (which the stacked pass hands back to
#: the per-tree engine).
KERNEL_QUERIES = tuple(
    q for q in CORPUS_QUERIES if q.kind != "caterpillar-relation"
)


def run_kernel_benchmark(
    tree_counts: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    """Warm per-tree cells vs the stacked shard executor.

    Per tree count: answers of the ``"fast"``, ``"vectorized"`` and
    ``"auto"`` batches are checked cell-for-cell against the per-tree
    loop first, then each mode is timed warm (pinned indexes, hot plan
    caches).  Speedups are against the per-tree loop — a tree-outer,
    query-inner ``evaluate_cell(query, tree, "fast")`` sweep, the
    strongest per-tree baseline in the repo, not the naive loop."""
    rows = []
    runs = max(repeats, 5)
    for count in tree_counts:
        block = _guarded_case(
            errors, f"kernel:{count}",
            lambda count=count: _kernel_count_rows(count, seed, runs),
        )
        if block is not None:
            rows.extend(block)
    return rows


def _per_tree_cells(trees, indexes) -> tuple:
    """The kernel suite's baseline: every cell on its own, tree-outer
    and query-inner, on the fast per-tree evaluators over pinned
    indexes — no stacking."""
    rows = []
    for tree, index in zip(trees, indexes):
        adopt_index(tree, index)
        rows.append(
            tuple(evaluate_cell(q, tree, "fast") for q in KERNEL_QUERIES)
        )
    return tuple(rows)


def _kernel_count_rows(count: int, seed: int, runs: int) -> List[Dict]:
    """All kernel-bench modes for one corpus size — one guarded case."""
    rows: List[Dict] = []
    with TreeCorpus.random(
        count, max_size=CORPUS_MAX_TREE_SIZE, seed=seed
    ) as corpus:
        trees = corpus.trees
        # Pinned here as the corpus pins its own: the index LRU holds
        # fewer trees than the top size.
        indexes = tuple(index_for(tree) for tree in trees)
        expected = _per_tree_cells(trees, indexes)
        for engine in ("fast", "vectorized", "auto"):
            got = corpus.run(KERNEL_QUERIES, engine=engine)
            if got.rows != expected:  # pragma: no cover - guard
                raise AssertionError(
                    f"engine={engine} disagrees with per-tree cells "
                    f"at {count}"
                )
        modes = [("per_tree", lambda: _per_tree_cells(trees, indexes))] + [
            (mode, lambda e=mode: corpus.run(KERNEL_QUERIES, engine=e))
            for mode in ("vectorized", "auto")
        ]
        seconds = {mode: _timed(thunk, runs) for mode, thunk in modes}
        for mode, _ in modes:
            rows.append(
                {
                    "mode": mode,
                    "n": count,
                    "nodes": corpus.total_nodes(),
                    "queries": len(KERNEL_QUERIES),
                    "seconds": seconds[mode],
                    "speedup": seconds["per_tree"] / seconds[mode],
                }
            )
    return rows


#: The stacked shard's one-pass structural ops the kernel suite times,
#: each from the σ-labelled nodes.
KERNEL_OPS = (
    "Descendants", "Children", "ClosurePlus(up)", "Closure((down | right)*)",
)


def _kernel_op_costs(count: int, seed: int, runs: int) -> Dict[str, float]:
    """Warm ns per node of each :data:`KERNEL_OPS` op on one shard
    stacked from the kernel corpus's ``count`` trees (size buckets and
    label masks stacked before timing).  Each op's lanes are checked
    against the per-tree evaluator first."""
    with TreeCorpus.random(
        count, max_size=CORPUS_MAX_TREE_SIZE, seed=seed
    ) as corpus:
        indexes = tuple(index_for(tree) for tree in corpus.trees)
        nodes = corpus.total_nodes()
    shard = StackedShard(indexes)
    loop = fast_walk.compile_walk(parse_caterpillar("(down | right)*"))
    ops = (
        Descendants(0),
        Children(0),
        ClosurePlus(0, "up"),
        Closure(0, loop.edges, loop.start, loop.accepting, loop.loops),
    )
    costs = {}
    for name, op in zip(KERNEL_OPS, ops):
        plan = IRPlan((LabelScan("σ"), op), 1, "nodes")
        lanes = shard.split(evaluate_shard(plan, shard))
        if lanes != [evaluate_tree(plan, index) for index in indexes]:
            raise AssertionError(  # pragma: no cover - guard
                f"stacked {name} disagrees with the per-tree evaluator"
            )
        seconds = _timed(lambda: evaluate_shard(plan, shard), runs)
        costs[name] = round(seconds / nodes * 1e9, 2)
    return costs


def _facade_thunk(db: TreeDatabase, query, engine: str) -> Callable:
    """One no-argument facade call for a corpus-style query."""
    return lambda: db.query(query.kind, query.text, query.context, engine)


def _result_cardinality(query, answer) -> int:
    """Measured result rows, on the planner's own scale (bools are
    0/1 rows)."""
    if query.kind == "ask":
        return int(bool(answer))
    return len(answer)


def run_planner_benchmark(
    sizes: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    """``engine="auto"`` vs both manual engine choices, per query.

    Each cell answers the same query three ways through the facade —
    auto, fast, reference — checks the three agree, and records the
    planner's decision next to the measured truth: which engine was
    actually fastest, how far auto landed from it, and how far the
    estimated cardinality landed from the actual one (as the q-error
    ``max(est/act, act/est)`` on +1-smoothed counts)."""
    rows = []
    planner = default_planner()
    runs = max(repeats, 7)
    for n in sizes:
        tree = _document(n, seed + n)
        db = TreeDatabase(tree)
        for query in CORPUS_QUERIES:

            def case(query=query, n=n, db=db):
                auto = _facade_thunk(db, query, "auto")
                fast = _facade_thunk(db, query, "fast")
                reference = _facade_thunk(db, query, "reference")
                answer = auto()
                if not (answer == fast() == reference()):
                    raise AssertionError(  # pragma: no cover - guard
                        f"engines disagree on {query!r} at n={n}"
                    )
                plan = db.last_plan
                actual = _result_cardinality(query, answer)
                estimated = plan.estimated_rows
                q_error = max(
                    (estimated + 1) / (actual + 1),
                    (actual + 1) / (estimated + 1),
                )
                replans_before = planner.replans
                auto_s = _timed(auto, runs)
                replans = planner.replans - replans_before
                manual = {
                    "fast": _timed(fast, runs),
                    "reference": _timed(reference, runs),
                }
                best_engine = min(manual, key=manual.get)
                best_s = manual[best_engine]
                return {
                    "kind": query.kind,
                    "text": query.text,
                    "n": n,
                    "chosen": plan.engine,
                    "costs": {name: cost for name, cost in plan.costs},
                    "guarded": plan.guarded,
                    "estimated_rows": estimated,
                    "actual_rows": actual,
                    "estimate_q_error": q_error,
                    "replans": replans,
                    "auto_seconds": auto_s,
                    "fast_seconds": manual["fast"],
                    "reference_seconds": manual["reference"],
                    "best_engine": best_engine,
                    "picked_fastest": (
                        manual[plan.engine]
                        <= PLANNER_TIE_TOLERANCE * best_s
                    ),
                    "auto_vs_best": auto_s / best_s,
                    "speedup": manual["reference"] / auto_s,
                }

            label = f"planner:{query.kind}:{query.text}@n={n}"
            row = _guarded_case(errors, label, case)
            if row is not None:
                rows.append(row)
    return rows


def _corpus_mode_speedup(rows: Sequence[Dict], mode: str, n: int) -> float:
    hits = [
        r["speedup"] for r in rows if r["n"] == n and r["mode"] == mode
    ]
    return statistics.median(hits) if hits else 0.0


def _median_speedup_at(rows: Sequence[Dict], n: int) -> float:
    hits = [r["speedup"] for r in rows if r["n"] == n]
    return statistics.median(hits) if hits else 0.0


def run_benchmark(
    quick: bool = False, seed: int = 0, repeats: int = 1
) -> Dict:
    """The full (or ``--quick``) sweep as a JSON-ready dict."""
    fo_sizes = FO_SIZES_QUICK if quick else FO_SIZES
    xpath_sizes = XPATH_SIZES_QUICK if quick else XPATH_SIZES
    errors: List[str] = []
    fo_rows = run_fo_benchmark(fo_sizes, seed, repeats, errors=errors)
    xpath_rows = run_xpath_benchmark(
        xpath_sizes, seed, repeats, errors=errors
    )
    fo_median = _median_speedup_at(fo_rows, fo_sizes[-1])
    xpath_median = _median_speedup_at(xpath_rows, xpath_sizes[-1])
    return {
        "schema": SCHEMA,
        "generated_by": "python -m repro.bench"
        + (" --quick" if quick else ""),
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "errors": errors,
        "fo": {
            "sizes": list(fo_sizes),
            "formulas": dict(FO_FORMULAS),
            "rows": fo_rows,
        },
        "xpath": {
            "sizes": list(xpath_sizes),
            "expressions": list(XPATH_EXPRESSIONS),
            "max_children": MAX_CHILDREN,
            "rows": xpath_rows,
        },
        "summary": {
            "fo_max_size": fo_sizes[-1],
            "fo_median_speedup_at_max_size": fo_median,
            "xpath_max_size": xpath_sizes[-1],
            "xpath_median_speedup_at_max_size": xpath_median,
            "thresholds": {"fo": FO_THRESHOLD, "xpath": XPATH_THRESHOLD},
            "errors": len(errors),
            # The speed gates only bind the full-size sweep; a per-case
            # error fails any sweep, quick included.
            "pass": not errors
            and (
                quick
                or (
                    fo_median >= FO_THRESHOLD
                    and xpath_median >= XPATH_THRESHOLD
                )
            ),
        },
    }


def run_walk_benchmark(
    quick: bool = False, seed: int = 0, repeats: int = 1
) -> Dict:
    """The walking-engine sweep (``--suite walk``) as a JSON-ready dict."""
    cat_sizes = CATERPILLAR_SIZES_QUICK if quick else CATERPILLAR_SIZES
    twa_sizes = TWA_SIZES_QUICK if quick else TWA_SIZES
    errors: List[str] = []
    cat_rows = run_caterpillar_benchmark(
        cat_sizes, seed, repeats, errors=errors
    )
    twa_rows = run_twa_benchmark(twa_sizes, seed, repeats, errors=errors)
    cat_median = _median_speedup_at(cat_rows, cat_sizes[-1])
    twa_median = _median_speedup_at(twa_rows, twa_sizes[-1])
    return {
        "schema": WALK_SCHEMA,
        "generated_by": "python -m repro.bench --suite walk"
        + (" --quick" if quick else ""),
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "errors": errors,
        "caterpillar": {
            "sizes": list(cat_sizes),
            "expressions": dict(CATERPILLAR_EXPRESSIONS),
            "max_children": MAX_CHILDREN,
            "rows": cat_rows,
        },
        "twa": {
            "sizes": list(twa_sizes),
            "automata": sorted(TWA_AUTOMATA),
            "rows": twa_rows,
        },
        "summary": {
            "caterpillar_max_size": cat_sizes[-1],
            "caterpillar_median_speedup_at_max_size": cat_median,
            "twa_max_size": twa_sizes[-1],
            "twa_median_speedup_at_max_size": twa_median,
            "thresholds": {
                "caterpillar": CATERPILLAR_THRESHOLD,
                "twa": TWA_THRESHOLD,
            },
            "errors": len(errors),
            # The speed gates only bind the full-size sweep; a per-case
            # error fails any sweep, quick included.
            "pass": not errors
            and (
                quick
                or (
                    cat_median >= CATERPILLAR_THRESHOLD
                    and twa_median >= TWA_THRESHOLD
                )
            ),
        },
    }


def run_corpus_suite(
    quick: bool = False, seed: int = 0, repeats: int = 1
) -> Dict:
    """The corpus batch sweep (``--suite corpus``) as a JSON-ready dict."""
    tree_counts = CORPUS_TREE_COUNTS_QUICK if quick else CORPUS_TREE_COUNTS
    errors: List[str] = []
    rows = run_corpus_benchmark(tree_counts, seed, repeats, errors=errors)
    top = tree_counts[-1]
    batch_median = _corpus_mode_speedup(rows, "workers_4", top)
    cold_median = _corpus_mode_speedup(rows, "serial_cold", top)
    warm_median = (
        _corpus_mode_speedup(rows, "serial_warm", top) / cold_median
        if cold_median
        else 0.0
    )
    return {
        "schema": CORPUS_SCHEMA,
        "generated_by": "python -m repro.bench --suite corpus"
        + (" --quick" if quick else ""),
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "errors": errors,
        "corpus": {
            "tree_counts": list(tree_counts),
            "max_tree_size": CORPUS_MAX_TREE_SIZE,
            "worker_counts": list(CORPUS_WORKER_COUNTS),
            "queries": [
                {"kind": q.kind, "text": q.text} for q in CORPUS_QUERIES
            ],
            "rows": rows,
        },
        "summary": {
            "corpus_max_trees": top,
            # batch throughput: naive per-call loop vs 4-worker batch
            "corpus_median_speedup_at_max_size": batch_median,
            # warm serial batch vs cold (caches emptied, indexes rebuilt)
            "corpus_warm_median_speedup_at_max_size": warm_median,
            "thresholds": {
                "batch": CORPUS_BATCH_THRESHOLD,
                "warm": CORPUS_WARM_THRESHOLD,
            },
            "errors": len(errors),
            # The speed gates only bind the full-size sweep; a per-case
            # error fails any sweep, quick included.
            "pass": not errors
            and (
                quick
                or (
                    batch_median >= CORPUS_BATCH_THRESHOLD
                    and warm_median >= CORPUS_WARM_THRESHOLD
                )
            ),
        },
    }


def run_planner_suite(
    quick: bool = False, seed: int = 0, repeats: int = 1
) -> Dict:
    """The adaptive-planner sweep (``--suite planner``) as a JSON-ready
    dict."""
    sizes = PLANNER_SIZES_QUICK if quick else PLANNER_SIZES
    errors: List[str] = []
    rows = run_planner_benchmark(sizes, seed, repeats, errors=errors)
    top = sizes[-1]
    at_top = [r for r in rows if r["n"] == top]
    pick_fraction = (
        sum(1 for r in rows if r["picked_fastest"]) / len(rows)
        if rows
        else 0.0
    )
    worst_overhead = max(
        (r["auto_vs_best"] for r in at_top), default=float("inf")
    )
    median_overhead = (
        statistics.median(r["auto_vs_best"] for r in at_top)
        if at_top
        else float("inf")
    )
    planner_median = _median_speedup_at(rows, top)
    median_q_error = (
        statistics.median(r["estimate_q_error"] for r in rows)
        if rows
        else float("inf")
    )
    total_replans = sum(r["replans"] for r in rows)
    return {
        "schema": PLANNER_SCHEMA,
        "generated_by": "python -m repro.bench --suite planner"
        + (" --quick" if quick else ""),
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "errors": errors,
        "planner": {
            "sizes": list(sizes),
            "max_children": MAX_CHILDREN,
            "queries": [
                {"kind": q.kind, "text": q.text} for q in CORPUS_QUERIES
            ],
            "rows": rows,
        },
        "summary": {
            "planner_max_size": top,
            # auto vs the reference engine, the generic ≥1.0 ratchet.
            "planner_median_speedup_at_max_size": planner_median,
            # how often auto's choice was (within noise) the fastest.
            "planner_pick_fraction": pick_fraction,
            # the gated auto/best-manual slowdown at the top size...
            "planner_median_auto_vs_best_at_max_size": median_overhead,
            # ...and the worst cell, recorded for the tables but not
            # gated (µs-scale cells swing several-fold on timer noise).
            "planner_worst_auto_vs_best_at_max_size": worst_overhead,
            "planner_median_estimate_q_error": median_q_error,
            "planner_replans": total_replans,
            "thresholds": {
                "pick_fraction": PLANNER_PICK_THRESHOLD,
                "auto_vs_best": PLANNER_OVERHEAD_THRESHOLD,
            },
            "errors": len(errors),
            # The decision gates only bind the full-size sweep; a
            # per-case error fails any sweep, quick included.
            "pass": not errors
            and (
                quick
                or (
                    pick_fraction >= PLANNER_PICK_THRESHOLD
                    and median_overhead <= PLANNER_OVERHEAD_THRESHOLD
                    and planner_median >= CHECK_FLOOR
                )
            ),
        },
    }


def run_kernel_suite(
    quick: bool = False, seed: int = 0, repeats: int = 1
) -> Dict:
    """The unified-kernel sweep (``--suite kernel``) as a JSON-ready
    dict: one shared plan IR, evaluated per tree vs stacked over every
    tree of a chunk at once."""
    tree_counts = CORPUS_TREE_COUNTS_QUICK if quick else CORPUS_TREE_COUNTS
    errors: List[str] = []
    rows = run_kernel_benchmark(tree_counts, seed, repeats, errors=errors)
    top = tree_counts[-1]
    vectorized_median = _corpus_mode_speedup(rows, "vectorized", top)
    auto_median = _corpus_mode_speedup(rows, "auto", top)
    # One op takes tens of microseconds: the median of 100 calls.
    op_costs = _guarded_case(
        errors, f"kernel-ops:{top}",
        lambda: _kernel_op_costs(top, seed, 100),
    )
    return {
        "schema": KERNEL_SCHEMA,
        "generated_by": "python -m repro.bench --suite kernel"
        + (" --quick" if quick else ""),
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "errors": errors,
        "kernel": {
            "tree_counts": list(tree_counts),
            "max_tree_size": CORPUS_MAX_TREE_SIZE,
            "queries": [
                {"kind": q.kind, "text": q.text} for q in KERNEL_QUERIES
            ],
            "rows": rows,
        },
        "summary": {
            "kernel_max_trees": top,
            # warm stacked shard batch vs the warm per-tree cell loop
            "kernel_median_speedup_at_max_size": vectorized_median,
            # engine="auto" (planner + stacked pass) on the same
            # baseline — the end-to-end default path
            "kernel_auto_median_speedup_at_max_size": auto_median,
            # each mode's absolute warm time at the top size, ungated:
            # a ratio alone cannot show both sides getting slower
            "kernel_ms_at_max_size": {
                row["mode"]: round(row["seconds"] * 1000, 3)
                for row in rows
                if row["n"] == top
            },
            # warm ns per node of each one-pass structural op on the
            # top size's trees stacked into one shard, ungated
            "kernel_op_ns_per_node_at_max_size": op_costs or {},
            "thresholds": {"vectorized": KERNEL_THRESHOLD},
            "errors": len(errors),
            # The speed gate only binds the full-size sweep; a per-case
            # error fails any sweep, quick included.
            "pass": not errors
            and (quick or vectorized_median >= KERNEL_THRESHOLD),
        },
    }


#: Ingest runs in a child process so its peak RSS (``ru_maxrss``) is
#: the ingest's own, not this process's: the child streams randomly
#: generated trees straight into ``CorpusStore.ingest`` and reports
#: wall time and high-water memory as one JSON line.
_INGEST_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from repro.corpus.store import CorpusStore
from repro.trees import random_tree

path, count, seed = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
base, step, span = int(sys.argv[5]), int(sys.argv[6]), int(sys.argv[7])

def stream():
    for i in range(count):
        yield random_tree(
            base + (i * step) % span,
            value_pool=(1, 2, 3),
            max_children=3,
            seed=seed + i,
        )

store = CorpusStore.create(path)
t0 = time.perf_counter()
trees = store.ingest(stream())
seconds = time.perf_counter() - t0
store.close()
print(json.dumps({
    "trees": trees,
    "seconds": seconds,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _ingest_store(
    path: str,
    count: int,
    seed: int,
    sizes: Tuple[int, int, int] = (4, 7, 21),
) -> Dict:
    """Build a store of ``count`` trees in a child process; returns the
    child's ``{trees, seconds, peak_rss_kb}`` measurement.  Tree ``i``
    has ``base + (i * step) % span`` nodes for ``sizes = (base, step,
    span)``."""
    import os
    import subprocess

    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))
    result = subprocess.run(
        [
            sys.executable, "-c", _INGEST_CHILD,
            package_root, path, str(count), str(seed),
            str(sizes[0]), str(sizes[1]), str(sizes[2]),
        ],
        capture_output=True, text=True, check=False,
    )
    if result.returncode != 0:  # pragma: no cover - child guard
        raise RuntimeError(
            f"ingest child failed: {result.stderr.strip()[-500:]}"
        )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _store_size_row(path: str, count: int, seed: int, runs: int) -> Dict:
    """One corpus size: child-process ingest, cold open + first window
    batch (all shared caches emptied), then the warm window batch —
    answers checked against the naive per-call loop first."""
    from .corpus import CorpusStore

    ingest = _ingest_store(path, count, seed)
    window = min(STORE_WINDOW, count)
    plan_cache_clear()
    index_cache_clear()
    t0 = time.perf_counter()
    store = CorpusStore.open(path)
    store.statistics()
    first = store.run(STORE_QUERIES, stop=window)
    cold_seconds = time.perf_counter() - t0
    try:
        window_trees = [store.tree(i) for i in range(window)]
        expected = _naive_corpus_rows(window_trees, STORE_QUERIES)
        if first.rows != expected:  # pragma: no cover - guard
            raise AssertionError(
                f"store batch disagrees with loop at {count}"
            )
        warm_seconds = _timed(
            lambda: store.run(STORE_QUERIES, stop=window), max(runs, 3)
        )
    finally:
        store.close()
    return {
        "n": count,
        "window": window,
        "ingest_seconds": ingest["seconds"],
        "ingest_trees_per_second": ingest["trees"] / ingest["seconds"],
        "ingest_peak_rss_kb": ingest["peak_rss_kb"],
        "cold_open_seconds": cold_seconds,
        "warm_batch_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
    }


def run_store_benchmark(
    tree_counts: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    """Fixed-window batches over stores a decade apart in size."""
    import shutil
    import tempfile

    rows = []
    for count in tree_counts:
        tmp = tempfile.mkdtemp(prefix="repro-bench-store-")
        try:
            row = _guarded_case(
                errors, f"store:{count}",
                lambda count=count: _store_size_row(
                    f"{tmp}/store", count, seed, repeats
                ),
            )
            if row is not None:
                rows.append(row)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return rows


def _repair_sites(index, limit: int) -> List:
    """Every node whose subtree holds at most ``limit`` nodes and is
    not the root — candidate single-subtree edit sites."""
    return [
        index.node_of[u]
        for u in range(1, index.n)
        if index.subtree_end[u] - u <= limit
    ]


def run_repair_benchmark(
    sizes: Sequence[int],
    seed: int,
    repeats: int,
    errors: Optional[List[str]] = None,
) -> List[Dict]:
    """Incremental ``repair_index`` vs a fresh ``TreeIndex`` build over
    single-subtree edits at small sites (the hard case for the splice:
    nearly the whole index is prefix + suffix work)."""
    from .engine.index import TreeIndex, index_structures, repair_index

    rows = []
    for n in sizes:

        def case(n=n):
            tree = random_tree(
                n, value_pool=VALUE_POOL, max_children=3, seed=seed
            )
            base = TreeIndex(tree)
            sites = _repair_sites(base, STORE_REPAIR_SITE_LIMIT)
            step = max(1, len(sites) // STORE_REPAIR_EDITS)
            speedups = []
            for k, site in enumerate(sites[::step][:STORE_REPAIR_EDITS]):
                replacement = random_tree(
                    8, value_pool=VALUE_POOL, max_children=3,
                    seed=seed + 1000 + k,
                )
                edited = tree.replace_subtree(site, replacement)
                edited.nodes  # warm the lazy preorder both timings use
                t0 = time.perf_counter()
                rebuilt = TreeIndex(edited)
                rebuild_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                repaired = repair_index(base, edited, site)
                repair_s = time.perf_counter() - t0
                if index_structures(repaired) != index_structures(
                    rebuilt
                ):  # pragma: no cover - differential guard
                    raise AssertionError(
                        f"repair diverges from rebuild at n={n} "
                        f"site={site!r}"
                    )
                speedups.append(rebuild_s / repair_s)
            return {
                "n": n,
                "edits": len(speedups),
                "site_limit": STORE_REPAIR_SITE_LIMIT,
                "median_speedup": statistics.median(speedups),
                "min_speedup": min(speedups),
                "max_speedup": max(speedups),
            }

        row = _guarded_case(errors, f"repair:{n}", case)
        if row is not None:
            rows.append(row)
    return rows


def _bytes_written() -> Optional[int]:
    """Bytes this process has handed to write calls (Linux ``wchar``),
    or ``None`` where ``/proc/self/io`` does not exist."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_replace_benchmark(
    seed: int, edits: int, errors: Optional[List[str]] = None
) -> Optional[Dict]:
    """One-subtree ``replace`` edits in one full default-size segment of
    the edit workload's document sizes: median wall ms, CPU ms and bytes
    written per replace.  A first, untimed replace is checked against
    the naive per-call loop over a window holding the edited tree."""
    import shutil
    import tempfile

    from .corpus import CorpusStore
    from .corpus.store import DEFAULT_SEGMENT_SIZE

    def case():
        base, step, span = COLDPATH_TREE_SIZES
        trees = [
            random_tree(
                base + (i * step) % span, value_pool=(1, 2, 3),
                max_children=3, seed=seed + i,
            )
            for i in range(DEFAULT_SEGMENT_SIZE)
        ]
        rng = random.Random(seed)

        def edit(k):
            """One replace: (position, wall s, CPU s, bytes written)."""
            position = rng.randrange(len(trees))
            old = trees[position]
            site = rng.choice([node for node in old.nodes if node != ()])
            graft = random_tree(
                rng.randint(3, 8), value_pool=(1, 2, 3), max_children=3,
                seed=seed + 50_000 + k,
            )
            trees[position] = old.replace_subtree(site, graft)
            before = _bytes_written()
            t0, c0 = time.perf_counter(), time.process_time()
            store.replace(position, trees[position], site=site)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            after = _bytes_written()
            written = None if before is None else after - before
            return position, wall, cpu, written

        tmp = tempfile.mkdtemp(prefix="repro-bench-replace-")
        store = CorpusStore.create(f"{tmp}/store")
        try:
            store.ingest(trees)
            position = edit(0)[0]
            start = max(0, position - 8)
            stop = min(len(trees), start + 16)
            rows = store.run(STORE_QUERIES, start=start, stop=stop).rows
            if rows != _naive_corpus_rows(
                trees[start:stop], STORE_QUERIES
            ):  # pragma: no cover - guard
                raise AssertionError(
                    "store batch after replace disagrees with loop"
                )
            _, wall, cpu, written = zip(
                *(edit(k) for k in range(1, edits + 1))
            )
        finally:
            store.close()
            shutil.rmtree(tmp, ignore_errors=True)
        return {
            "segment_size": DEFAULT_SEGMENT_SIZE,
            "edits": edits,
            "wall_ms": statistics.median(wall) * 1000,
            "cpu_ms": statistics.median(cpu) * 1000,
            "bytes_written": (
                None if None in written else statistics.median(written)
            ),
        }

    return _guarded_case(errors, "replace", case)


def run_store_suite(
    quick: bool = False, seed: int = 0, repeats: int = 1
) -> Dict:
    """The disk-store sweep (``--suite store``) as a JSON-ready dict:
    streaming ingest (child-process peak RSS), cold open, warm
    fixed-window batches at 1x and 10x corpus size, incremental index
    repair vs full rebuild, and the absolute cost of a one-subtree
    replace."""
    tree_counts = STORE_TREE_COUNTS_QUICK if quick else STORE_TREE_COUNTS
    repair_sizes = (
        STORE_REPAIR_SIZES_QUICK if quick else STORE_REPAIR_SIZES
    )
    errors: List[str] = []
    rows = run_store_benchmark(tree_counts, seed, repeats, errors=errors)
    repair_rows = run_repair_benchmark(
        repair_sizes, seed, repeats, errors=errors
    )
    replace = run_replace_benchmark(
        seed,
        STORE_REPLACE_EDITS_QUICK if quick else STORE_REPLACE_EDITS,
        errors=errors,
    ) or {}
    by_count = {row["n"]: row for row in rows}
    base, top = tree_counts[0], tree_counts[-1]
    flat_ratio = rss_ratio = warm_speedup = 0.0
    ingest_rate = 0.0
    if base in by_count and top in by_count:
        flat_ratio = (
            by_count[top]["warm_batch_seconds"]
            / by_count[base]["warm_batch_seconds"]
        )
        rss_ratio = (
            by_count[top]["ingest_peak_rss_kb"]
            / by_count[base]["ingest_peak_rss_kb"]
        )
        warm_speedup = by_count[top]["speedup"]
        ingest_rate = by_count[top]["ingest_trees_per_second"]
    repair_median = (
        statistics.median(r["median_speedup"] for r in repair_rows)
        if repair_rows
        else 0.0
    )
    return {
        "schema": STORE_SCHEMA,
        "generated_by": "python -m repro.bench --suite store"
        + (" --quick" if quick else ""),
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "errors": errors,
        "store": {
            "tree_counts": list(tree_counts),
            "window": STORE_WINDOW,
            "queries": [
                {"kind": q.kind, "text": q.text} for q in STORE_QUERIES
            ],
            "rows": rows,
            "repair_rows": repair_rows,
            "replace": replace,
        },
        "summary": {
            "store_max_trees": top,
            # warm fixed-window latency growth across a 10x corpus
            "store_warm_flat_ratio": flat_ratio,
            # child-process peak ingest RSS growth across the same 10x
            "store_ingest_rss_ratio": rss_ratio,
            "store_ingest_trees_per_second_at_max_size": ingest_rate,
            # cold open (caches emptied, segments unmapped) vs warm
            "store_warm_median_speedup_at_max_size": warm_speedup,
            # incremental splice repair vs a fresh TreeIndex build
            "store_repair_median_speedup_at_max_size": repair_median,
            # one-subtree replace in a full segment: absolute, ungated
            "store_replace_wall_ms": replace.get("wall_ms", 0.0),
            "store_replace_cpu_ms": replace.get("cpu_ms", 0.0),
            "store_replace_bytes_written": replace.get("bytes_written"),
            "thresholds": {
                "flat": STORE_FLAT_THRESHOLD,
                "rss": STORE_RSS_THRESHOLD,
                "repair": STORE_REPAIR_THRESHOLD,
            },
            "errors": len(errors),
            # The latency/RSS/repair gates only bind the full-size
            # sweep; a per-case error fails any sweep, quick included.
            "pass": not errors
            and (
                quick
                or (
                    0.0 < flat_ratio <= STORE_FLAT_THRESHOLD
                    and 0.0 < rss_ratio <= STORE_RSS_THRESHOLD
                    and warm_speedup >= CHECK_FLOOR
                    and repair_median >= STORE_REPAIR_THRESHOLD
                )
            ),
        },
    }


def _print_store_report(report: Dict) -> None:
    print(f"disk-store benchmark (seed={report['seed']}, "
          f"quick={report['quick']})")
    print(f"\nfixed window of {report['store']['window']} trees, "
          f"{len(report['store']['queries'])} queries per batch:")
    for row in report["store"]["rows"]:
        print(
            f"  {row['n']:>7} trees: ingest "
            f"{row['ingest_trees_per_second']:>7.0f} trees/s "
            f"(peak RSS {row['ingest_peak_rss_kb'] / 1024:.0f} MB), "
            f"cold open {row['cold_open_seconds'] * 1000:>7.1f}ms, "
            f"warm batch {row['warm_batch_seconds'] * 1000:>7.1f}ms"
        )
    print("\nincremental index repair vs fresh build "
          f"(sites <= {STORE_REPAIR_SITE_LIMIT} nodes):")
    for row in report["store"]["repair_rows"]:
        print(
            f"  n={row['n']:>6}: median {row['median_speedup']:>5.2f}x "
            f"over {row['edits']} edits "
            f"(min {row['min_speedup']:.2f}x, "
            f"max {row['max_speedup']:.2f}x)"
        )
    replace = report["store"]["replace"]
    if replace:
        written = replace["bytes_written"]
        print(
            f"\none-subtree replace in a {replace['segment_size']}-tree "
            f"segment: median {replace['wall_ms']:.1f}ms wall, "
            f"{replace['cpu_ms']:.1f}ms CPU"
            + (f", {written / 1e6:.2f} MB written" if written else "")
            + f" over {replace['edits']} edits"
        )
    summary = report["summary"]
    print(
        f"\nacross the 10x decade to {summary['store_max_trees']} trees: "
        f"warm window latency x{summary['store_warm_flat_ratio']:.2f} "
        f"(gate <= {summary['thresholds']['flat']:.1f}), ingest RSS "
        f"x{summary['store_ingest_rss_ratio']:.2f} "
        f"(gate <= {summary['thresholds']['rss']:.1f}), repair "
        f"{summary['store_repair_median_speedup_at_max_size']:.2f}x "
        f"(gate >= {summary['thresholds']['repair']:.1f}) — "
        f"{'pass' if summary['pass'] else 'FAIL'}"
    )


def _print_kernel_report(report: Dict) -> None:
    print(f"unified-kernel benchmark (seed={report['seed']}, "
          f"quick={report['quick']})")
    print(f"\n{len(report['kernel']['queries'])} IR-expressible queries "
          f"per batch, tree sizes cycling up to "
          f"{report['kernel']['max_tree_size']} nodes; speedups are "
          "against the warm per-tree cell loop:")
    current = None
    for row in report["kernel"]["rows"]:
        if row["n"] != current:
            current = row["n"]
            print(f"  {current} trees ({row['nodes']} nodes):")
        print(
            f"    {row['mode']:<12} "
            f"{row['seconds'] * 1000:>8.1f}ms  "
            f"speedup={row['speedup']:>5.2f}x"
        )
    summary = report["summary"]
    absolute = ", ".join(
        f"{mode} {ms:.2f}ms"
        for mode, ms in summary["kernel_ms_at_max_size"].items()
    )
    print(f"\nwarm times at {summary['kernel_max_trees']} trees: {absolute}")
    per_op = ", ".join(
        f"{name} {ns:.2f}"
        for name, ns in summary["kernel_op_ns_per_node_at_max_size"].items()
    )
    print(f"ns per node per IR op on one {summary['kernel_max_trees']}-tree "
          f"shard: {per_op}")
    print(
        f"median speedups at {summary['kernel_max_trees']} trees: "
        f"stacked shard "
        f"{summary['kernel_median_speedup_at_max_size']:.2f}x, "
        f"engine=auto "
        f"{summary['kernel_auto_median_speedup_at_max_size']:.2f}x "
        f"(gate: {summary['thresholds']['vectorized']:.1f}x on the "
        f"stacked shard — "
        f"{'pass' if summary['pass'] else 'FAIL'})"
    )


def _print_planner_report(report: Dict) -> None:
    print(f"adaptive planner benchmark (seed={report['seed']}, "
          f"quick={report['quick']})")
    print("\nengine=\"auto\" vs manual engine choices "
          "(est/act = estimated vs actual result rows):")
    current = None
    for row in report["planner"]["rows"]:
        if row["n"] != current:
            current = row["n"]
            print(f"  n={current}:")
        pick = "=" if row["picked_fastest"] else "!"
        print(
            f"    {row['kind']:<21} {row['chosen']:<9} "
            f"[{pick}{row['best_engine']}] "
            f"auto={row['auto_seconds'] * 1000:>7.3f}ms "
            f"x{row['auto_vs_best']:>4.2f} of best  "
            f"est/act={row['estimated_rows']}/{row['actual_rows']}"
            + (f"  replans={row['replans']}" if row["replans"] else "")
        )
    summary = report["summary"]
    print(
        f"\nat n={summary['planner_max_size']}: auto is "
        f"{summary['planner_median_speedup_at_max_size']:.1f}x the "
        f"reference (median), picked the fastest engine on "
        f"{summary['planner_pick_fraction']:.0%} of cells "
        f"(gate {summary['thresholds']['pick_fraction']:.0%}), median "
        f"overhead x{summary['planner_median_auto_vs_best_at_max_size']:.2f} "
        f"of the best manual choice "
        f"(gate x{summary['thresholds']['auto_vs_best']:.1f}, worst "
        f"x{summary['planner_worst_auto_vs_best_at_max_size']:.2f}), median "
        f"estimate q-error "
        f"{summary['planner_median_estimate_q_error']:.2f}, "
        f"{summary['planner_replans']} re-plans — "
        f"{'pass' if summary['pass'] else 'FAIL'}"
    )


def _print_corpus_report(report: Dict) -> None:
    print(f"corpus batch benchmark (seed={report['seed']}, "
          f"quick={report['quick']})")
    print(f"\n{len(report['corpus']['queries'])} queries per batch, "
          f"tree sizes cycling up to {report['corpus']['max_tree_size']} "
          "nodes; speedups are against the naive per-call loop:")
    current = None
    for row in report["corpus"]["rows"]:
        if row["n"] != current:
            current = row["n"]
            print(f"  {current} trees ({row['nodes']} nodes):")
        print(
            f"    {row['mode']:<12} "
            f"{row['seconds'] * 1000:>8.1f}ms  "
            f"speedup={row['speedup']:>5.2f}x"
        )
    summary = report["summary"]
    print(
        f"\nmedian speedups at {summary['corpus_max_trees']} trees: "
        f"4-worker batch "
        f"{summary['corpus_median_speedup_at_max_size']:.2f}x vs the "
        f"naive loop, warm serial "
        f"{summary['corpus_warm_median_speedup_at_max_size']:.2f}x vs "
        f"cold (gates: {summary['thresholds']['batch']:.1f}x / "
        f"{summary['thresholds']['warm']:.1f}x — "
        f"{'pass' if summary['pass'] else 'FAIL'})"
    )


def _print_walk_report(report: Dict) -> None:
    print(f"walking-engine benchmark (seed={report['seed']}, "
          f"quick={report['quick']})")
    print("\nCaterpillar walk relations (per-context reference vs "
          "one stacked BFS):")
    for row in report["caterpillar"]["rows"]:
        print(
            f"  n={row['n']:>4}  {row['expression']:<18} "
            f"ref={row['reference_seconds'] * 1000:>10.2f}ms  "
            f"eng={row['engine_seconds'] * 1000:>8.3f}ms  "
            f"speedup={row['speedup']:>6.1f}x"
        )
    print("\nGuard-free TWA runs (step interpreter vs memoised plan):")
    for row in report["twa"]["rows"]:
        print(
            f"  n={row['n']:>4}  {row['automaton']:<14} "
            f"steps={row['steps']:>5}  "
            f"ref={row['reference_seconds'] * 1000:>8.3f}ms  "
            f"eng={row['engine_seconds'] * 1000:>8.3f}ms  "
            f"speedup={row['speedup']:>6.1f}x"
        )
    summary = report["summary"]
    print(
        f"\nmedian speedups: caterpillar "
        f"{summary['caterpillar_median_speedup_at_max_size']:.1f}x "
        f"at n={summary['caterpillar_max_size']}, "
        f"TWA {summary['twa_median_speedup_at_max_size']:.1f}x "
        f"at n={summary['twa_max_size']} "
        f"(gates: {summary['thresholds']['caterpillar']:.0f}x / "
        f"{summary['thresholds']['twa']:.0f}x — "
        f"{'pass' if summary['pass'] else 'FAIL'})"
    )


def _percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by nearest-rank on sorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _serve_client_loop(
    address,
    client_id: int,
    tree_count: int,
    expected_rows,
    duration: float,
    faults_every: int,
    out: List[Dict],
) -> None:
    """One closed-loop client: query a sliding window, check the
    answers against the precomputed truth, think, repeat."""
    from .service import ServiceClient
    from .service.protocol import ServiceError

    latencies: List[float] = []
    requests = wrong = errors = degraded = 0
    window = min(SERVE_WINDOW, tree_count)
    span = max(1, tree_count - window)
    with ServiceClient(*address) as client:
        deadline = time.perf_counter() + duration
        i = 0
        while time.perf_counter() < deadline:
            start = (client_id * 7 + i * window) % span
            options = {"start": start, "stop": start + window}
            if faults_every and i % faults_every == 0:
                options["faults"] = {"0": {"at": 2, "kind": "error"}}
            began = time.perf_counter()
            try:
                response = client.query_with_retry(
                    [SERVE_QUERY], attempts=4, **options
                )
            except ServiceError:
                errors += 1
            else:
                latencies.append(time.perf_counter() - began)
                requests += 1
                degraded += response.get("degraded_chunks", 0)
                if response["results"] != expected_rows[start:start + window]:
                    wrong += 1
            i += 1
            time.sleep(SERVE_THINK_SECONDS)
    out.append(
        {
            "requests": requests,
            "errors": errors,
            "wrong": wrong,
            "degraded": degraded,
            "latencies": latencies,
        }
    )


def _serve_load_round(
    address,
    clients: int,
    tree_count: int,
    expected_rows,
    duration: float,
    faults_every: int = 0,
) -> Dict:
    """Drive ``clients`` concurrent closed-loop sessions; aggregate."""
    import threading

    results: List[Dict] = []
    threads = [
        threading.Thread(
            target=_serve_client_loop,
            args=(
                address, c, tree_count, expected_rows, duration,
                faults_every, results,
            ),
        )
        for c in range(clients)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    latencies = [lat for r in results for lat in r["latencies"]]
    requests = sum(r["requests"] for r in results)
    errors = sum(r["errors"] for r in results)
    total = requests + errors
    return {
        "clients": clients,
        "faulted": bool(faults_every),
        "requests": requests,
        "errors": errors,
        "error_rate": errors / total if total else 0.0,
        "wrong_answers": sum(r["wrong"] for r in results),
        "degraded_chunks": sum(r["degraded"] for r in results),
        "seconds": elapsed,
        "throughput_rps": requests / elapsed if elapsed else 0.0,
        "p50_ms": _percentile(latencies, 50) * 1000.0,
        "p99_ms": _percentile(latencies, 99) * 1000.0,
    }


def run_serve_suite(
    quick: bool = False, seed: int = 0, repeats: int = 1
) -> Dict:
    """The query-service sweep (``--suite serve``) as a JSON-ready dict.

    Closed-loop clients (think time :data:`SERVE_THINK_SECONDS`) at
    1/8/32 concurrency measure aggregate throughput and p50/p99
    latency, then a chaos round at 8 clients injects an engine fault
    into every :data:`SERVE_FAULT_EVERY`-th request — those chunks must
    degrade to the reference engine with the *correct* answers, and the
    fault-free sessions' p99 must stay within
    :data:`SERVE_FAULT_P99_THRESHOLD` of the calm round's.  Every
    response is checked against a precomputed truth table; a single
    wrong answer fails the suite, faults or none."""
    from .corpus import TreeCorpus
    from .service import AdmissionController, Dispatcher, QueryServer

    tree_count = SERVE_TREE_COUNT_QUICK if quick else SERVE_TREE_COUNT
    duration = SERVE_DURATION_QUICK if quick else SERVE_DURATION
    client_counts = SERVE_CLIENT_COUNTS[:2] if quick else SERVE_CLIENT_COUNTS
    errors: List[str] = []
    corpus = TreeCorpus.random(
        tree_count, max_size=SERVE_MAX_TREE_SIZE, seed=seed
    ).prepare()
    expected_rows = json.loads(json.dumps(corpus.run([SERVE_QUERY]).rows))
    dispatcher = Dispatcher(
        corpus,
        admission=AdmissionController(
            max_inflight=max(SERVE_CLIENT_COUNTS) + 8, quota_steps=None
        ),
        default_timeout_ms=10_000,
        allow_faults=True,
    )
    rows: List[Dict] = []
    fault_row: Optional[Dict] = None
    with QueryServer(dispatcher).start_in_thread() as server:
        for clients in client_counts:
            row = _guarded_case(
                errors, f"serve:{clients}",
                lambda clients=clients: _serve_load_round(
                    server.address, clients, tree_count, expected_rows,
                    duration,
                ),
            )
            if row is not None:
                rows.append(row)
        fault_row = _guarded_case(
            errors, "serve:faults",
            lambda: _serve_load_round(
                server.address, 8, tree_count, expected_rows, duration,
                faults_every=SERVE_FAULT_EVERY,
            ),
        )
        stats = dispatcher.handle({"op": "stats"}, dispatcher.open_session())
    corpus.close()
    by_clients = {row["clients"]: row for row in rows}
    throughput_1 = by_clients.get(1, {}).get("throughput_rps", 0.0)
    throughput_8 = by_clients.get(8, {}).get("throughput_rps", 0.0)
    scale = throughput_8 / throughput_1 if throughput_1 else 0.0
    calm_p99 = by_clients.get(8, {}).get("p99_ms", 0.0)
    fault_p99 = fault_row["p99_ms"] if fault_row else 0.0
    fault_p99_ratio = fault_p99 / calm_p99 if calm_p99 else 0.0
    wrong = sum(row["wrong_answers"] for row in rows) + (
        fault_row["wrong_answers"] if fault_row else 0
    )
    fault_error_rate = fault_row["error_rate"] if fault_row else 1.0
    fault_degraded = fault_row["degraded_chunks"] if fault_row else 0
    return {
        "schema": SERVE_SCHEMA,
        "generated_by": "python -m repro.bench --suite serve"
        + (" --quick" if quick else ""),
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "errors": errors,
        "serve": {
            "tree_count": tree_count,
            "window": min(SERVE_WINDOW, tree_count),
            "duration_seconds": duration,
            "think_seconds": SERVE_THINK_SECONDS,
            "query": {"kind": SERVE_QUERY.kind, "text": SERVE_QUERY.text},
            "fault_every": SERVE_FAULT_EVERY,
            "rows": rows,
            "fault_row": fault_row,
            "server_stats": {
                k: v for k, v in stats.items() if k != "ok"
            },
        },
        "summary": {
            "serve_throughput_rps_1": throughput_1,
            "serve_throughput_rps_8": throughput_8,
            # closed-loop scaling: how much of 8 clients' think/RTT
            # time one server overlaps (NOT CPU parallelism)
            "serve_scale_at_8_clients": scale,
            "serve_calm_p99_ms": calm_p99,
            "serve_fault_p99_ms": fault_p99,
            "serve_fault_p99_ratio": fault_p99_ratio,
            "serve_fault_error_rate": fault_error_rate,
            "serve_fault_degraded_chunks": fault_degraded,
            "serve_wrong_answers": wrong,
            "thresholds": {
                "scale": SERVE_SCALE_THRESHOLD,
                "fault_p99_ratio": SERVE_FAULT_P99_THRESHOLD,
            },
            # Wrong answers and chaos-round errors fail any sweep,
            # quick included; the scale and p99 gates bind full only.
            "pass": not errors
            and wrong == 0
            and fault_error_rate == 0.0
            and fault_degraded > 0
            and (
                quick
                or (
                    scale >= SERVE_SCALE_THRESHOLD
                    and 0.0 < fault_p99_ratio <= SERVE_FAULT_P99_THRESHOLD
                )
            ),
        },
    }


def _print_serve_report(report: Dict) -> None:
    print(f"query-service benchmark (seed={report['seed']}, "
          f"quick={report['quick']})")
    serve = report["serve"]
    print(
        f"\nclosed-loop clients over {serve['tree_count']} trees "
        f"(window {serve['window']}, think "
        f"{serve['think_seconds'] * 1000:.0f}ms, "
        f"{serve['duration_seconds']:.1f}s per round):"
    )
    for row in serve["rows"] + ([serve["fault_row"]] if serve["fault_row"] else []):
        chaos = " +faults" if row["faulted"] else ""
        print(
            f"  {row['clients']:>2} clients{chaos:<8} "
            f"{row['throughput_rps']:>7.1f} req/s  "
            f"p50={row['p50_ms']:>6.2f}ms  p99={row['p99_ms']:>7.2f}ms  "
            f"errors={row['errors']}  wrong={row['wrong_answers']}  "
            f"degraded={row['degraded_chunks']}"
        )
    summary = report["summary"]
    print(
        f"\nscale at 8 clients: x{summary['serve_scale_at_8_clients']:.2f} "
        f"(gate >= {summary['thresholds']['scale']:.1f}), chaos p99 "
        f"x{summary['serve_fault_p99_ratio']:.2f} of calm "
        f"(gate <= {summary['thresholds']['fault_p99_ratio']:.1f}), "
        f"chaos error rate {summary['serve_fault_error_rate']:.1%}, "
        f"{summary['serve_wrong_answers']} wrong answers — "
        f"{'pass' if summary['pass'] else 'FAIL'}"
    )


#: One cold window in a fresh process: open the store (sidecars on or
#: off), answer the fixed vectorized window, and report wall time, the
#: rows, and how many of the window's chunks ran from sidecar lanes —
#: all shared caches are necessarily empty because the process is new.
_COLDPATH_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from repro.corpus.store import CorpusStore
from repro.corpus.query import CorpusQuery

path, window = sys.argv[2], int(sys.argv[3])
sidecars = sys.argv[4] == "1"
queries = [CorpusQuery(k, t, ()) for k, t in json.loads(sys.argv[5])]

store = CorpusStore.open(path, readonly=True, sidecars=sidecars)
# Compile the query plans on a single-tree window first, identically
# in both modes: the timed region below then isolates the variable
# under test — how the window's indexes get into memory — not the
# (mode-independent, cached-per-process) query-to-IR compilation.
store.run(queries, stop=1, engine="vectorized")
t0 = time.perf_counter()
result = store.run(queries, stop=window, engine="vectorized")
seconds = time.perf_counter() - t0
lanes = sum(1 for chunk in result.chunks if chunk.source == "lanes")
store.close()
print(json.dumps({
    "seconds": seconds,
    "packed_lanes": lanes,
    "rows": result.rows,
}))
"""


def _coldpath_child(path: str, window: int, sidecars: bool) -> Dict:
    """Run one cold window in a child process; returns its
    ``{seconds, packed_lanes, rows}`` measurement."""
    import os
    import subprocess

    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))
    spec = json.dumps([[q.kind, q.text] for q in COLDPATH_QUERIES])
    result = subprocess.run(
        [
            sys.executable, "-c", _COLDPATH_CHILD,
            package_root, path, str(window),
            "1" if sidecars else "0", spec,
        ],
        capture_output=True, text=True, check=False,
    )
    if result.returncode != 0:  # pragma: no cover - child guard
        raise RuntimeError(
            f"coldpath child failed: {result.stderr.strip()[-500:]}"
        )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _coldpath_size_row(path: str, count: int, seed: int, runs: int) -> Dict:
    """One corpus size: child-process ingest, then the same cold window
    measured in fresh children with and without sidecars — every run's
    rows must agree with each other and with the naive per-call loop."""
    from .corpus import CorpusStore

    ingest = _ingest_store(path, count, seed, sizes=COLDPATH_TREE_SIZES)
    window = min(COLDPATH_WINDOW, count)
    store = CorpusStore.open(path, readonly=True)
    try:
        window_trees = [store.tree(i) for i in range(window)]
        expected = json.loads(json.dumps(
            _naive_corpus_rows(window_trees, COLDPATH_QUERIES)
        ))
    finally:
        store.close()
    sidecar_samples: List[float] = []
    rebuild_samples: List[float] = []
    packed_lanes = 0
    disagreements = 0
    for _ in range(max(runs, 3)):
        side = _coldpath_child(path, window, sidecars=True)
        plain = _coldpath_child(path, window, sidecars=False)
        sidecar_samples.append(side["seconds"])
        rebuild_samples.append(plain["seconds"])
        packed_lanes = max(packed_lanes, side["packed_lanes"])
        for sample in (side, plain):
            if sample["rows"] != expected:
                disagreements += 1
    if packed_lanes == 0:  # pragma: no cover - wiring guard
        raise AssertionError(
            f"packed lane path never engaged at {count} trees"
        )
    sidecar_s = statistics.median(sidecar_samples)
    rebuild_s = statistics.median(rebuild_samples)
    return {
        "n": count,
        "window": window,
        "ingest_seconds": ingest["seconds"],
        "cold_sidecar_seconds": sidecar_s,
        "cold_rebuild_seconds": rebuild_s,
        "packed_lanes": packed_lanes,
        "disagreements": disagreements,
        "speedup": rebuild_s / sidecar_s,
    }


def _coldpath_cache_row(path: str, count: int) -> Dict:
    """Replay distinct windows against a caching dispatcher: each
    window pays one miss through the full pipeline, then
    :data:`COLDPATH_CACHE_HITS` replays must answer from memory with
    byte-identical results."""
    from .corpus import CorpusStore
    from .service import Dispatcher

    window = min(COLDPATH_WINDOW, count)
    store = CorpusStore.open(path, readonly=True)
    try:
        dispatcher = Dispatcher(
            store, workers=0, result_cache=2 * COLDPATH_CACHE_WINDOWS
        )
        session = dispatcher.open_session()
        starts = [
            i * window
            for i in range(COLDPATH_CACHE_WINDOWS)
            if (i + 1) * window <= store.tree_count
        ]
        query_objects = [
            {"kind": q.kind, "text": q.text} for q in COLDPATH_QUERIES
        ]
        miss_ms: List[float] = []
        hit_ms: List[float] = []
        wrong = 0
        for start in starts:
            payload = {
                "op": "query",
                "queries": query_objects,
                "options": {
                    "start": start,
                    "stop": start + window,
                    "engine": "vectorized",
                },
            }
            t0 = time.perf_counter()
            first = dispatcher.handle(payload, session)
            miss_ms.append((time.perf_counter() - t0) * 1000.0)
            if not first.get("ok") or first.get("cached"):
                raise AssertionError(
                    f"first window [{start}, {start + window}) was not "
                    f"a clean miss: {first.get('error', first)!r}"
                )
            for _ in range(COLDPATH_CACHE_HITS):
                t0 = time.perf_counter()
                replay = dispatcher.handle(payload, session)
                hit_ms.append((time.perf_counter() - t0) * 1000.0)
                if (
                    not replay.get("ok")
                    or replay.get("cached") is not True
                    or replay["results"] != first["results"]
                ):
                    wrong += 1
        stats = dispatcher.handle({"op": "stats"}, session)
        cache_info = stats.get("result_cache", {})
    finally:
        store.close()
    miss_p50 = statistics.median(miss_ms)
    hit_p50 = statistics.median(hit_ms)
    return {
        "n": count,
        "window": window,
        "windows": len(starts),
        "hits_per_window": COLDPATH_CACHE_HITS,
        "miss_p50_ms": miss_p50,
        "hit_p50_ms": hit_p50,
        "wrong_answers": wrong,
        "cache_info": cache_info,
        "speedup": miss_p50 / hit_p50 if hit_p50 else 0.0,
    }


def run_coldpath_suite(
    quick: bool = False, seed: int = 0, repeats: int = 1
) -> Dict:
    """The zero-rebuild sweep (``--suite coldpath``) as a JSON-ready
    dict: cold sidecar windows vs rebuild-from-pickle windows in fresh
    child processes, plus the generation-keyed result cache replaying
    the same windows through the dispatcher.  Rows are checked against
    the naive per-call loop in both modes; a single disagreement or
    wrong cached answer fails the suite, quick included."""
    import shutil
    import tempfile

    tree_counts = (
        COLDPATH_TREE_COUNTS_QUICK if quick else COLDPATH_TREE_COUNTS
    )
    errors: List[str] = []
    rows: List[Dict] = []
    cache_rows: List[Dict] = []
    for count in tree_counts:
        tmp = tempfile.mkdtemp(prefix="repro-bench-coldpath-")
        try:
            path = f"{tmp}/store"
            row = _guarded_case(
                errors, f"coldpath:{count}",
                lambda count=count, path=path: _coldpath_size_row(
                    path, count, seed, repeats
                ),
            )
            if row is not None:
                rows.append(row)
                cache_row = _guarded_case(
                    errors, f"coldpath-cache:{count}",
                    lambda count=count, path=path: _coldpath_cache_row(
                        path, count
                    ),
                )
                if cache_row is not None:
                    cache_rows.append(cache_row)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    top = tree_counts[-1]
    by_count = {row["n"]: row for row in rows}
    cache_by_count = {row["n"]: row for row in cache_rows}
    sidecar_speedup = by_count.get(top, {}).get("speedup", 0.0)
    cache_speedup = cache_by_count.get(top, {}).get("speedup", 0.0)
    disagreements = sum(row["disagreements"] for row in rows)
    wrong = sum(row["wrong_answers"] for row in cache_rows)
    return {
        "schema": COLDPATH_SCHEMA,
        "generated_by": "python -m repro.bench --suite coldpath"
        + (" --quick" if quick else ""),
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "errors": errors,
        "coldpath": {
            "tree_counts": list(tree_counts),
            "window": COLDPATH_WINDOW,
            "queries": [
                {"kind": q.kind, "text": q.text} for q in COLDPATH_QUERIES
            ],
            "rows": rows,
            "cache_rows": cache_rows,
        },
        "summary": {
            "coldpath_max_trees": top,
            # cold sidecar window vs cold rebuild-from-pickle window
            "coldpath_sidecar_speedup_at_max_size": sidecar_speedup,
            # first uncached answer vs cached replay (both p50)
            "coldpath_cache_speedup_at_max_size": cache_speedup,
            "coldpath_disagreements": disagreements,
            "coldpath_wrong_answers": wrong,
            "thresholds": {
                "sidecar": COLDPATH_SIDECAR_THRESHOLD,
                "cache": COLDPATH_CACHE_THRESHOLD,
            },
            "errors": len(errors),
            # Correctness binds every sweep, quick included; the two
            # speedup gates bind only the full-size sweep.
            "pass": not errors
            and disagreements == 0
            and wrong == 0
            and (
                quick
                or (
                    sidecar_speedup >= COLDPATH_SIDECAR_THRESHOLD
                    and cache_speedup >= COLDPATH_CACHE_THRESHOLD
                )
            ),
        },
    }


def _print_coldpath_report(report: Dict) -> None:
    print(f"zero-rebuild cold-path benchmark (seed={report['seed']}, "
          f"quick={report['quick']})")
    cold = report["coldpath"]
    print(f"\ncold window of {cold['window']} trees, "
          f"{len(cold['queries'])} IR-eligible queries, fresh process "
          "per measurement:")
    for row in cold["rows"]:
        print(
            f"  {row['n']:>7} trees: sidecars "
            f"{row['cold_sidecar_seconds'] * 1000:>7.1f}ms, rebuild "
            f"{row['cold_rebuild_seconds'] * 1000:>7.1f}ms, speedup "
            f"{row['speedup']:>5.2f}x "
            f"({row['packed_lanes']} lane-served chunks, "
            f"{row['disagreements']} disagreements)"
        )
    print("\ncached window replay through the dispatcher:")
    for row in cold["cache_rows"]:
        print(
            f"  {row['n']:>7} trees: miss p50 "
            f"{row['miss_p50_ms']:>7.2f}ms, hit p50 "
            f"{row['hit_p50_ms']:>7.3f}ms, speedup "
            f"{row['speedup']:>6.1f}x over {row['windows']} windows "
            f"({row['wrong_answers']} wrong answers)"
        )
    summary = report["summary"]
    print(
        f"\nat {summary['coldpath_max_trees']} trees: sidecar cold path "
        f"{summary['coldpath_sidecar_speedup_at_max_size']:.2f}x "
        f"(gate >= {summary['thresholds']['sidecar']:.1f}), cached "
        f"replay {summary['coldpath_cache_speedup_at_max_size']:.1f}x "
        f"(gate >= {summary['thresholds']['cache']:.1f}), "
        f"{summary['coldpath_disagreements']} disagreements, "
        f"{summary['coldpath_wrong_answers']} wrong answers — "
        f"{'pass' if summary['pass'] else 'FAIL'}"
    )


def _gate_failure(key: str, value, op: str, bound) -> Optional[str]:
    """Why ``value`` fails one gate, or ``None`` when it passes."""
    if op == "==":
        return None if value == bound else (
            f"{key} = {value!r} (must be exactly {bound!r})"
        )
    if not isinstance(value, (int, float)):
        return f"{key} = {value!r} is not a number"
    if op == ">=":
        return None if value >= bound else (
            f"{key} = {value!r} is below the {bound}x floor"
        )
    if op == "<=":
        return None if value <= bound else (
            f"{key} = {value!r} exceeds the {bound}x ceiling"
        )
    return None if 0.0 < value <= bound else (
        f"{key} = {value!r} is outside (0, {bound}x]"
    )


def check_reports(paths: Sequence[Path]) -> List[str]:
    """Scan committed trajectories; return human-readable failures.

    Every report must carry zero per-case errors and clear every gate
    :data:`CHECK_GATES` lists for its schema — for most suites, every
    ``*_median_speedup_at_max_size`` entry must clear
    :data:`CHECK_FLOOR`, since a trajectory where the engine lost to
    the reference is a regression, full stop.
    """
    failures = []
    for path in paths:
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            failures.append(f"{path}: unreadable ({exc})")
            continue
        schema = str(report.get("schema", ""))
        gates = next(
            (gates for prefix, gates in CHECK_GATES.items()
             if schema.startswith(prefix)),
            None,
        )
        if gates is None:
            failures.append(f"{path}: unrecognised schema {schema!r}")
            continue
        summary = report.get("summary", {})
        errors = summary.get("errors", 0)
        if errors:
            failures.append(f"{path}: {errors} per-case errors recorded")
        full = not report.get("quick", False)
        for key, op, bound, full_only in gates:
            if full_only and not full:
                continue
            keys = [key]
            if key.startswith("*"):
                keys = sorted(k for k in summary if k.endswith(key[1:]))
                if not keys:
                    failures.append(f"{path}: summary has no median speedups")
                    break
            for name in keys:
                failure = _gate_failure(name, summary.get(name), op, bound)
                if failure is not None:
                    failures.append(f"{path}: {failure}")
    return failures


def _print_report(report: Dict) -> None:
    print(f"engine benchmark (seed={report['seed']}, "
          f"quick={report['quick']})")
    print("\nFO satisfying-assignment relations (reference vs engine):")
    for row in report["fo"]["rows"]:
        print(
            f"  n={row['n']:>4}  {row['formula']:<18} "
            f"ref={row['reference_seconds'] * 1000:>10.2f}ms  "
            f"eng={row['engine_seconds'] * 1000:>8.3f}ms  "
            f"speedup={row['speedup']:>8.1f}x"
        )
    print("\nXPath selections from the root (reference vs engine):")
    for row in report["xpath"]["rows"]:
        print(
            f"  n={row['n']:>4}  {row['expression']:<14} "
            f"ref={row['reference_seconds'] * 1000:>8.3f}ms  "
            f"eng={row['engine_seconds'] * 1000:>8.3f}ms  "
            f"speedup={row['speedup']:>6.1f}x"
        )
    summary = report["summary"]
    print(
        f"\nmedian speedups: FO {summary['fo_median_speedup_at_max_size']:.1f}x "
        f"at n={summary['fo_max_size']}, "
        f"XPath {summary['xpath_median_speedup_at_max_size']:.1f}x "
        f"at n={summary['xpath_max_size']} "
        f"(gates: {summary['thresholds']['fo']:.0f}x / "
        f"{summary['thresholds']['xpath']:.0f}x — "
        f"{'pass' if summary['pass'] else 'FAIL'})"
    )


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the indexed engines against the reference "
        "evaluators and write the trajectory to a JSON file.",
    )
    parser.add_argument(
        "--suite",
        choices=(
            "engine", "walk", "corpus", "planner", "kernel", "store",
            "serve", "coldpath",
        ),
        default="engine",
        help="engine: FO + XPath vs the indexed engines "
        "(BENCH_engine.json); walk: caterpillar + TWA vs the "
        "compiled walking engine (BENCH_walk.json); corpus: "
        "set-at-a-time batches vs the naive per-call loop "
        "(BENCH_corpus.json); planner: engine=auto vs the manual "
        "engine choices (BENCH_planner.json); kernel: the stacked "
        "shard executor vs warm per-tree batches (BENCH_kernel.json); "
        "store: disk-backed corpus ingest, fixed-window batches and "
        "incremental index repair (BENCH_store.json); serve: the "
        "concurrent query service under closed-loop load and injected "
        "faults (BENCH_serve.json); coldpath: cold sidecar windows vs "
        "rebuild-from-pickle plus the generation-keyed result cache "
        "(BENCH_coldpath.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sizes only (seconds, for smoke tests and CI)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=f"output JSON path (default: ./{DEFAULT_OUTPUT} or "
        f"./{WALK_DEFAULT_OUTPUT} per --suite)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timing repetitions per measurement (median; the "
        "sub-millisecond engine side always gets at least 3)",
    )
    parser.add_argument(
        "--check",
        nargs="*",
        metavar="JSON",
        default=None,
        help="instead of benchmarking, verify committed BENCH_*.json "
        "trajectories never report a median speedup below 1.0 "
        "and clear their suites' own gates "
        "(default: all BENCH_*.json in the current directory)",
    )
    opts = parser.parse_args(argv)
    if opts.check is not None:
        paths = [Path(p) for p in opts.check] or sorted(
            Path(".").glob("BENCH_*.json")
        )
        if not paths:
            print("bench-check: no BENCH_*.json files found")
            return 1
        failures = check_reports(paths)
        for line in failures:
            print(f"bench-check: {line}")
        if not failures:
            print(f"bench-check: {len(paths)} trajectories clear the "
                  f"{CHECK_FLOOR:.1f}x floor and their suites' gates")
        return 1 if failures else 0
    if opts.suite == "coldpath":
        report = run_coldpath_suite(
            quick=opts.quick, seed=opts.seed, repeats=opts.repeats
        )
        _print_coldpath_report(report)
        default_output = COLDPATH_DEFAULT_OUTPUT
    elif opts.suite == "serve":
        report = run_serve_suite(
            quick=opts.quick, seed=opts.seed, repeats=opts.repeats
        )
        _print_serve_report(report)
        default_output = SERVE_DEFAULT_OUTPUT
    elif opts.suite == "store":
        report = run_store_suite(
            quick=opts.quick, seed=opts.seed, repeats=opts.repeats
        )
        _print_store_report(report)
        default_output = STORE_DEFAULT_OUTPUT
    elif opts.suite == "kernel":
        report = run_kernel_suite(
            quick=opts.quick, seed=opts.seed, repeats=opts.repeats
        )
        _print_kernel_report(report)
        default_output = KERNEL_DEFAULT_OUTPUT
    elif opts.suite == "planner":
        report = run_planner_suite(
            quick=opts.quick, seed=opts.seed, repeats=opts.repeats
        )
        _print_planner_report(report)
        default_output = PLANNER_DEFAULT_OUTPUT
    elif opts.suite == "corpus":
        report = run_corpus_suite(
            quick=opts.quick, seed=opts.seed, repeats=opts.repeats
        )
        _print_corpus_report(report)
        default_output = CORPUS_DEFAULT_OUTPUT
    elif opts.suite == "walk":
        report = run_walk_benchmark(
            quick=opts.quick, seed=opts.seed, repeats=opts.repeats
        )
        _print_walk_report(report)
        default_output = WALK_DEFAULT_OUTPUT
    else:
        report = run_benchmark(
            quick=opts.quick, seed=opts.seed, repeats=opts.repeats
        )
        _print_report(report)
        default_output = DEFAULT_OUTPUT
    path = Path(opts.output if opts.output is not None else default_output)
    path.write_text(json.dumps(report, ensure_ascii=False, indent=2) + "\n")
    print(f"\nwrote {path}")
    return 0 if report["summary"]["pass"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
