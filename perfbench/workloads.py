"""Seeded inputs of the benchmark and the answers it expects.

Everything here is a pure function of the workload seed: the corpus,
each workload's request sequence, and the expected answers, which are
computed with per-tree ``evaluate_cell(..., "fast")`` over the
benchmark's own copy of the trees (the tier-1 differential oracle pins
``fast`` to the reference engines).  Nothing in this module is timed.

The workload seed draws the documents (and, on ``edit``, the replaced
subtrees and the grafts).  The shape of each workload (which windows
and queries are asked, in which order, at which times) comes from a
fixed seed of its own and is the same for every workload seed: on this
store a request's cost depends on the requests before it (result cache,
segment cache, warm chunk state), and per-seed shapes moved lookup's
p90 by half and edit's read p50 by a sixth between seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.executor import evaluate_cell
from repro.corpus.query import CorpusQuery
from repro.trees import format_term, random_tree
from repro.trees.xmlio import to_xml

#: The store's default segment size.
SEGMENT = 2_048

LOOKUP_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("xpath", "//σ//δ"),
    ("xpath", "//δ[σ]/δ"),
    ("xpath", "/σ/*"),
    ("ask", "exists x exists y (x << y & O_σ(x) & O_δ(y))"),
    ("ask", "exists x (O_δ(x) & exists y (x < y & O_δ(y)))"),
    ("select", "x << y & O_δ(y)"),
    ("select", "O_σ(x) & x < y & O_σ(y)"),
    ("caterpillar", "(down | right)* <δ>"),
    ("caterpillar", "down <σ> down <δ>"),
)
#: Shapes in the lookup catalogue (also the seed of the lookup shape)
#: and the Zipf exponent of the draws over it: with the service's
#: 128-entry result cache this answers about a quarter of requests
#: from cache.
LOOKUP_CATALOGUE = 8_192
LOOKUP_ZIPF = 0.9
#: Open-loop arrival rate: at most a fifth of the closed-loop capacity
#: (240-320 req/s on one connection, 2-vCPU x86 VM, as the host's speed
#: drifts), far below the knee, where queueing would turn that drift into
#: large swings of the tail.
LOOKUP_RATE = 40.0

#: The scan pool: 15 IR-lowerable queries over all four dialects in
#: three strata of five.  Every batch takes one query per stratum, so
#: every round of five batches uses each query once.  The two short
#: absolute paths are the ones ``engine="auto"`` sends to the reference
#: engine; keeping them in one stratum fixes how many batches per round
#: leave the packed path (two of five).
SCAN_STRATA: Tuple[Tuple[Tuple[str, str], ...], ...] = (
    (
        ("xpath", "/σ/*"),
        ("xpath", "/δ/*"),
        ("xpath", "//σ//δ"),
        ("xpath", "//δ/σ"),
        ("xpath", "//σ[δ]"),
    ),
    (
        ("ask", "exists x exists y (x << y & O_σ(x) & O_δ(y))"),
        ("ask", "exists x (O_δ(x) & exists y (x < y & O_δ(y)))"),
        ("ask", "forall x (O_σ(x) | O_δ(x))"),
        ("select", "x << y & O_δ(y)"),
        ("select", "O_σ(x) & x < y & O_σ(y)"),
    ),
    (
        ("caterpillar", "(down | right)* <δ>"),
        ("caterpillar", "down <σ> down <δ>"),
        ("caterpillar", "(down <δ>)* <σ>"),
        ("caterpillar", "up* <σ>"),
        ("caterpillar", "right right <δ>"),
    ),
)
SCAN_QUERIES = tuple(q for stratum in SCAN_STRATA for q in stratum)
#: One window per size, each inside one segment of its own.
SCAN_WINDOW_SIZES = (256, 320, 384, 448, 512)
#: Seed of the scan windows and batches.
SCAN_SHAPE = 2_048

#: Edit read windows: each round of plain reads takes each width once.
EDIT_WIDTHS = (4, 8, 12, 16, 20, 24, 28, 32)
#: Rounds of plain reads after each write (a read costs milliseconds
#: next to a replace's seconds, and more reads steady the percentiles).
EDIT_ROUNDS = 5
#: Seed of the edit script's shape (the same for every workload seed).
EDIT_SHAPE = 4_096
EDIT_QUERIES: Tuple[Tuple[str, str], ...] = (
    ("xpath", "//σ//δ"),
    ("ask", "exists x exists y (x << y & O_σ(x) & O_δ(y))"),
    ("select", "x << y & O_δ(y)"),
    ("caterpillar", "(down | right)* <δ>"),
)


def make_corpus(seed: int, count: int) -> List:
    """Tree ``i`` is a seeded ``random_tree`` of ``24 + (i*13) % 41``
    nodes, the coldpath suite's document sizes."""
    return [
        random_tree(
            24 + (i * 13) % 41,
            value_pool=(1, 2, 3),
            max_children=3,
            seed=seed * 1_000_003 + i,
        )
        for i in range(count)
    ]


def xml_sizes(corpus: Sequence, digest: str, cache_dir: str) -> List[int]:
    """Each document's ``to_xml`` byte count, kept in ``cache_dir`` under
    the corpus's ``digest``: sizing a full corpus takes seconds, and
    every workload and run of one seed needs the same sizes."""
    path = os.path.join(cache_dir, f"xml-sizes-{digest}.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            sizes = json.load(handle)
        if len(sizes) == len(corpus):
            return sizes
    except (OSError, ValueError):
        pass
    sizes = [len(to_xml(tree).encode("utf-8")) for tree in corpus]
    os.makedirs(cache_dir, exist_ok=True)
    partial = f"{path}.{os.getpid()}"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(sizes, handle)
    os.replace(partial, path)
    return sizes


def xml_bytes(corpus: Sequence, sizes: Sequence[int], final: Sequence) -> int:
    """``to_xml`` bytes of ``final``, the corpus as a workload leaves it;
    documents it did not touch are the corpus's own objects."""
    return sum(
        sizes[i] if i < len(corpus) and tree is corpus[i]
        else len(to_xml(tree).encode("utf-8"))
        for i, tree in enumerate(final)
    )


def _query_dicts(pool, indices) -> List[Dict[str, str]]:
    return [{"kind": pool[i][0], "text": pool[i][1]} for i in indices]


@dataclass
class Request:
    """One wire request and where its expected answer comes from."""

    rid: int
    payload: dict
    #: ``(start, stop, query indices into pool)`` — the expected cells.
    start: int
    stop: int
    queries: Tuple[int, ...]
    due: float = 0.0  # seconds after the phase starts (open loop only)


@dataclass
class Workload:
    pool: Tuple[Tuple[str, str], ...]
    warmup: List[Request] = field(default_factory=list)
    phases: Dict[str, List[Request]] = field(default_factory=dict)
    #: Edit workload only: the operation script (see :func:`edit_ops`);
    #: its warm-up is a list of such operations too.
    ops: List[dict] = field(default_factory=list)

    def script(self) -> List:
        """Everything this workload sends, in order, as JSON-able data
        (the determinism self-test compares its digest)."""
        sent = [item.payload if isinstance(item, Request) else item
                for item in self.warmup]
        sent += [r.payload for phase in self.phases.values() for r in phase]
        sent += self.ops
        return [
            {k: (format_term(v) if k == "tree" else v)
             for k, v in item.items() if k != "expected"}
            for item in sent
        ]


def _request(rid, pool, start, stop, queries, engine=None, due=0.0):
    options = {"start": start, "stop": stop}
    if engine is not None:
        options["engine"] = engine
    payload = {
        "op": "query",
        "queries": _query_dicts(pool, queries),
        "options": options,
        "rid": rid,
    }
    return Request(rid, payload, start, stop, tuple(queries), due)


def lookup_workload(trees: int, seconds: float) -> Workload:
    """Open-loop Poisson arrivals over a Zipf-skewed shape catalogue,
    then a closed-loop capacity phase continuing the same stream."""
    pool = LOOKUP_QUERIES
    shapes = random.Random(LOOKUP_CATALOGUE)
    catalogue = []
    for _ in range(LOOKUP_CATALOGUE):
        width = shapes.randint(1, 8)
        start = shapes.randrange(0, max(1, trees - 8))
        picked = shapes.sample(range(len(pool)), shapes.randint(1, 3))
        catalogue.append((start, min(trees, start + width), tuple(picked)))
    weights = list(accumulate(
        1.0 / (rank + 1) ** LOOKUP_ZIPF for rank in range(len(catalogue))
    ))
    open_count = max(20, round(LOOKUP_RATE * 0.9 * seconds))
    capacity_count = max(20, round(150 * seconds))
    draws = shapes.choices(
        range(len(catalogue)), cum_weights=weights,
        k=open_count + capacity_count,
    )
    due = 0.0
    requests = []
    for rid, draw in enumerate(draws):
        start, stop, picked = catalogue[draw]
        if rid < open_count:
            due += shapes.expovariate(LOOKUP_RATE)
        requests.append(_request(rid, pool, start, stop, picked, due=due))
    # Warm-up: every query over one 9-tree window per segment (wider than
    # any catalogue window, so the result cache answers none of them
    # later), so the timed phases start with every segment opened once.
    warmup = [
        _request(-1 - i, pool, base, min(trees, base + 9), range(len(pool)))
        for i, base in enumerate(range(0, trees, SEGMENT))
    ]
    return Workload(
        pool, warmup,
        {"open": requests[:open_count], "capacity": requests[open_count:]},
    )


def scan_windows(rng: random.Random, trees: int) -> List[Tuple[int, int]]:
    """Segment-aligned windows: each in a segment of its own, starting
    on a multiple of 64 trees and never crossing a segment boundary."""
    segments = max(1, trees // SEGMENT)
    chosen = rng.sample(range(segments), min(segments, len(SCAN_WINDOW_SIZES)))
    windows = []
    for segment, size in zip(chosen, SCAN_WINDOW_SIZES):
        base = segment * SEGMENT
        size = min(size, trees - base)
        offset = rng.randrange(0, SEGMENT - size + 1, 64) if size < SEGMENT else 0
        offset = min(offset, max(0, trees - base - size))
        windows.append((base + offset, base + offset + size))
    return windows


def scan_workload(trees: int, seconds: float) -> Workload:
    """Rounds of five 3-query batches over five windows, one query per
    stratum per batch; no (window, batch) repeats, so the result cache
    never answers."""
    rng = random.Random(SCAN_SHAPE)
    pool = SCAN_QUERIES
    windows = scan_windows(rng, trees)
    width = len(SCAN_STRATA[0])
    offsets = [0, width, 2 * width]
    used = set()

    def one_round():
        for _ in range(100):
            columns = [rng.sample(range(width), width) for _ in SCAN_STRATA]
            batches = []
            for b in range(width):
                batch = [offsets[s] + columns[s][b] for s in range(3)]
                rng.shuffle(batch)
                batches.append(tuple(batch))
            order = rng.sample(range(len(windows)), len(windows))
            keys = [(windows[order[b % len(order)]], batches[b])
                    for b in range(width)]
            if not used.intersection(keys):
                used.update(keys)
                return keys
        raise RuntimeError("could not draw a fresh scan round")

    # Warm-up touches every window twice: once on "fast" (trees and
    # indexes warm) and once on "vectorized" (packed lanes warm).
    warmup = []
    for engine in ("fast", "vectorized"):
        for window, batch in one_round():
            warmup.append(_request(-1 - len(warmup), pool, window[0],
                                   window[1], batch, engine=engine))
    rounds = max(1, round(seconds * 4.0))
    requests = []
    for _ in range(rounds):
        for window, batch in one_round():
            requests.append(_request(len(requests), pool, window[0],
                                     window[1], batch, engine="auto"))
    return Workload(pool, warmup, {"closed": requests})


def edit_ops(seed: int, corpus: List, seconds: float) -> Tuple[List[dict], List]:
    """The edit script and the model corpus after it.

    Writes are single-subtree ``replace`` edits and appends in a fixed
    3:1 ratio, each followed by a read-your-writes window read over the
    written tree and ``EDIT_ROUNDS`` rounds of eight plain window reads
    of 4..32 trees, each read of a round in a different segment.
    Replaces visit full segments one per segment, so every one rewrites
    a segment the writer has not touched yet.  Each read carries its
    expected rows, taken from the model at that point of the script.

    The script's shape — which positions are written and read, in which
    order, with which queries — is the same for every seed, because the
    store's segment cache makes a read's cost depend on the segments
    read before it; the seed draws the trees, the replaced subtrees and
    the grafts."""
    shape = random.Random(EDIT_SHAPE)
    rng = random.Random(seed * 7 + 4)
    model = list(corpus)
    writes = max(2, round(0.8 * seconds))
    appends = writes // 4
    kinds = ["replace"] * (writes - appends) + ["append"] * appends
    shape.shuffle(kinds)
    segments = shape.sample(range(max(1, len(model) // SEGMENT)),
                            max(1, len(model) // SEGMENT))
    ops: List[dict] = []
    replaced = 0
    # Query pairs cycle through all six pairs, and each round of plain
    # reads takes every width once.
    pairs = list(combinations(range(len(EDIT_QUERIES)), 2))
    pair_cycle: List[Tuple[int, int]] = []

    def read(start, stop, tag):
        if not pair_cycle:
            pair_cycle.extend(shape.sample(pairs, len(pairs)))
        picked = pair_cycle.pop()
        queries = [CorpusQuery(*EDIT_QUERIES[i]) for i in picked]
        rows = [
            [canonical(evaluate_cell(q, model[p], "fast")) for q in queries]
            for p in range(start, stop)
        ]
        ops.append({"op": "read", "tag": tag, "start": start, "stop": stop,
                    "queries": [EDIT_QUERIES[i] for i in picked],
                    "expected": rows})

    for serial, kind in enumerate(kinds):
        if kind == "replace":
            segment = segments[replaced % len(segments)]
            replaced += 1
            position = segment * SEGMENT + shape.randrange(
                min(SEGMENT, len(model) - segment * SEGMENT))
            old = model[position]
            inner = [node for node in old.nodes if node != ()]
            site = rng.choice(inner)
            graft = random_tree(rng.randint(3, 8), value_pool=(1, 2, 3),
                                max_children=3,
                                seed=seed * 1_000_003 + 950_000 + serial)
            tree = old.replace_subtree(site, graft)
            model[position] = tree
            ops.append({"op": "replace", "position": position,
                        "site": site, "tree": tree})
        else:
            position = len(model)
            tree = random_tree(24 + serial % 41, value_pool=(1, 2, 3),
                               max_children=3,
                               seed=seed * 1_000_003 + 980_000 + serial)
            model.append(tree)
            ops.append({"op": "append", "position": position, "tree": tree})
        width = EDIT_WIDTHS[serial % len(EDIT_WIDTHS)]
        start = max(0, min(position - shape.randrange(width), len(model) - width))
        read(start, start + width, "ryw")
        # Every plain read is a window not read since the write, so its
        # trees and indexes are cold; the first round also first-touches
        # each of its segments since the write.
        segment_count = -(-len(model) // SEGMENT)
        for _ in range(EDIT_ROUNDS):
            targets = shape.sample(range(segment_count), min(8, segment_count))
            widths = shape.sample(EDIT_WIDTHS, len(EDIT_WIDTHS))
            for segment, width in zip(targets, widths):
                base = segment * SEGMENT
                span = min(SEGMENT, len(model) - base)
                width = min(width, span)
                start = base + shape.randrange(0, span - width + 1)
                read(start, start + width, "plain")
    return ops, model


def edit_warmup() -> List[dict]:
    """One read of every edit query over the first tree (compiles plans)."""
    return [{"op": "read", "tag": "warmup", "start": 0, "stop": 1,
             "queries": list(EDIT_QUERIES), "expected": None}]


def canonical(cell):
    """A cell as it reads after a JSON round trip (tuples → lists)."""
    if isinstance(cell, bool):
        return cell
    return json.loads(json.dumps(cell))


class Expected:
    """Expected result rows for windows over one pool of queries,
    computed tree-outer (one index build per tree) and memoised per
    (tree, query) cell."""

    def __init__(self, trees: Sequence, pool) -> None:
        self._trees = trees
        self._pool = [CorpusQuery(kind, text) for kind, text in pool]
        self._cells: Dict[Tuple[int, int], object] = {}

    def prepare(self, requests: Sequence[Request]) -> None:
        needed: Dict[int, set] = {}
        for request in requests:
            for position in range(request.start, request.stop):
                needed.setdefault(position, set()).update(request.queries)
        for position in sorted(needed):
            tree = self._trees[position]
            for query in sorted(needed[position]):
                if (position, query) not in self._cells:
                    self._cells[(position, query)] = canonical(
                        evaluate_cell(self._pool[query], tree, "fast")
                    )

    def release_trees(self) -> None:
        """Drop the corpus once every needed cell is computed."""
        self._trees = None

    def rows(self, request: Request) -> List[list]:
        return [
            [self._cells[(position, query)] for query in request.queries]
            for position in range(request.start, request.stop)
        ]

    def flip_one(self) -> Optional[Tuple[int, int]]:
        """Corrupt one expected cell (the answer-check self-test)."""
        for key, cell in sorted(self._cells.items()):
            self._cells[key] = (not cell) if isinstance(cell, bool) else (
                cell[1:] if cell else [[0]]
            )
            return key
        return None
