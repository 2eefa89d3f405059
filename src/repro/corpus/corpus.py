"""``TreeCorpus`` — many indexed trees, queried set-at-a-time.

The corpus is the "fixed query, many instances" reading of the paper's
complexity results made operational: the expensive per-tree work
(validation, :class:`~repro.engine.index.TreeIndex` construction) is
done once at :meth:`prepare` time, and every batch after that pays only
per-query evaluation.  Plans are shared process-wide, so a query text
compiles once no matter how many batches mention it.

A corpus also owns its worker pools.  ``run(queries, workers=4)``
lazily creates (and then reuses) a 4-worker pool, so worker processes
keep their plan and index caches warm across successive batches — the
"warm" rows of ``BENCH_corpus.json``.  Close the corpus (or use it as
a context manager) to shut the pools down.
"""

from __future__ import annotations

import itertools
import os
import random
from typing import Iterable, Optional, Sequence, Tuple

from ..engine.index import TreeIndex, index_for
from ..engine.stats import CorpusStatistics, corpus_statistics
from ..trees.generators import random_tree
from ..trees.parser import parse_term
from ..trees.tree import Tree
from .executor import BatchResult, WorkerPools, _chunk_bounds, run_batch
from .query import CorpusQuery

__all__ = ["TreeCorpus"]

#: Distinguishes corpora within (and across) processes, so a worker's
#: warm per-chunk state is never mistaken for another corpus's.
_TOKENS = itertools.count()


class TreeCorpus:
    """An immutable collection of trees with pinned indexes and
    persistent worker pools."""

    def __init__(self, trees: Iterable[Tree]):
        self._trees: Tuple[Tree, ...] = tuple(trees)
        self._indexes: Optional[Tuple[TreeIndex, ...]] = None
        self._stats: Optional[CorpusStatistics] = None
        self.pools = WorkerPools()
        self._token = f"corpus-{os.getpid()}-{next(_TOKENS)}"

    # -- construction -------------------------------------------------

    @classmethod
    def from_terms(cls, texts: Iterable[str]) -> "TreeCorpus":
        """Parse each term text (``σ(δ, σ(δ))`` syntax) into a tree."""
        return cls(parse_term(text) for text in texts)

    @classmethod
    def random(
        cls,
        count: int,
        max_size: int = 32,
        seed: int = 0,
        alphabet: Sequence[str] = ("σ", "δ"),
        max_children: int = 4,
    ) -> "TreeCorpus":
        """``count`` random trees with sizes cycling up to ``max_size``,
        deterministically derived from ``seed``."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        rng = random.Random(seed)
        trees = [
            random_tree(
                size=1 + (i * 7) % max_size,
                alphabet=alphabet,
                max_children=max_children,
                seed=rng,
            )
            for i in range(count)
        ]
        return cls(trees)

    # -- inspection ---------------------------------------------------

    @property
    def trees(self) -> Tuple[Tree, ...]:
        return self._trees

    @property
    def token(self) -> str:
        """This corpus's warm-state/cache key: unique per instance
        and — the corpus being immutable — valid for its whole life."""
        return self._token

    def __len__(self) -> int:
        return len(self._trees)

    def __getitem__(self, position: int) -> Tree:
        return self._trees[position]

    def __iter__(self):
        return iter(self._trees)

    def total_nodes(self) -> int:
        return sum(tree.size for tree in self._trees)

    def statistics(self) -> CorpusStatistics:
        """Aggregate statistics over the corpus (computed once — the
        tree sequence is immutable, so the fingerprint is stable)."""
        if self._stats is None:
            self._stats = corpus_statistics(self._trees)
        return self._stats

    def __repr__(self) -> str:
        state = "prepared" if self._indexes is not None else "unprepared"
        return (
            f"TreeCorpus({len(self._trees)} trees, "
            f"{self.total_nodes()} nodes, {state})"
        )

    # -- indexing -----------------------------------------------------

    def prepare(self) -> "TreeCorpus":
        """Build and pin every tree's index now (idempotent).

        Pinning keeps a strong reference per tree, so batch runs can
        re-seat each index into the global LRU as they reach its tree
        instead of rebuilding — the corpus is immune to cache-capacity
        thrash however many trees it holds.
        """
        if self._indexes is None:
            self._indexes = tuple(index_for(tree) for tree in self._trees)
        return self

    # -- execution ----------------------------------------------------

    def run(
        self,
        queries: Sequence[CorpusQuery],
        workers: int = 0,
        chunk_size: Optional[int] = None,
        engine: str = "fast",
        budget_steps: Optional[int] = None,
        faults=None,
        start: int = 0,
        stop: Optional[int] = None,
        budget_seconds: Optional[float] = None,
        on_exhausted: str = "degrade",
        route: int = 0,
        worker_retries: int = 0,
        retry_backoff: float = 0.05,
    ) -> BatchResult:
        """Evaluate a query batch over trees ``[start, stop)`` of the
        corpus (default: all of it).

        Serial runs reuse the pinned indexes directly; worker runs
        reuse this corpus's persistent routed pools for ``workers``,
        creating them on first use — so each chunk revisits a worker
        that already holds its trees and indexes warm.  The service
        knobs (``budget_seconds``, ``on_exhausted``, ``route``,
        ``worker_retries``) pass straight through to
        :func:`~repro.corpus.executor.run_batch`; a worker that dies is
        healed in place, so this corpus's later batches route to a live
        replacement.
        """
        self.prepare()
        count = len(self._trees)
        stop = count if stop is None else min(stop, count)
        if start < 0 or start > stop:
            raise ValueError(f"bad tree range [{start}, {stop})")
        # Window bounds stay corpus-global: warm-state keys are
        # (token, start, stop) and must never alias across windows.
        return run_batch(
            self._trees,
            queries,
            workers=workers,
            chunk_size=chunk_size,
            engine=engine,
            budget_steps=budget_steps,
            faults=faults,
            pool=self.pools,
            indexes=self._indexes,
            token=self._token,
            stats=self.statistics() if engine == "auto" else None,
            bounds=_chunk_bounds(start, stop, chunk_size, workers),
            budget_seconds=budget_seconds,
            on_exhausted=on_exhausted,
            route=route,
            worker_retries=worker_retries,
            retry_backoff=retry_backoff,
        )

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Shut down every pool this corpus created."""
        self.pools.close()

    def __enter__(self) -> "TreeCorpus":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
