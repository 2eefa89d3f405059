"""Generation-keyed window result caching for the query service.

A served corpus answers the same windows over and over — dashboards
refresh the same slice, clients page through stable ranges — and the
whole batch pipeline below the dispatcher is deterministic: one
``(corpus version, engine, window, queries)`` tuple has exactly one
response.  :class:`ResultCache` memoizes those responses in a bounded
thread-safe LRU.

The cache key leads with the **corpus token**
(:attr:`repro.corpus.CorpusStore.token`), which embeds the store's
manifest generation: every mutation — ``append``, ``replace``,
``compact``, ``recover`` — bumps the generation, changes the token,
and thereby orphans every cached window of the old corpus without the
cache ever being told.  Invalidation is by construction, not by
callback; a stale entry can never be *returned*, only evicted.

Entries are whole response dicts (the dispatcher's JSON-ready payload).
Hits are returned with ``"cached": True`` stamped on, so a client can
tell a replay from a fresh evaluation; fault-injected requests bypass
the cache entirely in both directions.

An entry never changes once stored, whatever its callers do with what
they are handed.  The cache copies every dict and list of a response
on the way in and on the way out, and shares everything else.  The
result rows — the bulk of a response — are the executor's
:class:`~repro.corpus.executor.ResultRows`, tuples of tuples of node
addresses and bools, so they are shared, not copied: no caller can
change them in place, and a hit's frame is written from cached
address texts like a fresh answer's.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from ..caching import KeyedLRU
from ..corpus.query import CorpusQuery

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded LRU of window responses; ``maxsize=0`` disables it."""

    __slots__ = ("_lru", "_hits", "_misses", "_lock")

    def __init__(self, maxsize: int = 128) -> None:
        self._lru = KeyedLRU(maxsize, name="window-results")
        # KeyedLRU's get/put are statistics-free by contract; the
        # hit/miss story the ``stats`` verb tells is counted here.
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    @staticmethod
    def key(
        token: str,
        engine: str,
        start: int,
        stop: int,
        queries: Sequence[CorpusQuery],
    ) -> Tuple:
        """The cache key for one window request.  ``stop`` must be the
        *effective* stop (clamped to the tree count), so ``stop=None``
        and ``stop=tree_count`` share an entry; the query fingerprint
        is the exact ``(kind, text, context)`` triple sequence."""
        return (
            token,
            engine,
            start,
            stop,
            tuple((q.kind, q.text, q.context) for q in queries),
        )

    def get(self, key: Tuple) -> Optional[dict]:
        hit = self._lru.get(key)
        with self._lock:
            if hit is None:
                self._misses += 1
            else:
                self._hits += 1
        # Copies on both sides of the cache: the caller's response stays
        # theirs to mutate, the stored one stays pristine.
        return None if hit is None else _thawed(hit)

    def put(self, key: Tuple, response: dict) -> None:
        self._lru.put(key, _thawed(response))

    def info(self) -> Dict[str, int]:
        """Hit/miss/occupancy counters for the ``stats`` verb."""
        stats = self._lru.cache_info()
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": stats.currsize,
                "maxsize": stats.maxsize,
            }

    def clear(self) -> None:
        self._lru.cache_clear()
        with self._lock:
            self._hits = 0
            self._misses = 0


def _thawed(value):
    """``value`` with every dict and list copied, everything else
    (tuples, strings, numbers) shared — the mutable part of a response
    is a few small dicts, its rows are immutable."""
    if isinstance(value, dict):
        return {key: _thawed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_thawed(item) for item in value]
    return value
