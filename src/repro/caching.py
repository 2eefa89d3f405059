"""``KeyedLRU`` — the one bounded LRU cache the repo actually needs.

Before this module, the repository carried several near-identical
hand-rolled LRUs: the :class:`~repro.queries.facade.TreeDatabase`
parsed-XPath and parsed-caterpillar caches (an ``OrderedDict`` plus
three counters each), the walking engine's compile cache
(:mod:`repro.engine.walk`), its bound-evaluator cache, and the
per-tree index cache (:mod:`repro.engine.index`).  Each copy re-derived
the same discipline — probe, ``move_to_end`` on hit, compute, evict
from the cold end, insert — with slightly different statistics
plumbing.  ``KeyedLRU`` is that discipline written once.

Contract points the callers rely on (and the tests pin):

* ``cache_info()`` returns the :func:`functools.lru_cache`-shaped
  ``CacheInfo(hits, misses, maxsize, currsize)`` namedtuple, so it
  compares equal to plain 4-tuples.
* The factory runs **before** the statistics move: a factory that
  raises (e.g. a syntax error in a parse cache) leaves the cache —
  slots *and* counters — exactly as it was.
* ``maxsize=0`` disables storage but still counts every probe as a
  miss; negative sizes are rejected at construction.
* The mapping protocol (``in``, ``iter``, ``len``) is exposed read-only
  so tests can assert on residency and eviction order; ``iter`` walks a
  snapshot of the keys, so a caller may :meth:`~KeyedLRU.pop` while
  iterating.
* Every cache operation holds an internal :class:`threading.RLock`:
  the query service shares the process-wide plan/index caches across
  concurrent sessions, and an unlocked ``move_to_end`` racing an
  eviction corrupts the ``OrderedDict``.  The factory of
  :meth:`~KeyedLRU.get_or_compute` runs *outside* the lock — two
  threads may both compute a missed key (one result wins the slot),
  but a slow compile can never block every other cache user.
* A forked child gets fresh, unheld locks: worker pools fork while
  session threads use the caches, and a lock the parent's other
  thread held at fork time would never be released in the child.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict, namedtuple
from typing import Callable, Generic, Hashable, Iterator, Optional, TypeVar

__all__ = ["CacheInfo", "KeyedLRU"]

#: Statistics shape shared by every cache in the repo, mirroring
#: :func:`functools.lru_cache` (a namedtuple, so it equals plain tuples).
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class KeyedLRU(Generic[K, V]):
    """A bounded least-recently-used mapping with hit/miss statistics.

    ``maxsize`` bounds residency; ``0`` disables storage entirely (every
    probe computes, every probe counts as a miss).  ``name`` only labels
    the ``repr`` — useful when several process-wide caches show up in a
    debugger at once.
    """

    __slots__ = (
        "_data", "_maxsize", "_hits", "_misses", "_name", "_lock",
        "__weakref__",
    )

    def __init__(self, maxsize: int, name: str = "") -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._maxsize = maxsize
        self._hits = 0
        self._misses = 0
        self._name = name
        self._lock = threading.RLock()
        _CACHES.add(self)

    # -- the main path ---------------------------------------------------------

    def get_or_compute(self, key: K, factory: Callable[[], V]) -> V:
        """The cached value for ``key``, computing it via ``factory`` on
        a miss.

        The factory runs before any statistics change, so a raising
        factory (a parse error, a failed compile) leaves the cache
        untouched — no poisoned slot, no phantom miss."""
        data = self._data
        with self._lock:
            if key in data:
                self._hits += 1
                data.move_to_end(key)
                return data[key]
        # Compute outside the lock: a slow factory must not stall every
        # other session's cache traffic.  Losing the race just means two
        # equal values were computed; the later insert wins the slot.
        value = factory()
        with self._lock:
            self._misses += 1
            if self._maxsize:
                while len(data) >= self._maxsize:
                    data.popitem(last=False)
                data[key] = value
        return value

    # -- statistics-free access (identity-validated caches) --------------------

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Peek without touching statistics; refreshes recency on a hit.

        For caches keyed by object identity (``id(...)``) the caller
        must validate the hit itself — a stale entry for a recycled id
        is the caller's to reject and overwrite via :meth:`put`."""
        data = self._data
        with self._lock:
            if key in data:
                data.move_to_end(key)
                return data[key]
            return default

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) an entry without touching statistics,
        evicting from the cold end as needed."""
        if not self._maxsize:
            return
        data = self._data
        with self._lock:
            if key in data:
                data.move_to_end(key)
                data[key] = value
                return
            while len(data) >= self._maxsize:
                data.popitem(last=False)
            data[key] = value

    def pop(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Remove ``key``'s entry, if any, without touching statistics;
        returns its value (``default`` when absent)."""
        with self._lock:
            return self._data.pop(key, default)

    # -- statistics ------------------------------------------------------------

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def cache_info(self) -> CacheInfo:
        """``(hits, misses, maxsize, currsize)``, lru_cache-shaped."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                maxsize=self._maxsize,
                currsize=len(self._data),
            )

    def cache_clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    # -- read-only mapping protocol (tests assert on residency) ----------------

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[K]:
        # A snapshot: another thread's insert or eviction cannot break
        # an iteration in progress.
        with self._lock:
            return iter(list(self._data))

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        info = self.cache_info()
        return (
            f"<KeyedLRU{label} {info.currsize}/{info.maxsize} entries, "
            f"{info.hits} hits, {info.misses} misses>"
        )


#: Every live cache, so a forked child can give each a fresh lock.
_CACHES: "weakref.WeakSet[KeyedLRU]" = weakref.WeakSet()


def _fresh_locks() -> None:
    for cache in list(_CACHES):
        cache._lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_locks)
