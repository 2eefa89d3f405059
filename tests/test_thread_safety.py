"""Concurrent-hammer regressions for the shared mutable state the
query service leans on: :class:`repro.caching.KeyedLRU` (plan and
index caches shared across session threads),
:class:`repro.resilience.log.ResilienceLog` (one log, many recorders)
and the corpus executor's worker caches (chunks warmed in-process by
many dispatch threads).

Each hammer drives many threads through the full API mix and then
checks *invariants*, not schedules: returned values are always correct
for their key, caches never exceed their bound, counters add up
exactly, and every mid-flight snapshot is internally consistent."""

import os
import sys
import threading

import pytest

from repro.caching import KeyedLRU
from repro.corpus import CorpusStore, executor
from repro.resilience.log import ResilienceLog
from repro.trees import parse_term

THREADS = 8
ROUNDS = 400


def _run_threads(target, count=THREADS):
    errors = []

    def wrapped(worker_id):
        try:
            target(worker_id)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestKeyedLRUHammer:
    def test_mixed_traffic_never_corrupts_the_cache(self):
        cache = KeyedLRU(maxsize=16, name="hammer")
        stop_clearing = threading.Event()

        def value_for(key):
            return ("value", key)

        def hammer(worker_id):
            for i in range(ROUNDS):
                key = (worker_id * 7 + i) % 40
                got = cache.get_or_compute(key, lambda k=key: value_for(k))
                # The factory races outside the lock by design; whoever
                # wins, the value handed back must belong to OUR key.
                assert got == value_for(key)
                peeked = cache.get(key)
                assert peeked is None or peeked == value_for(key)
                cache.put((worker_id, "private"), i)
                assert len(cache) <= 16
                if i % 50 == 0:
                    cache.cache_info()

        def clearer():
            while not stop_clearing.is_set():
                cache.cache_clear()
                stop_clearing.wait(0.002)

        clear_thread = threading.Thread(target=clearer)
        clear_thread.start()
        try:
            _run_threads(hammer)
        finally:
            stop_clearing.set()
            clear_thread.join(timeout=10)
        info = cache.cache_info()
        # cache_clear() resets statistics, so only the tail since the
        # last clear is visible — but it is never torn or negative.
        assert info.hits >= 0 and info.misses >= 0
        assert info.currsize == len(cache) <= 16

    def test_single_key_stampede_yields_one_coherent_value(self):
        cache = KeyedLRU(maxsize=4, name="stampede")
        barrier = threading.Barrier(THREADS)
        seen = []
        lock = threading.Lock()

        def hammer(worker_id):
            barrier.wait(timeout=30)
            value = cache.get_or_compute("hot", lambda: ("hot", "plan"))
            with lock:
                seen.append(value)

        _run_threads(hammer)
        # Several threads may have computed the miss concurrently (the
        # documented race), but everyone must still hold a correct value
        # and the cache exactly one coherent entry for the key.
        assert seen == [("hot", "plan")] * THREADS
        assert cache.get("hot") == ("hot", "plan")
        # Every call bumped exactly one of hits/misses — no lost or
        # double-counted probes.
        info = cache.cache_info()
        assert info.hits + info.misses == THREADS


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_gets_an_unheld_lock(self):
        """Worker pools fork while session threads use the caches; a
        child must not inherit a lock another thread holds."""
        cache = KeyedLRU(maxsize=4, name="fork")
        held, release = threading.Event(), threading.Event()

        def holder():
            with cache._lock:  # a session thread mid-operation
                held.set()
                release.wait(30)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert held.wait(30)
            pid = os.fork()
            if pid == 0:  # the child: the holder thread is not here
                os._exit(0 if cache._lock.acquire(timeout=5) else 1)
        finally:
            release.set()
            thread.join(timeout=30)
        _, status = os.waitpid(pid, 0)
        assert not thread.is_alive()
        assert os.waitstatus_to_exitcode(status) == 0


class TestResilienceLogHammer:
    def test_counters_add_up_exactly_under_contention(self):
        log = ResilienceLog()
        operations = ("xpath", "ask", "select")
        per_thread = 120
        stop_reading = threading.Event()
        torn_snapshots = []

        def hammer(worker_id):
            operation = operations[worker_id % len(operations)]
            for i in range(per_thread):
                log.record_fast_success(operation)
                log.record_fallback(
                    operation, ValueError(f"boom {i}"), fallback_seconds=1.0
                )
                log.record_failure(operation, RuntimeError(f"dead {i}"))

        def reader():
            while not stop_reading.is_set():
                snap = log.snapshot()
                # A half-applied record would break this identity.
                if snap["calls"] != (
                    snap["fast_successes"]
                    + snap["fallbacks"]
                    + snap["failures"]
                ):
                    torn_snapshots.append(snap)

        read_thread = threading.Thread(target=reader)
        read_thread.start()
        try:
            _run_threads(hammer)
        finally:
            stop_reading.set()
            read_thread.join(timeout=10)
        assert torn_snapshots == []
        snap = log.snapshot()
        total = THREADS * per_thread
        assert snap["calls"] == total * 3
        assert snap["fast_successes"] == total
        assert snap["fallbacks"] == total
        assert snap["failures"] == total
        # 1.0 per fallback sums exactly in floating point.
        assert snap["fallback_seconds"] == float(total)
        assert sum(
            stats["calls"] for stats in snap["per_operation"].values()
        ) == total * 3
        assert snap["last_error"].startswith(("RuntimeError", "ValueError"))

    def test_clear_races_with_recording_without_corruption(self):
        log = ResilienceLog()

        def hammer(worker_id):
            for i in range(200):
                log.record_fast_success("op")
                if worker_id == 0 and i % 20 == 0:
                    log.clear()
                snap = log.snapshot()
                assert snap["calls"] == snap["fast_successes"]

        _run_threads(hammer)


class TestWorkerCacheHammer:
    def test_concurrent_chunk_warming_loses_no_window(self):
        """Server dispatch threads warm chunks into one process's
        ``_WORKER_CHUNKS`` at once: no thread may trip over another's
        insert, and no window may be lost."""
        tree = parse_term("σ(δ, σ(δ))")
        token = "hammer-token"
        windows = 3_000
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def hammer(worker_id):
            for i in range(windows):
                start = worker_id * windows + i
                trees, indexes = executor._warm_chunk(
                    token, start, start + 1, (tree,)
                )
                assert trees == (tree,) and len(indexes) == 1

        try:
            _run_threads(hammer, count=4)
            tokens = set(executor._WORKER_CHUNKS)
            keys = set(executor._WORKER_CHUNKS[token])
        finally:
            sys.setswitchinterval(saved)
            executor._WORKER_CHUNKS.clear()
        assert tokens == {token}
        assert keys == {(start, start + 1) for start in range(4 * windows)}


class TestShardLoadsPastTheCacheBound:
    """A store with more segments (and sidecars) than the worker caches
    hold: dispatch threads loading shards evict each other's entries
    all the time, and an evicted file must stay readable for every
    thread still using it."""

    @pytest.fixture(scope="class")
    def shards(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("evict") / "store")
        tree = parse_term("σ(δ, σ(δ))")
        with CorpusStore.create(root, segment_size=2) as store:
            store.ingest(tree for _ in range(140))  # 70 segments > 64
            yield [
                store._shard_for(lo, lo + 2)
                for lo in range(0, store.tree_count, 2)
            ]

    @staticmethod
    def _load_everything(load, shards, rounds=20):
        def hammer(worker_id):
            # Half the threads walk backwards: each then keeps reaching
            # the entries the others are about to evict.
            order = shards if worker_id % 2 == 0 else shards[::-1]
            for _ in range(rounds):
                for shard in order:
                    assert load(shard)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(hammer, count=4)
        finally:
            sys.setswitchinterval(saved)

    def test_segment_loads_never_see_a_closed_mapping(self, shards):
        self._load_everything(executor._shard_trees, shards)

    def test_sidecar_lanes_never_see_a_closed_mapping(self, shards):
        assert all(shard[4] is not None for shard in shards)
        self._load_everything(executor._shard_lanes, shards)
