"""The generation-keyed window result cache.

Unit-level: :class:`ResultCache` keys on the effective window and the
exact query fingerprint, counts its own hits and misses (the wrapped
:class:`~repro.caching.KeyedLRU` is deliberately statistics-free), and
``maxsize=0`` stores nothing.  Dispatcher-level: replays are stamped
``cached`` with identical results; every store mutation — ``append``,
``replace``, ``recover``+``compact`` — moves the corpus token and so
orphans all cached windows without any explicit invalidation; nothing
a caller does to a response changes what later hits answer;
fault-injected requests bypass the cache in both directions; the
``stats`` verb surfaces the counters.
"""

import copy

import pytest

from repro.corpus import CorpusStore, TreeCorpus
from repro.corpus.executor import ResultRows
from repro.service import Dispatcher, ResultCache
from repro.trees.generators import random_tree

pytestmark = pytest.mark.service

QUERY_OBJECTS = [
    {"kind": "xpath", "text": "//σ//δ"},
    {"kind": "select", "text": "x << y & O_δ(y)"},
]


def _trees(count, seed=0):
    return [
        random_tree(
            3 + (i * 5) % 14, value_pool=(1, 2), max_children=3, seed=seed + i
        )
        for i in range(count)
    ]


def _store(tmp_path, count=14, segment_size=4, seed=0):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=segment_size)
    store.ingest(iter(_trees(count, seed=seed)))
    return store


def _window_request(stop=None, start=0, **options):
    options = {"start": start, **options}
    if stop is not None:
        options["stop"] = stop
    return {"op": "query", "queries": QUERY_OBJECTS, "options": options}


# ---------------------------------------------------------------------------
# ResultCache unit behavior
# ---------------------------------------------------------------------------


def test_cache_counts_its_own_hits_and_misses():
    cache = ResultCache(maxsize=4)
    key = ("token", "fast", 0, 5, (("xpath", "//σ", ()),))
    assert cache.get(key) is None
    cache.put(key, {"ok": True, "results": [[1]]})
    assert cache.get(key) == {"ok": True, "results": [[1]]}
    assert cache.get(("other",) + key[1:]) is None
    info = cache.info()
    assert info == {"hits": 1, "misses": 2, "size": 1, "maxsize": 4}
    cache.clear()
    assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 4}


def test_cache_returns_copies_not_aliases():
    cache = ResultCache(maxsize=2)
    key = ("t", "fast", 0, 1, ())
    response = {"ok": True, "results": [[1]]}
    cache.put(key, response)
    response["ok"] = False  # caller keeps mutating its dict
    hit = cache.get(key)
    assert hit["ok"] is True
    hit["poisoned"] = True  # and a hit is the caller's to mutate
    assert "poisoned" not in cache.get(key)


def test_zero_maxsize_stores_nothing():
    cache = ResultCache(maxsize=0)
    key = ("t", "fast", 0, 1, ())
    cache.put(key, {"ok": True})
    assert cache.get(key) is None


def test_key_fingerprints_the_exact_query_batch():
    queries = [
        type("Q", (), {"kind": "xpath", "text": "//σ", "context": ()})()
    ]
    key = ResultCache.key("tok", "fast", 0, 9, queries)
    assert key == ("tok", "fast", 0, 9, (("xpath", "//σ", ()),))


# ---------------------------------------------------------------------------
# dispatcher integration
# ---------------------------------------------------------------------------


def test_replay_is_cached_with_identical_results(tmp_path):
    with _store(tmp_path) as store:
        dispatcher = Dispatcher(store, workers=0, result_cache=8)
        session = dispatcher.open_session()
        request = _window_request(stop=8)
        first = dispatcher.handle(request, session)
        assert first["ok"] and "cached" not in first
        replay = dispatcher.handle(request, session)
        assert replay["cached"] is True
        assert replay["results"] == first["results"]
        assert replay["trees"] == first["trees"]
        # A hit shares the executor's rows, so its frame is written from
        # cached address texts too.
        assert type(replay["results"]) is ResultRows
        assert replay["results"] is first["results"]


def test_what_callers_do_with_a_response_never_reaches_the_next_hit(
    tmp_path,
):
    """The stored response and every hit are the caller's to mutate:
    clearing a row (where rows allow it) or editing a chunk report
    leaves the next hit answering exactly what the first request did."""
    with _store(tmp_path) as store:
        dispatcher = Dispatcher(store, workers=0, result_cache=8)
        session = dispatcher.open_session()
        request = _window_request(stop=8)
        first = dispatcher.handle(request, session)
        results, chunks = copy.deepcopy((first["results"], first["chunks"]))
        assert any(results[0])  # tree 0 has answers to lose
        first["chunks"][0]["steps"] = -1  # the response that was stored
        second = dispatcher.handle(request, session)
        assert second["cached"] is True
        try:
            second["results"][0].clear()
        except AttributeError:
            pass  # tuple rows cannot change in place
        second["chunks"][0].clear()
        third = dispatcher.handle(request, session)
        assert third["cached"] is True
        assert third["results"] == results
        assert third["chunks"] == chunks


def test_explicit_and_implicit_full_stop_share_an_entry(tmp_path):
    with _store(tmp_path) as store:
        dispatcher = Dispatcher(store, workers=0, result_cache=8)
        session = dispatcher.open_session()
        open_ended = dispatcher.handle(_window_request(), session)
        assert "cached" not in open_ended
        clamped = dispatcher.handle(
            _window_request(stop=store.tree_count), session
        )
        assert clamped["cached"] is True
        assert clamped["results"] == open_ended["results"]


def test_append_invalidates_by_moving_the_token(tmp_path):
    with _store(tmp_path) as store:
        dispatcher = Dispatcher(store, workers=0, result_cache=8)
        session = dispatcher.open_session()
        request = _window_request(stop=8)
        dispatcher.handle(request, session)
        assert dispatcher.handle(request, session)["cached"] is True
        store.append(random_tree(9, value_pool=(1, 2), seed=50))
        after = dispatcher.handle(request, session)
        assert "cached" not in after  # old generation's entry orphaned
        assert dispatcher.handle(request, session)["cached"] is True


def test_replace_invalidates_and_the_fresh_answer_differs(tmp_path):
    with _store(tmp_path) as store:
        dispatcher = Dispatcher(store, workers=0, result_cache=8)
        session = dispatcher.open_session()
        request = _window_request(stop=4)
        before = dispatcher.handle(request, session)
        # A δ-free replacement changes the select answer for tree 2.
        store.replace(2, random_tree(1, value_pool=(1,), seed=1))
        after = dispatcher.handle(request, session)
        assert "cached" not in after
        assert after["results"] != before["results"]


def test_compact_invalidates_via_generation_bump(tmp_path):
    with _store(tmp_path, count=19) as store:
        victim = store._manifest["segments"][1]["name"]
        victim_path = str(tmp_path / "s" / victim)
        with open(victim_path, "rb") as handle:
            size = len(handle.read())
        with open(victim_path, "r+b") as handle:
            handle.truncate(size // 2)
        assert store.recover() == 1
        dispatcher = Dispatcher(store, workers=0, result_cache=8)
        session = dispatcher.open_session()
        request = _window_request(stop=6)
        before = dispatcher.handle(request, session)
        assert dispatcher.handle(request, session)["cached"] is True
        assert store.compact() > 0
        after = dispatcher.handle(request, session)
        assert "cached" not in after  # same trees, but a new generation
        assert after["results"] == before["results"]


def test_fault_requests_bypass_the_cache_both_ways(tmp_path):
    with _store(tmp_path) as store:
        dispatcher = Dispatcher(
            store, workers=0, result_cache=8, allow_faults=True
        )
        session = dispatcher.open_session()
        chaotic = _window_request(stop=8, faults={"0": {"kind": "error"}})
        clean = _window_request(stop=8)
        degraded = dispatcher.handle(chaotic, session)
        assert degraded["ok"] and degraded["degraded_chunks"] > 0
        # The degraded response was not stored: the clean twin misses.
        first_clean = dispatcher.handle(clean, session)
        assert "cached" not in first_clean
        # And a stored clean response is not replayed to a fault run.
        rerun = dispatcher.handle(chaotic, session)
        assert "cached" not in rerun
        assert first_clean["results"] == degraded["results"]  # answers agree


def test_stats_surfaces_counters_only_when_enabled(tmp_path):
    with _store(tmp_path) as store:
        cached = Dispatcher(store, workers=0, result_cache=8)
        session = cached.open_session()
        request = _window_request(stop=8)
        cached.handle(request, session)
        cached.handle(request, session)
        stats = cached.handle({"op": "stats"}, session)
        assert stats["result_cache"] == {
            "hits": 1, "misses": 1, "size": 1, "maxsize": 8
        }
        plain = Dispatcher(store, workers=0)
        assert plain.result_cache is None
        stats = plain.handle({"op": "stats"}, plain.open_session())
        assert "result_cache" not in stats


def test_in_memory_corpus_is_cacheable_too():
    corpus = TreeCorpus.from_terms(["σ(δ, σ)", "δ(σ(δ))", "σ(σ)"])
    dispatcher = Dispatcher(corpus, workers=0, result_cache=4)
    session = dispatcher.open_session()
    request = _window_request()
    first = dispatcher.handle(request, session)
    replay = dispatcher.handle(request, session)
    assert replay.get("cached") is True
    assert replay["results"] == first["results"]
    corpus.close()


def test_chunk_entries_name_their_index_source(tmp_path):
    """Under the default ``fast`` engine a store window with valid
    sidecars is answered from their lanes; a chunk that degraded ran
    on trees — with the same answers."""
    with _store(tmp_path) as store:
        dispatcher = Dispatcher(store, workers=0, allow_faults=True)
        session = dispatcher.open_session()
        clean = dispatcher.handle(_window_request(stop=8), session)
        assert {c["source"] for c in clean["chunks"]} == {"lanes"}
        chaotic = dispatcher.handle(
            _window_request(stop=8, faults={"0": {"kind": "error"}}), session
        )
        degraded = chaotic["chunks"][0]
        assert degraded["fell_back"] and degraded["source"] == "trees"
        assert chaotic["results"] == clean["results"]
