"""The disk-backed corpus store: segment format, crash recovery, and
batch answers identical to the in-memory loop.

Covers the on-disk layer bottom-up: segment round-trips and resumable
writers, a hypothesis fault-injection battery over torn writes (every
truncation point either opens clean or recovers to an exact record
prefix), the store error taxonomy, generation-counter invalidation,
and the query path — serial, fanned-out, windowed, and after in-place
``replace`` edits — element-wise against the naive per-tree loop.
"""

import copy
import gc
import hashlib
import json
import os
import shutil
import struct
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.__main__ import main
from repro.bench import _naive_corpus_rows
from repro.corpus import (
    CorpusStore,
    Segment,
    SegmentWriter,
    Sidecar,
    StoreCorruptError,
    StoreError,
    StoreMissingError,
    StoreVersionError,
    recover_segment,
    sidecar_path,
)
from repro.corpus import executor
from repro.corpus import segment as segment_module
from repro.corpus import store as store_module
from repro.corpus.query import (
    ask_query,
    caterpillar_query,
    caterpillar_relation_query,
    select_query,
    xpath_query,
)
from repro.corpus.segment import (
    FORMAT_VERSION,
    MAGIC,
    SIDECAR_MAGIC,
    SIDECAR_TRAILER,
    SIDECAR_VERSION,
    TRAILER,
    _stats_row,
)
from repro.engine.index import TreeIndex, index_cache_clear, serialize_index
from repro.engine.stats import TreeStatistics
from repro.trees import parse_term
from repro.trees.generators import random_tree

pytestmark = pytest.mark.store

QUERIES = (
    xpath_query("//σ//δ"),
    ask_query("exists x O_σ(x)"),
    select_query("x << y & O_δ(y)"),
    caterpillar_query("(down | right)* <δ>"),
    caterpillar_relation_query("down <σ>"),
)


def _trees(count, seed=0):
    return [
        random_tree(
            3 + (i * 5) % 11, value_pool=(1, 2), max_children=3, seed=seed + i
        )
        for i in range(count)
    ]


def _same_tree(a, b):
    return a._labels == b._labels and a._attrs == b._attrs


# ---------------------------------------------------------------------------
# segment files
# ---------------------------------------------------------------------------


def test_segment_round_trip(tmp_path):
    trees = _trees(9)
    path = str(tmp_path / "seg-00000.seg")
    writer = SegmentWriter(path, 0)
    for tree in trees:
        writer.append(tree)
    footer = writer.seal()
    assert footer["trees"] == len(trees)
    with Segment(path) as segment:
        assert len(segment) == len(trees)
        for i, tree in enumerate(trees):
            assert _same_tree(segment.tree(i), tree)
        window = segment.trees(2, 6)
        assert len(window) == 4
        assert all(_same_tree(a, b) for a, b in zip(window, trees[2:6]))
        rows = segment.statistics_rows()
        assert [s.n for s in rows] == [len(t.nodes) for t in trees]


def test_segment_writer_resumes_an_unsealed_file(tmp_path):
    trees = _trees(7, seed=3)
    path = str(tmp_path / "seg-00000.seg")
    writer = SegmentWriter(path, 0)
    for tree in trees[:4]:
        writer.append(tree)
    writer.seal()
    resumed = SegmentWriter.resume(path, 0)
    assert resumed.tree_count == 4
    for tree in trees[4:]:
        resumed.append(tree)
    resumed.seal()
    with Segment(path) as segment:
        assert len(segment) == 7
        assert all(_same_tree(segment.tree(i), t) for i, t in enumerate(trees))


def _sealed_segment_bytes(tmp_path, trees):
    path = str(tmp_path / "torn.seg")
    writer = SegmentWriter(path, 0)
    for tree in trees:
        writer.append(tree)
    writer.seal()
    with open(path, "rb") as handle:
        return path, handle.read()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_any_torn_write_recovers_to_an_exact_record_prefix(tmp_path_factory, seed):
    """Fault injection: chop a sealed segment at an arbitrary byte.

    Whatever survives, ``recover_segment`` must reseal a file whose
    records are an exact prefix of the originals — or refuse loudly
    when even the header is gone.  No truncation point may yield a
    segment that quietly reads back wrong trees."""
    import random as _random

    tmp_path = tmp_path_factory.mktemp("torn")
    trees = _trees(6, seed=seed)
    path, data = _sealed_segment_bytes(tmp_path, trees)
    cut = _random.Random(seed).randrange(len(data))
    with open(path, "wb") as handle:
        handle.write(data[:cut])
    if cut < 16:  # the fixed header itself is torn: nothing to save
        with pytest.raises(StoreCorruptError):
            recover_segment(path)
        return
    with pytest.raises((StoreCorruptError, StoreVersionError)):
        Segment(path)  # a torn file must never open as sealed
    footer = recover_segment(path)
    kept = footer["trees"]
    assert 0 <= kept <= len(trees)
    with Segment(path) as segment:
        assert len(segment) == kept
        assert all(
            _same_tree(segment.tree(i), trees[i]) for i in range(kept)
        )


# ---------------------------------------------------------------------------
# the store: lifecycle, errors, generations
# ---------------------------------------------------------------------------


def test_store_error_taxonomy(tmp_path):
    with pytest.raises(StoreMissingError):
        CorpusStore.open(str(tmp_path / "absent"))
    root = tmp_path / "store"
    CorpusStore.create(str(root), segment_size=4).close()
    with pytest.raises(StoreError):
        CorpusStore.create(str(root))  # already a store
    manifest = root / "store.json"
    good = manifest.read_text()
    manifest.write_text("{ not json")
    with pytest.raises(StoreCorruptError):
        CorpusStore.open(str(root))
    payload = json.loads(good)
    payload["version"] = 99
    manifest.write_text(json.dumps(payload))
    with pytest.raises(StoreVersionError):
        CorpusStore.open(str(root))
    payload["version"] = 1
    payload["format"] = "something-else"
    manifest.write_text(json.dumps(payload))
    with pytest.raises(StoreMissingError):
        CorpusStore.open(str(root))


def test_ingest_append_reopen_and_statistics(tmp_path):
    trees = _trees(11, seed=1)
    root = str(tmp_path / "store")
    with CorpusStore.create(root, segment_size=4) as store:
        assert store.ingest(iter(trees[:10])) == 10
        extra_at = store.append(trees[10])
        assert extra_at == 10
        assert len(store) == 11
        first = store.statistics()
    with CorpusStore.open(root) as store:
        assert len(store) == 11
        assert all(_same_tree(store.tree(i), t) for i, t in enumerate(trees))
        assert all(
            _same_tree(a, b) for a, b in zip(store.trees(3, 9), trees[3:9])
        )
        stats = store.statistics()
        assert stats.tree_count == 11
        assert stats.total_nodes == sum(len(t.nodes) for t in trees)
        assert stats.fingerprint == first.fingerprint  # reopen: same corpus
    with pytest.raises(TypeError):
        with CorpusStore.open(root) as store:
            store.ingest(["not a tree"])


def test_mutations_bump_the_generation_and_retire_the_token(tmp_path):
    trees = _trees(6, seed=2)
    with CorpusStore.create(str(tmp_path / "s"), segment_size=3) as store:
        store.ingest(trees[:5])
        g0, token0, print0 = (
            store.generation, store.token, store.statistics().fingerprint,
        )
        store.append(trees[5])
        assert store.generation > g0
        assert store.token != token0
        assert store.statistics().fingerprint != print0
        token1, print1 = store.token, store.statistics().fingerprint
        store.replace(2, trees[0])
        assert store.token != token1
        assert store.statistics().fingerprint != print1


@pytest.mark.parametrize("sidecars", ["on", "off"])
def test_a_new_store_at_an_old_stores_path_shares_no_worker_state(
    tmp_path, monkeypatch, sidecars
):
    """Delete a store that answered queries and create another at the
    same path: the new one gets its own token, and its answers come
    from its own trees, never from the lanes, shards, segments or warm
    chunks this process kept for the old one."""
    if sidecars == "off":
        monkeypatch.setenv("REPRO_STORE_SIDECARS", "0")
    root = str(tmp_path / "s")
    queries = QUERIES[:4]  # every one has an IR plan: lanes when on
    old, new = _trees(6, seed=30), _trees(6, seed=60)
    expected = list(_naive_corpus_rows(new, queries))
    assert expected != list(_naive_corpus_rows(old, queries))
    with CorpusStore.create(root, segment_size=3) as store:
        store.ingest(old)
        for _ in range(3):  # long enough for every cache to keep it
            store.run(queries)
        old_token = store.token
    shutil.rmtree(root)
    with CorpusStore.create(root, segment_size=3) as store:
        store.ingest(new)
        result = store.run(queries)
        assert list(result.rows) == expected
        source = "lanes" if sidecars == "on" else "trees"
        assert {c.source for c in result.chunks} == {source}
        assert store.token != old_token


def test_a_manifest_without_a_store_id_keeps_the_path_digest(tmp_path):
    root = str(tmp_path / "s")
    with CorpusStore.create(root) as store:
        store.ingest(_trees(2))
        fresh_token = store.token
    manifest_path = os.path.join(root, "store.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    del manifest["id"]
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    digest = hashlib.sha1(os.path.abspath(root).encode("utf-8")).hexdigest()
    with CorpusStore.open(root, readonly=True) as store:
        assert store.token == f"store-{digest[:12]}-g{store.generation}"
        assert store.token != fresh_token


def test_crash_mid_ingest_is_recoverable(tmp_path):
    trees = _trees(10, seed=4)
    root = str(tmp_path / "s")
    with CorpusStore.create(root, segment_size=4) as store:
        store.ingest(trees)
        entry = store._manifest["segments"][-1]
        tail = os.path.join(root, entry["name"])
    with open(tail, "rb") as handle:  # tear the tail segment's seal
        data = handle.read()
    with open(tail, "wb") as handle:
        handle.write(data[:-9])
    with CorpusStore.open(root) as store:
        with pytest.raises(StoreCorruptError):
            store.tree(9)
        assert store.recover() == 1
        kept = len(store)
        assert 8 <= kept <= 10  # the sealed segments never lose a record
        assert all(
            _same_tree(store.tree(i), trees[i]) for i in range(kept)
        )
        assert store.recover() == 0  # idempotent


@pytest.mark.parametrize("tail", ["fresh", "resumed"])
@pytest.mark.parametrize("step", ["append", "seal", "write_sidecar"])
def test_a_failed_ingest_leaves_the_store_files_as_they_were(
    tmp_path, monkeypatch, step, tail
):
    """An ingest that fails mid-stream, in its segment seal or in its
    sidecar write leaves every store file byte-for-byte as it was: no
    new segment or sidecar, a resumed tail segment neither deleted nor
    holding a failed tree for the next ingest to adopt."""
    trees = _trees(5, seed=15)
    root = str(tmp_path / "s")

    def files():
        return {
            name: (tmp_path / "s" / name).read_bytes()
            for name in os.listdir(root)
        }

    with CorpusStore.create(
        root, segment_size=3 if tail == "fresh" else 5
    ) as store:
        store.ingest(trees[:3])
        before = files()
        batch, error = [trees[3]], _Crash
        if step == "append":
            batch, error = [trees[3], "not a tree"], TypeError
        elif step == "seal":
            seal = SegmentWriter.seal
            crashed = []

            def crashing_seal(writer):
                footer = seal(writer)
                if not crashed:  # the rollback's own reseal goes through
                    crashed.append(writer.path)
                    raise _Crash()
                return footer

            monkeypatch.setattr(SegmentWriter, "seal", crashing_seal)
        else:
            monkeypatch.setattr(store_module, "write_sidecar", _crash_before)
        with pytest.raises(error):
            store.ingest(batch)
        monkeypatch.undo()
        assert files() == before
        assert store.tree_count == 3
        assert store.append(trees[4]) == 3
    kept = trees[:3] + [trees[4]]
    with CorpusStore.open(root, readonly=True) as reopened:
        assert reopened.tree_count == 4
        assert all(_same_tree(reopened.tree(i), t) for i, t in enumerate(kept))
        result = reopened.run(QUERIES[:4])
        assert result.rows == _naive_corpus_rows(kept, QUERIES[:4])
        assert {c.source for c in result.chunks} == {"lanes"}


def test_ingest_memory_does_not_grow_with_the_segments_it_seals(
    tmp_path, monkeypatch
):
    """Streaming ingest holds one segment's footer rows, not those of
    every segment it has sealed: what it holds after its 40th seal is
    within a quarter of what it held after its 10th."""
    held = []
    seal = SegmentWriter.seal

    def measuring(writer):
        footer = seal(writer)
        gc.collect()
        held.append(tracemalloc.get_traced_memory()[0])
        return footer

    monkeypatch.setattr(SegmentWriter, "seal", measuring)
    trees = (
        random_tree(12, value_pool=(1, 2), max_children=3, seed=i)
        for i in range(32 * 40)
    )
    index_cache_clear()
    tracemalloc.start()
    try:
        with CorpusStore.create(str(tmp_path / "s"), segment_size=32) as store:
            store.ingest(trees)
    finally:
        tracemalloc.stop()
    assert len(held) == 40
    assert held[-1] - held[9] < held[9] / 4


@pytest.mark.parametrize("tail", ["fresh", "resumed"])
def test_a_failed_multi_segment_ingest_takes_back_every_segment_it_sealed(
    tmp_path, tail
):
    """A stream that fails after sealing whole segments takes them all
    back: ``tree_count`` and the manifest stay as they were, fresh
    segments leave no file behind, a resumed tail is cut back, and the
    next ingest lands at the old count."""
    t, u = _trees(2, seed=31)
    root = str(tmp_path / "s")
    kept = [u] if tail == "resumed" else []
    with CorpusStore.create(root, segment_size=2) as store:
        store.ingest(kept)
        manifest = copy.deepcopy(store._manifest)
        names = sorted(os.listdir(root))
        with pytest.raises(TypeError):
            store.ingest([t, t, u, "not a tree"])
        assert store.tree_count == len(kept)
        assert store._manifest == manifest
        with open(os.path.join(root, "store.json"), encoding="utf-8") as handle:
            assert json.load(handle) == manifest
        assert sorted(os.listdir(root)) == names
        assert store.append(u) == len(kept)
    kept.append(u)
    with CorpusStore.open(root, readonly=True) as reopened:
        assert reopened.tree_count == len(kept)
        assert all(_same_tree(reopened.tree(i), x) for i, x in enumerate(kept))
        result = reopened.run(QUERIES[:4])
        assert result.rows == _naive_corpus_rows(kept, QUERIES[:4])
        assert {c.source for c in result.chunks} == {"lanes"}


# ---------------------------------------------------------------------------
# the query path
# ---------------------------------------------------------------------------


def test_store_batches_match_the_sequential_loop(tmp_path):
    trees = _trees(23, seed=5)
    expected = _naive_corpus_rows(trees, QUERIES)
    with CorpusStore.create(str(tmp_path / "s"), segment_size=7) as store:
        store.ingest(trees)
        assert store.run(QUERIES).rows == expected
        assert store.run(QUERIES, chunk_size=1).rows == expected
        assert store.run(QUERIES, workers=2).rows == expected
        assert store.run(QUERIES, workers=2).rows == expected  # warm pool
        assert store.run(QUERIES, engine="auto").rows == expected


def test_windowed_runs_answer_for_exactly_their_window(tmp_path):
    trees = _trees(20, seed=6)
    expected = _naive_corpus_rows(trees, QUERIES)
    with CorpusStore.create(str(tmp_path / "s"), segment_size=6) as store:
        store.ingest(trees)
        assert store.run(QUERIES).rows == expected  # warm the full range
        assert store.run(QUERIES, start=5, stop=17).rows == expected[5:17]
        assert (
            store.run(QUERIES, start=5, stop=17, workers=2).rows
            == expected[5:17]
        )
        assert store.run(QUERIES, stop=4).rows == expected[:4]
        with pytest.raises(ValueError):
            store.run(QUERIES, start=9, stop=3)


def test_replace_updates_answers_with_and_without_a_site(tmp_path):
    trees = _trees(9, seed=7)
    with CorpusStore.create(str(tmp_path / "s"), segment_size=4) as store:
        store.ingest(trees)
        store.run(QUERIES, workers=2)  # warm worker shard caches

        # whole-tree swap: no splice site, index rebuilt from scratch
        trees[1] = random_tree(8, value_pool=(1, 2), max_children=3, seed=99)
        store.replace(1, trees[1])

        # single-subtree splice: the repair_index path
        victim = store.tree(6)
        site = victim.nodes[len(victim.nodes) // 2]
        edited = victim.replace_subtree(
            site, random_tree(4, value_pool=(1, 2), max_children=3, seed=98)
        )
        edited.nodes
        store.replace(6, edited, site=site)
        trees[6] = edited

        expected = _naive_corpus_rows(trees, QUERIES)
        assert store.run(QUERIES).rows == expected
        assert store.run(QUERIES, workers=2).rows == expected  # stale caches?
    with CorpusStore.open(str(tmp_path / "s")) as store:  # and on disk
        assert store.run(QUERIES).rows == expected


def _edited(tree, seed):
    """A single-subtree edit of ``tree`` and its splice site."""
    site = tree.nodes[len(tree.nodes) // 2]
    graft = random_tree(4, value_pool=(1, 2), max_children=3, seed=seed)
    return tree.replace_subtree(site, graft), site


def _segment_file(store, segment_index):
    entry = store._manifest["segments"][segment_index]
    return os.path.join(store.path, entry["name"])


def _per_record_segment(segment_id, payloads, rows):
    """A segment file written record by record, as its format spells
    it: header, length-prefixed records, JSON footer, trailer."""
    body = bytearray(struct.pack("<8sII", MAGIC, FORMAT_VERSION, segment_id))
    offsets = []
    for payload in payloads:
        offsets.append(len(body))
        body += struct.pack("<I", len(payload)) + payload
    footer = json.dumps(
        {
            "segment": segment_id,
            "trees": len(payloads),
            "nodes": sum(row[0] for row in rows),
            "record_end": len(body),
            "offsets": offsets,
            "stats": rows,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return bytes(body) + footer + struct.pack("<I8s", len(footer), TRAILER)


def _per_blob_sidecar(segment_id, generation, blobs):
    """A sidecar file written blob by blob: header, one offset per
    blob plus the end, the blobs, trailer."""
    header = struct.pack(
        "<8sIIQI", SIDECAR_MAGIC, SIDECAR_VERSION, segment_id, generation,
        len(blobs),
    )
    offsets, position = [], 0
    for blob in blobs:
        offsets.append(struct.pack("<Q", position))
        position += len(blob)
    offsets.append(struct.pack("<Q", position))
    return header + b"".join(offsets) + b"".join(blobs) + SIDECAR_TRAILER


@pytest.mark.parametrize(
    "sidecars", [True, False], ids=["sidecar", "nosidecar"]
)
@pytest.mark.parametrize("with_site", [True, False], ids=["site", "nosite"])
@pytest.mark.parametrize(
    "position", [5, 7, 9, 10], ids=["first", "middle", "last", "tail"]
)
def test_replace_copies_untouched_records_byte_for_byte(
    tmp_path, position, with_site, sidecars
):
    """A replace copies the records around the edited one as two byte
    ranges and splices the sidecar's blob region around the fresh blob:
    the files equal a record-by-record rewrite of the model segment at
    the first, a middle and the last slot of a full segment and in a
    one-tree tail segment, where both ranges are empty."""
    trees = _trees(11, seed=8)  # segments of 5, 5 and 1 trees
    with CorpusStore.create(
        str(tmp_path / "s"), segment_size=5, sidecars=sidecars
    ) as store:
        store.ingest(trees)
        segment_index, local = divmod(position, 5)
        path = _segment_file(store, segment_index)
        side = sidecar_path(path)
        with Segment(path) as segment:
            payloads = [segment.record_payload(i) for i in range(len(segment))]
            rows = [segment.stats_row(i) for i in range(len(segment))]
        if sidecars:
            with Sidecar(side) as sidecar:
                blobs = [bytes(sidecar.blob(i)) for i in range(len(sidecar))]
        edited, site = _edited(trees[position], seed=97)
        store.replace(position, edited, site=site if with_site else None)
        with Segment(path) as segment:
            assert _same_tree(segment.tree(local), edited)
            payloads[local] = segment.record_payload(local)
        rows[local] = _stats_row(TreeStatistics.from_tree(edited))
        assert Path(path).read_bytes() == _per_record_segment(
            segment_index, payloads, rows
        )
        if sidecars:
            # The repaired index serializes like a fresh build.
            blobs[local] = serialize_index(TreeIndex(edited))
            tag = store._manifest["segments"][segment_index]["sidecar_gen"]
            assert tag == store.generation
            assert Path(side).read_bytes() == _per_blob_sidecar(
                segment_index, tag, blobs
            )
        else:
            assert not os.path.exists(side)


@pytest.mark.parametrize(
    "value", ["x", None, ("σ", ())], ids=["str", "none", "tuple"]
)
def test_replace_rejects_non_tree_input_before_touching_the_store(
    tmp_path, value
):
    """``replace`` raises ingest's ``TypeError`` for anything but a
    ``Tree``, before it opens a segment: every file and the generation
    stay as they were."""
    root = str(tmp_path / "s")

    def files():
        return {
            name: Path(root, name).read_bytes() for name in os.listdir(root)
        }

    with CorpusStore.create(root, segment_size=5) as store:
        store.ingest(_trees(7, seed=16))
        before, generation = files(), store.generation
        with pytest.raises(TypeError, match="replace expects Tree instances"):
            store.replace(2, value)
        assert not any(
            key[0] == store._identity for key in segment_module._SEGMENTS
        )
        assert files() == before
        assert store.generation == generation


@pytest.mark.parametrize("sidecars", [True, False], ids=["sidecar", "nosidecar"])
@pytest.mark.parametrize("with_site", [True, False], ids=["site", "nosite"])
def test_replace_unpickles_at_most_the_edited_record(
    tmp_path, monkeypatch, with_site, sidecars
):
    trees = _trees(12, seed=9)
    with CorpusStore.create(
        str(tmp_path / "s"), segment_size=5, sidecars=sidecars
    ) as store:
        store.ingest(trees)
        edited, site = _edited(trees[7], seed=96)
        unpickled = []
        original = Segment.tree

        def counting(segment, position):
            unpickled.append(position)
            return original(segment, position)

        monkeypatch.setattr(Segment, "tree", counting)
        store.replace(7, edited, site=site if with_site else None)
        assert unpickled == ([2] if with_site else [])
        monkeypatch.undo()
        trees[7] = edited
        assert store.run(QUERIES).rows == _naive_corpus_rows(trees, QUERIES)


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "cold"])
def test_point_reads_after_replace_see_the_new_tree(
    tmp_path, monkeypatch, cached
):
    trees = _trees(12, seed=10)
    with CorpusStore.create(str(tmp_path / "s"), segment_size=5) as store:
        store.ingest(trees)
        if cached:
            store.tree(5)  # a point read of the segment before the edit
        repaired = []
        original = store_module.repair_index

        def spying(old, new_tree, site):
            repaired.append(original(old, new_tree, site))
            return repaired[-1]

        monkeypatch.setattr(store_module, "repair_index", spying)
        edited, site = _edited(trees[8], seed=95)
        store.replace(8, edited, site=site)
        assert _same_tree(store.tree(8), edited)
        assert len(repaired) == 1  # the old record decoded and repaired
        trees[8] = edited
        assert all(_same_tree(store.tree(i), t) for i, t in enumerate(trees))


def test_point_reads_keep_a_bounded_number_of_segments_mapped(tmp_path):
    """Point reads open segments through the process's bounded map of
    open store files, which chunk loads share: reading one tree of each
    of 100 segments leaves at most the map's bound of them mapped, not
    one per segment read."""
    tree = parse_term("σ(δ, σ(δ))")
    with CorpusStore.create(
        str(tmp_path / "s"), segment_size=1, sidecars=False
    ) as store:
        store.ingest(tree for _ in range(100))
        assert all(_same_tree(store.tree(i), tree) for i in range(100))
        gc.collect()
        mapped = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Segment) and obj.path.startswith(store.path)
        ]
        assert 0 < len(mapped) <= segment_module.OPEN_FILES


class _Crash(Exception):
    """Stands in for the process dying at one step of a replace."""


def _crash_before(*args, **kwargs):
    raise _Crash()


@pytest.mark.parametrize(
    "step, outcome",
    [
        ("copy_records", "old"),
        ("seal", "old"),
        ("os.replace", "new"),
        ("write_sidecar", "new"),
        ("_save_manifest", "new"),
    ],
)
def test_replace_crash_at_any_step_reopens_to_old_or_new(
    tmp_path, monkeypatch, step, outcome
):
    """The commit point of a replace is the segment swap: a crash
    before it leaves the old tree, one after it the new tree, and in
    both cases the reopened store answers identically from sidecars
    and from records."""
    trees = _trees(12, seed=11)
    root = str(tmp_path / "s")
    store = CorpusStore.create(root, segment_size=5)
    store.ingest(trees)
    edited, site = _edited(trees[6], seed=94)
    segment_path = _segment_file(store, 1)
    if step == "copy_records":
        copy_records = SegmentWriter.copy_records

        def crashing_copy(writer, segment, lo, hi):
            copy_records(writer, segment, lo, hi)
            # Tree 6 is slot 1: the prefix range is written, the edited
            # record is not.
            assert (lo, hi) == (0, 1)
            raise _Crash()

        monkeypatch.setattr(SegmentWriter, "copy_records", crashing_copy)
    elif step == "seal":
        seal = SegmentWriter.seal

        def crashing_seal(writer):
            seal(writer)
            raise _Crash()

        monkeypatch.setattr(SegmentWriter, "seal", crashing_seal)
    elif step == "os.replace":
        swap = os.replace

        def crashing_swap(src, dst):
            swap(src, dst)
            if dst == segment_path:
                raise _Crash()

        monkeypatch.setattr(store_module.os, "replace", crashing_swap)
    elif step == "write_sidecar":
        monkeypatch.setattr(store_module, "write_sidecar", _crash_before)
    else:
        monkeypatch.setattr(CorpusStore, "_save_manifest", _crash_before)
    with pytest.raises(_Crash):
        store.replace(6, edited, site=site)
    monkeypatch.undo()
    store.close()
    assert _rewrite_files(root) == []
    if outcome == "new":
        trees[6] = edited
    packed = QUERIES[:4]  # root-context IR plans: the sidecar transport
    expected = _naive_corpus_rows(trees, packed)
    with CorpusStore.open(root) as reopened:
        assert all(
            _same_tree(reopened.tree(i), t) for i, t in enumerate(trees)
        )
        segment_module._SIDECARS.cache_clear()
        result = reopened.run(packed, engine="vectorized")
        assert result.rows == expected
        assert any(c.source == "lanes" for c in result.chunks)
    monkeypatch.setenv("REPRO_STORE_SIDECARS", "0")
    with CorpusStore.open(root) as rebuilt:
        assert rebuilt.run(packed, engine="vectorized").rows == expected


def _rewrite_files(root):
    return [name for name in os.listdir(root) if name.endswith(".rewrite")]


def test_a_failed_segment_swap_leaves_no_rewrite_file(tmp_path, monkeypatch):
    """A replace that fails after sealing its write-aside segment but
    before swapping it in removes the write-aside file and keeps the
    old tree."""
    trees = _trees(12, seed=13)
    root = str(tmp_path / "s")
    swap = os.replace

    def failing_swap(src, dst):
        if src.endswith(".rewrite"):
            raise OSError("injected swap failure")
        swap(src, dst)

    with CorpusStore.create(root, segment_size=5) as store:
        store.ingest(trees)
        edited, site = _edited(trees[6], seed=95)
        monkeypatch.setattr(store_module.os, "replace", failing_swap)
        with pytest.raises(OSError, match="injected"):
            store.replace(6, edited, site=site)
        monkeypatch.undo()
        assert _rewrite_files(root) == []
        assert _same_tree(store.tree(6), trees[6])
        assert store.run(QUERIES).rows == _naive_corpus_rows(trees, QUERIES)


def test_recover_removes_a_crashed_replaces_rewrite_file(tmp_path):
    """A process that died between a replace's seal and its swap never
    ran its cleanup: recover() removes the orphaned write-aside file."""
    trees = _trees(12, seed=14)
    root = str(tmp_path / "s")
    with CorpusStore.create(root, segment_size=5) as store:
        store.ingest(trees)
        segment = _segment_file(store, 0)
        with open(segment, "rb") as source, open(
            segment + ".rewrite", "wb"
        ) as planted:
            planted.write(source.read())
    with CorpusStore.open(root) as store:
        assert _rewrite_files(root) == ["seg-00000.seg.rewrite"]
        assert store.recover() == 0
        assert _rewrite_files(root) == []
        assert store.run(QUERIES).rows == _naive_corpus_rows(trees, QUERIES)


def test_failed_sidecar_write_still_retires_the_old_tree(tmp_path, monkeypatch):
    """A replace whose sidecar write fails after the segment swap must
    not leave this handle's warm batches answering for the old tree."""
    trees = _trees(10, seed=12)
    packed = QUERIES[:4]
    with CorpusStore.create(str(tmp_path / "s"), segment_size=5) as store:
        store.ingest(trees)
        store.run(packed, engine="vectorized")  # warm lanes and segments
        trees[2] = random_tree(12, value_pool=(1, 2), max_children=3, seed=93)
        monkeypatch.setattr(store_module, "write_sidecar", _crash_before)
        with pytest.raises(_Crash):
            store.replace(2, trees[2])
        monkeypatch.undo()
        expected = _naive_corpus_rows(trees, packed)
        assert store.run(packed, engine="vectorized").rows == expected
    with CorpusStore.open(str(tmp_path / "s")) as reopened:
        assert reopened.run(packed, engine="vectorized").rows == expected


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


def _write_xml(path):
    path.write_text(
        "<σ a='1'><δ a='2'><σ a='1'/></δ><δ a='1'/></σ>\n"
        "<δ a='3'><σ a='2'/></δ>\n",
        encoding="utf-8",
    )
    return str(path)


def test_cli_ingests_and_queries_a_store(tmp_path, capsys):
    docs = _write_xml(tmp_path / "docs.xml")
    root = str(tmp_path / "store")
    assert main(["corpus", "--store", root, "--ingest", docs]) == 0
    summary = capsys.readouterr().out
    assert "2" in summary  # two documents streamed in
    assert (
        main(["corpus", "--store", root, "--xpath", "//σ//δ", "--stats"]) == 0
    )
    out = capsys.readouterr().out
    assert "tree 0" in out and "tree 1" in out
    assert "via fast from lanes" in out  # the sidecar served the chunk
    with CorpusStore.open(root) as store:
        assert len(store) == 2


def test_cli_store_errors_exit_2(tmp_path, capsys):
    docs = _write_xml(tmp_path / "docs.xml")
    missing = str(tmp_path / "absent")
    # querying a store that does not exist is an error, not a create
    assert main(["corpus", "--store", missing, "--xpath", "//σ"]) == 2
    assert "no corpus store" in capsys.readouterr().err
    # --ingest without --store has nowhere to write
    assert main(["corpus", "--ingest", docs]) == 2
    assert "--store" in capsys.readouterr().err
