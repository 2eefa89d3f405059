"""The zero-rebuild path: index serialization, ``.rpridx`` sidecars,
and segment compaction.

Bottom-up: :func:`serialize_index` round-trips byte-identically and
:class:`PackedIndex` exposes exactly the :class:`TreeIndex` lane
surface (hypothesis, arbitrary trees); the sidecar file format rejects
every torn prefix and every interior corruption rather than ever
returning wrong bytes; the store writes generation-tied sidecars at
ingest, splices them through ``replace``, rejects stale generation
tags, lazily rebuilds what is missing or corrupt, and keeps answering
correctly (against the naive loop) through all of it; ``compact``
rewrites a recovery-fragmented store into full segments without
changing a single answer.
"""

import os
import struct
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.__main__ import main
from repro.bench import _naive_corpus_rows
from repro.corpus import (
    CorpusStore,
    Sidecar,
    StoreError,
    ask_query,
    select_query,
    sidecar_path,
    write_sidecar,
    xpath_query,
)
from repro.corpus import executor
from repro.engine.index import (
    IndexFormatError,
    PackedIndex,
    TreeIndex,
    deserialize_index,
    index_structures,
    serialize_index,
)
from repro.engine.nodeset import iter_bits
from repro.trees.generators import random_tree

pytestmark = pytest.mark.store

#: Every query here compiles to a root-context IR plan, so a
#: vectorized batch takes the packed sidecar transport.
PACKED_QUERIES = (
    xpath_query("//σ//δ"),
    ask_query("exists x O_σ(x)"),
    select_query("x << y & O_δ(y)"),
)


def _trees(count, seed=0):
    return [
        random_tree(
            3 + (i * 5) % 14, value_pool=(1, 2), max_children=3, seed=seed + i
        )
        for i in range(count)
    ]


def _expected(store, queries=PACKED_QUERIES, stop=None):
    stop = store.tree_count if stop is None else stop
    return _naive_corpus_rows(
        [store.tree(i) for i in range(stop)], queries
    )


def _segment_files(store):
    return [
        os.path.join(store.path, entry["name"])
        for entry in store._manifest["segments"]
    ]


# ---------------------------------------------------------------------------
# index serialization
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_serialized_index_round_trips_byte_identically(seed):
    tree = random_tree(
        1 + seed % 40, value_pool=(1, 2, 3), max_children=4, seed=seed
    )
    index = TreeIndex(tree)
    blob = serialize_index(index)
    restored = deserialize_index(tree, blob)
    assert index_structures(restored) == index_structures(index)
    assert serialize_index(restored) == blob


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_packed_index_exposes_the_tree_index_lane_surface(seed):
    tree = random_tree(
        1 + seed % 40, value_pool=(1, 2, 3), max_children=4, seed=seed
    )
    index = TreeIndex(tree)
    packed = PackedIndex(serialize_index(index))
    assert packed.n == index.n
    assert packed.all_mask == index.all_mask
    assert packed.leaf_mask == index.leaf_mask
    assert packed.first_mask == index.first_mask
    assert packed.last_mask == index.last_mask
    assert packed.label_mask == index.label_mask
    assert packed.move_groups == index.move_groups
    for label, bits in index.label_mask.items():
        assert packed.labelled(label) == bits
        assert packed.to_nodes(bits) == tuple(
            index.node_of[i] for i in iter_bits(bits)
        )
    assert packed.to_nodes(index.all_mask) == tuple(index.node_of)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_any_truncated_index_blob_raises_never_misparses(data):
    tree = random_tree(12, value_pool=(1, 2), max_children=3, seed=5)
    blob = serialize_index(TreeIndex(tree))
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(IndexFormatError):
        PackedIndex(blob[:cut])
        deserialize_index(tree, blob[:cut])


def test_deserialize_rejects_a_blob_for_the_wrong_tree():
    small, big = _trees(2, seed=9)[0], random_tree(30, seed=9)
    blob = serialize_index(TreeIndex(small))
    with pytest.raises(IndexFormatError):
        deserialize_index(big, blob)


# ---------------------------------------------------------------------------
# sidecar files
# ---------------------------------------------------------------------------


def test_sidecar_round_trips_blob_bytes(tmp_path):
    blobs = [serialize_index(TreeIndex(t)) for t in _trees(6)]
    path = str(tmp_path / "seg-00000.seg.rpridx")
    write_sidecar(path, 4, 17, blobs)
    with Sidecar(path) as sidecar:
        assert sidecar.segment_id == 4
        assert sidecar.generation == 17
        assert len(sidecar) == 6
        for i, blob in enumerate(blobs):
            assert bytes(sidecar.blob(i)) == blob
        assert sidecar.blobs(2, 5) == blobs[2:5]


def test_sidecar_path_swaps_the_segment_extension():
    assert sidecar_path("/s/seg-00003.seg") == "/s/seg-00003.rpridx"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_any_torn_sidecar_raises_never_returns_bytes(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("sidecar-torn")
    blobs = [serialize_index(TreeIndex(t)) for t in _trees(5, seed=2)]
    path = str(tmp_path / "torn.rpridx")
    write_sidecar(path, 0, 3, blobs)
    whole = Path(path).read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(whole) - 1))
    with open(path, "wb") as handle:
        handle.write(whole[:cut])
    with pytest.raises(StoreError):
        Sidecar(path).close()


def test_sidecar_rejects_interior_corruption(tmp_path):
    blobs = [serialize_index(TreeIndex(t)) for t in _trees(4, seed=6)]
    path = str(tmp_path / "flip.rpridx")
    write_sidecar(path, 0, 1, blobs)
    whole = bytearray(Path(path).read_bytes())
    # Make the offset table non-monotone: blob 2's start above its end.
    offset_at = struct.calcsize("<8sIIQI") + 8 * 2
    struct.pack_into("<Q", whole, offset_at, 1 << 40)
    with open(path, "wb") as handle:
        handle.write(whole)
    with pytest.raises(StoreError):
        with Sidecar(path) as sidecar:
            sidecar.blob(2)


# ---------------------------------------------------------------------------
# the store's sidecar lifecycle
# ---------------------------------------------------------------------------


def test_ingest_writes_generation_tied_sidecars(tmp_path):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=4)
    store.ingest(iter(_trees(11)))
    with store:
        position = 0
        for entry, segment_file in zip(
            store._manifest["segments"], _segment_files(store)
        ):
            with Sidecar(sidecar_path(segment_file)) as sidecar:
                assert sidecar.segment_id == entry["id"]
                assert sidecar.generation == entry["sidecar_gen"]
                assert sidecar.count == entry["trees"]
                for local in range(entry["trees"]):
                    tree = store.tree(position)
                    restored = deserialize_index(
                        tree, bytes(sidecar.blob(local))
                    )
                    assert index_structures(restored) == index_structures(
                        TreeIndex(tree)
                    )
                    position += 1


def test_packed_window_matches_fast_engine_and_naive_loop(tmp_path):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=8)
    store.ingest(iter(_trees(21)))
    with store:
        expected = _expected(store)
        executor._WORKER_SIDECARS.cache_clear()
        vectorized = store.run(PACKED_QUERIES, engine="vectorized")
        assert executor._packed_chunks() > 0  # packed path ran
        assert vectorized.rows == expected
        assert store.run(PACKED_QUERIES, engine="fast").rows == expected


def test_corrupt_sidecar_falls_back_then_lazily_rebuilds(tmp_path):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=6)
    store.ingest(iter(_trees(13, seed=4)))
    side_file = sidecar_path(_segment_files(store)[0])
    with open(side_file, "rb") as handle:
        size = len(handle.read())
    with open(side_file, "r+b") as handle:
        handle.truncate(size // 2)
    with store:
        expected = _expected(store)
        assert store.run(PACKED_QUERIES, engine="vectorized").rows == expected
        # The writable store noticed the tear and rewrote the sidecar.
        with Sidecar(side_file) as sidecar:
            entry = store._manifest["segments"][0]
            assert sidecar.generation == entry["sidecar_gen"]
            assert sidecar.count == entry["trees"]


def test_readonly_store_answers_without_rebuilding(tmp_path):
    path = str(tmp_path / "s")
    store = CorpusStore.create(path, segment_size=6)
    store.ingest(iter(_trees(13, seed=7)))
    store.close()
    side_file = sidecar_path(path + "/" + "seg-00000.seg")
    os.unlink(side_file)
    with CorpusStore.open(path, readonly=True) as readonly:
        expected = _expected(readonly)
        assert (
            readonly.run(PACKED_QUERIES, engine="vectorized").rows == expected
        )
        assert not os.path.exists(side_file)  # readonly never writes


def test_stale_generation_tag_is_rejected_and_retagged(tmp_path):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=6)
    store.ingest(iter(_trees(13, seed=11)))
    side_file = sidecar_path(_segment_files(store)[0])
    # Hand-retag the header's generation (u64 at offset 16): the file
    # still parses as a Sidecar, but its tag no longer matches the
    # manifest, so the store must treat it as stale.
    with open(side_file, "r+b") as handle:
        handle.seek(16)
        handle.write(struct.pack("<Q", 999))
    with Sidecar(side_file) as sidecar:
        assert sidecar.generation == 999  # parses fine; staleness is
    with store:  # the store's call
        expected = _expected(store)
        assert store.run(PACKED_QUERIES, engine="vectorized").rows == expected
        with Sidecar(side_file) as sidecar:
            assert (
                sidecar.generation
                == store._manifest["segments"][0]["sidecar_gen"]
            )


def test_replace_splices_the_sidecar_in_place(tmp_path):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=5)
    store.ingest(iter(_trees(12, seed=3)))
    with store:
        replacement = random_tree(
            17, value_pool=(1, 2), max_children=3, seed=99
        )
        store.replace(6, replacement)
        entry = store._manifest["segments"][1]
        with Sidecar(sidecar_path(_segment_files(store)[1])) as sidecar:
            assert sidecar.generation == entry["sidecar_gen"]
            local = 6 - 5  # tree 6 lives at slot 1 of segment 1
            restored = deserialize_index(
                store.tree(6), bytes(sidecar.blob(local))
            )
            assert index_structures(restored) == index_structures(
                TreeIndex(store.tree(6))
            )
        expected = _expected(store)
        assert store.run(PACKED_QUERIES, engine="vectorized").rows == expected


def test_sidecars_env_kill_switch_disables_the_packed_path(
    tmp_path, monkeypatch
):
    path = str(tmp_path / "s")
    store = CorpusStore.create(path, segment_size=6)
    store.ingest(iter(_trees(13, seed=13)))
    store.close()
    monkeypatch.setenv("REPRO_STORE_SIDECARS", "0")
    side_file = sidecar_path(path + "/" + "seg-00000.seg")
    os.unlink(side_file)
    with CorpusStore.open(path) as plain:
        expected = _expected(plain)
        assert plain.run(PACKED_QUERIES, engine="vectorized").rows == expected
        assert not os.path.exists(side_file)  # disabled: no rebuild either


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------


def _fragmented_store(tmp_path, count=25, segment_size=4):
    """A store with an under-full mid-store segment, the way one
    arises in practice: a torn segment recovered to a record prefix."""
    path = str(tmp_path / "s")
    store = CorpusStore.create(path, segment_size=segment_size)
    store.ingest(iter(_trees(count, seed=21)))
    victim = _segment_files(store)[1]
    with open(victim, "rb") as handle:
        size = len(handle.read())
    store.close()
    with open(victim, "r+b") as handle:
        handle.truncate(size // 2)  # drop whole records, not just the footer
    store = CorpusStore.open(path)
    assert store.recover() == 1
    assert store.tree_count < count  # records really were lost
    return store


def test_compact_rewrites_full_segments_without_changing_answers(tmp_path):
    store = _fragmented_store(tmp_path)
    with store:
        before = _expected(store)
        entries = store._manifest["segments"]
        assert any(
            e["trees"] != store.segment_size for e in entries[:-1]
        )  # genuinely fragmented
        generation = store.generation
        rewritten = store.compact()
        assert rewritten == len(store._manifest["segments"])
        assert store.generation == generation + 1
        entries = store._manifest["segments"]
        assert all(
            e["trees"] == store.segment_size for e in entries[:-1]
        )
        assert _expected(store) == before
        assert store.run(PACKED_QUERIES, engine="vectorized").rows == before
        assert store.run(PACKED_QUERIES, engine="fast").rows == before
        # Fresh sidecars rode along, tagged with the new generation.
        for entry, segment_file in zip(entries, _segment_files(store)):
            with Sidecar(sidecar_path(segment_file)) as sidecar:
                assert sidecar.generation == entry["sidecar_gen"]
        # On-disk files are exactly the manifest's: the old generation's
        # segments and sidecars are gone.
        names = {
            name
            for name in os.listdir(store.path)
            if name.endswith((".seg", ".rpridx"))
        }
        expected_names = set()
        for entry in entries:
            expected_names.add(entry["name"])
            expected_names.add(os.path.basename(sidecar_path(entry["name"])))
        assert names == expected_names


def test_compact_is_idempotent_and_ingest_continues_after(tmp_path):
    store = _fragmented_store(tmp_path)
    with store:
        assert store.compact() > 0
        generation = store.generation
        assert store.compact() == 0  # already compact: no-op, no bump
        assert store.generation == generation
        count = store.tree_count
        store.append(random_tree(9, value_pool=(1, 2), seed=77))
        assert store.tree_count == count + 1
        assert store.run(PACKED_QUERIES, engine="fast").rows == _expected(
            store
        )


def test_compact_cli_reports_both_outcomes(tmp_path, capsys):
    store = _fragmented_store(tmp_path)
    store.close()
    path = str(tmp_path / "s")
    assert main(["corpus", "--store", path, "--compact"]) == 0
    out = capsys.readouterr().out
    assert "compacted into" in out
    assert main(["corpus", "--store", path, "--compact"]) == 0
    assert "already compact" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# statistics memoization
# ---------------------------------------------------------------------------


def test_statistics_memoized_per_generation(tmp_path):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=4)
    store.ingest(iter(_trees(9, seed=31)))
    with store:
        first = store.statistics()
        assert store.statistics() is first  # same generation: same object
        store.append(random_tree(7, value_pool=(1, 2), seed=88))
        fresh = store.statistics()
        assert fresh is not first  # generation bump invalidates
        assert store.statistics() is fresh
