"""The zero-rebuild path: index serialization, ``.rpridx`` sidecars,
and segment compaction.

Bottom-up: :class:`PackedIndex` reads every byte :func:`serialize_index`
writes and exposes exactly the :class:`TreeIndex` lane surface
(hypothesis, arbitrary trees); the sidecar file format rejects every
torn prefix and every interior corruption rather than ever returning
wrong bytes; the store writes generation-tied sidecars at ingest,
splices them through ``replace``, rejects stale generation tags and
old format versions, lazily rebuilds what is missing or corrupt, and
keeps answering correctly (against the naive loop) through all of it;
``compact`` rewrites a recovery-fragmented store into full segments
without changing a single answer.
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
    BlobRuns,
    CorpusStore,
    Sidecar,
    StoreError,
    TreeCorpus,
    ask_query,
    caterpillar_query,
    caterpillar_relation_query,
    select_query,
    sidecar_path,
    write_sidecar,
    xpath_query,
)
from repro.corpus import executor
from repro.corpus import segment as segment_module
from repro.corpus.segment import SIDECAR_VERSION, Segment
from repro.engine.index import (
    IndexFormatError,
    PackedIndex,
    TreeIndex,
    serialize_index,
)
from repro.engine.nodeset import iter_bits
from repro.resilience.errors import ResourceExhausted
from repro.resilience.faults import Fault
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


def _assert_lane_of(blob, tree):
    """``blob`` parses to exactly the lane surface of ``TreeIndex(tree)``,
    and its child arrays give back every node address."""
    index = TreeIndex(tree)
    packed = PackedIndex(blob)
    assert (packed.n, packed.all_mask, packed.root_mask) == (
        index.n, index.all_mask, index.root_mask
    )
    assert (packed.leaf_mask, packed.first_mask, packed.last_mask) == (
        index.leaf_mask, index.first_mask, index.last_mask
    )
    assert packed.label_mask == index.label_mask
    assert packed.move_groups == index.move_groups
    assert packed.to_nodes(index.all_mask) == tuple(index.node_of)


def _assert_sidecars_hold_the_lanes(store):
    """Every segment's sidecar is tagged as its manifest entry says and
    holds each of its records' lanes."""
    position = 0
    for entry, segment_file in zip(
        store._manifest["segments"], _segment_files(store)
    ):
        with Sidecar(sidecar_path(segment_file)) as sidecar:
            assert sidecar.segment_id == entry["id"]
            assert sidecar.generation == entry["sidecar_gen"]
            assert sidecar.count == entry["trees"]
            for local in range(entry["trees"]):
                _assert_lane_of(sidecar.blob(local), store.tree(position))
                position += 1
    assert position == store.tree_count


# ---------------------------------------------------------------------------
# index serialization
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_packed_index_reads_every_byte_serialize_index_writes(seed):
    tree = random_tree(
        1 + seed % 40, value_pool=(1, 2, 3), max_children=4, seed=seed
    )
    blob = serialize_index(TreeIndex(tree))
    # ``to_nodes`` parses the child arrays that close the blob and
    # refuses a blob that ends anywhere else: it reaches len(blob).
    assert PackedIndex(blob).to_nodes(1) == ((),)
    with pytest.raises(IndexFormatError):
        PackedIndex(blob + b"\0").to_nodes(1)
    old = bytearray(blob)
    struct.pack_into("<H", old, 4, 1)  # a format-1 blob
    with pytest.raises(IndexFormatError):
        PackedIndex(bytes(old))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_packed_index_exposes_the_tree_index_lane_surface(seed):
    tree = random_tree(
        1 + seed % 40, value_pool=(1, 2, 3), max_children=4, seed=seed
    )
    index = TreeIndex(tree)
    blob = serialize_index(index)
    _assert_lane_of(blob, tree)
    packed = PackedIndex(blob)
    for label, bits in index.label_mask.items():
        assert packed.labelled(label) == bits
        assert packed.to_nodes(bits) == tuple(
            index.node_of[i] for i in iter_bits(bits)
        )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_any_truncated_index_blob_raises_never_misparses(data):
    tree = random_tree(12, value_pool=(1, 2), max_children=3, seed=5)
    blob = serialize_index(TreeIndex(tree))
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(IndexFormatError):
        PackedIndex(blob[:cut]).to_nodes(1)


# ---------------------------------------------------------------------------
# sidecar files
# ---------------------------------------------------------------------------


def test_sidecar_round_trips_blob_bytes(tmp_path):
    blobs = [serialize_index(TreeIndex(t)) for t in _trees(6)]
    path = str(tmp_path / "seg-00000.seg.rpridx")
    write_sidecar(path, 4, 17, BlobRuns(blobs))
    with Sidecar(path) as sidecar:
        assert sidecar.segment_id == 4
        assert sidecar.generation == 17
        assert len(sidecar) == 6
        for i, blob in enumerate(blobs):
            assert bytes(sidecar.blob(i)) == blob
    # A run of blobs copies as one slice of the region, its offsets
    # shifted to where it lands.  The slice pins the mapping, so this
    # sidecar is dropped, not closed.
    table = Sidecar(path).blob_table()
    assert bytes(table.region) == b"".join(blobs)
    runs = BlobRuns(blobs[:1])
    runs.copy(table, 2, 5)
    assert runs.offsets == BlobRuns(blobs[:1] + blobs[2:5]).offsets
    assert b"".join(runs.parts) == b"".join(blobs[:1] + blobs[2:5])


def test_sidecar_path_swaps_the_segment_extension():
    assert sidecar_path("/s/seg-00003.seg") == "/s/seg-00003.rpridx"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_any_torn_sidecar_raises_never_returns_bytes(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("sidecar-torn")
    blobs = [serialize_index(TreeIndex(t)) for t in _trees(5, seed=2)]
    path = str(tmp_path / "torn.rpridx")
    write_sidecar(path, 0, 3, BlobRuns(blobs))
    whole = Path(path).read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(whole) - 1))
    with open(path, "wb") as handle:
        handle.write(whole[:cut])
    with pytest.raises(StoreError):
        Sidecar(path).close()


def test_sidecar_rejects_interior_corruption(tmp_path):
    blobs = [serialize_index(TreeIndex(t)) for t in _trees(4, seed=6)]
    path = str(tmp_path / "flip.rpridx")
    write_sidecar(path, 0, 1, BlobRuns(blobs))
    whole = bytearray(Path(path).read_bytes())
    # Make the offset table non-monotone: blob 2's start above its end.
    offset_at = struct.calcsize("<8sIIQI") + 8 * 2
    struct.pack_into("<Q", whole, offset_at, 1 << 40)
    with open(path, "wb") as handle:
        handle.write(whole)
    with pytest.raises(StoreError):
        with Sidecar(path) as sidecar:
            sidecar.blob(2)
    with pytest.raises(StoreError):  # the splice path's whole-table read
        with Sidecar(path) as sidecar:
            sidecar.blob_table()


# ---------------------------------------------------------------------------
# the store's sidecar lifecycle
# ---------------------------------------------------------------------------


def test_ingest_writes_generation_tied_sidecars(tmp_path):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=4)
    store.ingest(iter(_trees(11)))
    with store:
        _assert_sidecars_hold_the_lanes(store)


def test_packed_window_matches_fast_engine_and_naive_loop(tmp_path):
    store = CorpusStore.create(str(tmp_path / "s"), segment_size=8)
    store.ingest(iter(_trees(21)))
    with store:
        expected = _expected(store)
        segment_module._SIDECARS.cache_clear()
        vectorized = store.run(PACKED_QUERIES, engine="vectorized")
        assert all(c.source == "lanes" for c in vectorized.chunks)
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
            _assert_lane_of(sidecar.blob(local), store.tree(6))
        _assert_sidecars_hold_the_lanes(store)
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


def _downgrade(path):
    """Stamp every sidecar of the store at ``path`` format version 1."""
    for name in os.listdir(path):
        if name.endswith(".rpridx"):
            with open(os.path.join(path, name), "r+b") as handle:
                handle.seek(8)  # the header's u32 format version
                handle.write(struct.pack("<I", 1))


@pytest.mark.parametrize("readonly", [True, False])
def test_format_1_sidecars_answer_like_the_naive_loop(tmp_path, readonly):
    """Sidecars of an older format fail the version check: a readonly
    store answers from trees and writes nothing, a writable one
    rewrites each sidecar at the current format on first use."""
    path = str(tmp_path / "s")
    with CorpusStore.create(path, segment_size=8) as store:
        store.ingest(iter(_trees(21, seed=1)))

    def sidecar_versions():
        return {
            name: struct.unpack_from("<I", Path(path, name).read_bytes(), 8)[0]
            for name in os.listdir(path)
            if name.endswith(".rpridx")
        }

    _downgrade(path)
    assert set(sidecar_versions().values()) == {1}
    before = {name: Path(path, name).read_bytes() for name in os.listdir(path)}
    with CorpusStore.open(path, readonly=readonly) as store:
        expected = _expected(store)
        result = store.run(PACKED_QUERIES)
        assert result.rows == expected
        if readonly:
            assert {c.source for c in result.chunks} == {"trees"}
        else:
            assert {c.source for c in result.chunks} == {"lanes"}
            _assert_sidecars_hold_the_lanes(store)
    if readonly:
        assert {
            name: Path(path, name).read_bytes() for name in os.listdir(path)
        } == before
    else:
        assert set(sidecar_versions().values()) == {SIDECAR_VERSION} == {2}


# ---------------------------------------------------------------------------
# the index source follows the sidecar, not the engine name
# ---------------------------------------------------------------------------

#: Root-context IR plans in all four dialects; ``auto`` sends several
#: of them to the reference engine on these small trees.
SOURCE_QUERIES = PACKED_QUERIES + (
    xpath_query("/σ/*"),
    caterpillar_query("(down | right)* <δ>"),
)
#: A one-tree window at position 0, one across a segment boundary, one
#: inside the short tail segment, and the whole store.
SOURCE_WINDOWS = ((0, 1), (3, 13), (17, 20), (0, 21))


@pytest.fixture
def loads(monkeypatch):
    """Counts of record unpickles and ``TreeIndex`` builds from here on,
    with every worker-side warm cache emptied first."""
    counts = {"trees": 0, "builds": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    _clear_worker_state()
    monkeypatch.setattr(Segment, "tree", counted("trees", Segment.tree))
    monkeypatch.setattr(Segment, "trees", counted("trees", Segment.trees))
    monkeypatch.setattr(
        TreeIndex, "__init__", counted("builds", TreeIndex.__init__)
    )
    yield counts
    _clear_worker_state()


def _source_store(tmp_path, loads):
    """A 21-tree store in segments of 8, and every tree's expected row;
    ``loads`` counts from zero again once both are made."""
    path = str(tmp_path / "s")
    trees = _trees(21, seed=21)
    with CorpusStore.create(path, segment_size=8) as store:
        store.ingest(iter(trees))
    expected = list(_naive_corpus_rows(trees, SOURCE_QUERIES))
    loads.update(trees=0, builds=0)
    return path, expected


@pytest.mark.parametrize("engine", ["fast", "vectorized", "auto"])
def test_sidecar_windows_load_no_tree_under_every_engine(
    tmp_path, loads, engine
):
    path, expected = _source_store(tmp_path, loads)
    with CorpusStore.open(path, readonly=True) as store:
        for start, stop in SOURCE_WINDOWS:
            result = store.run(
                SOURCE_QUERIES, engine=engine, start=start, stop=stop
            )
            assert list(result.rows) == expected[start:stop]
            assert {c.source for c in result.chunks} == {"lanes"}
        if engine == "auto":  # reference picks ride the lanes too
            assert "reference" in {plan.engine for plan in result.plans}
    assert loads == {"trees": 0, "builds": 0}


@pytest.mark.parametrize(
    "case", ["sidecars-off", "torn-readonly", "relation-query", "reference"]
)
def test_tree_path_cases_load_trees_with_identical_rows(
    tmp_path, monkeypatch, loads, case
):
    path, expected = _source_store(tmp_path, loads)
    queries, engine = SOURCE_QUERIES, "fast"
    if case == "sidecars-off":
        monkeypatch.setenv("REPRO_STORE_SIDECARS", "0")
    elif case == "torn-readonly":
        side_file = sidecar_path(os.path.join(path, "seg-00001.seg"))
        data = Path(side_file).read_bytes()
        Path(side_file).write_bytes(data[: len(data) // 2])
    elif case == "relation-query":
        relation = caterpillar_relation_query("down <δ>")
        queries = SOURCE_QUERIES + (relation,)
        relations = _naive_corpus_rows(_trees(21, seed=21), (relation,))
        expected = [row + extra for row, extra in zip(expected, relations)]
        loads.update(trees=0, builds=0)
    else:
        engine = "reference"
    with CorpusStore.open(path, readonly=True) as store:
        for start, stop in SOURCE_WINDOWS:
            result = store.run(queries, engine=engine, start=start, stop=stop)
            assert list(result.rows) == expected[start:stop]
            sources = {(c.start, c.stop): c.source for c in result.chunks}
            if case == "torn-readonly":  # only segment 1 lost its lanes
                assert all(
                    source == ("trees" if 8 <= lo < 16 else "lanes")
                    for (lo, _), source in sources.items()
                )
            else:
                assert set(sources.values()) == {"trees"}
    assert loads["trees"] > 0
    if case != "reference":  # the reference engine builds no index
        assert loads["builds"] > 0


@pytest.mark.parametrize("engine", ["fast", "vectorized", "auto"])
def test_trees_and_lanes_report_the_same_rows_and_steps(tmp_path, engine):
    """The query, not the engine name, picks the stacked pass: a
    ``TreeCorpus`` and a ``CorpusStore`` over the same trees and chunk
    bounds answer every root-context IR query in it, so they report
    the same rows and the same ``ChunkReport.steps`` — the figures the
    query service settles session quotas against."""
    trees = _trees(21, seed=21)
    path = str(tmp_path / "s")
    with CorpusStore.create(path, segment_size=8) as store:
        store.ingest(iter(trees))
    expected = list(_naive_corpus_rows(trees, SOURCE_QUERIES))
    with TreeCorpus(trees) as corpus, CorpusStore.open(
        path, readonly=True
    ) as store:
        on_trees, on_lanes = (
            source.run(
                SOURCE_QUERIES, engine=engine, chunk_size=4,
                budget_steps=10**9,
            )
            for source in (corpus, store)
        )
        assert list(on_trees.rows) == list(on_lanes.rows) == expected
    assert {c.source for c in on_trees.chunks} == {"trees"}
    assert {c.source for c in on_lanes.chunks} == {"lanes"}
    assert [(c.start, c.stop, c.steps) for c in on_trees.chunks] == [
        (c.start, c.stop, c.steps) for c in on_lanes.chunks
    ]
    assert all(c.steps > 0 for c in on_trees.chunks)


@pytest.mark.parametrize(
    "engine", ["fast", "vectorized", "auto", "reference"]
)
def test_tree_batches_evaluate_ir_queries_per_tree_only_on_reference(
    monkeypatch, engine
):
    """On trees, every root-context query with an IR plan rides the
    stacked pass under every engine but ``reference``: no per-tree
    ``evaluate_cell`` call is left, ``auto``'s reference picks
    included.  An explicit ``reference`` batch evaluates every cell."""
    trees = _trees(21, seed=21)
    calls = []
    evaluate_cell = executor.evaluate_cell

    def counted(query, tree, chosen="fast"):
        calls.append(query)
        return evaluate_cell(query, tree, chosen)

    monkeypatch.setattr(executor, "evaluate_cell", counted)
    with TreeCorpus(trees) as corpus:
        result = corpus.run(SOURCE_QUERIES, engine=engine, chunk_size=4)
    assert list(result.rows) == list(
        _naive_corpus_rows(trees, SOURCE_QUERIES)
    )
    if engine == "auto":
        assert "reference" in {plan.engine for plan in result.plans}
    cells = len(trees) * len(SOURCE_QUERIES)
    assert len(calls) == (cells if engine == "reference" else 0)


@pytest.mark.parametrize("case", ["degrade", "raise", "fault"])
def test_a_lane_served_chunk_still_meets_its_budget_and_faults(
    tmp_path, loads, case
):
    """A lane-served chunk checkpoints once per plan step for the whole
    chunk, not once per tree, yet a step cap still stops it and an
    injected fault still fires: in degrade mode the chunk falls back to
    the reference engine on its trees, in raise mode the exhaustion
    reaches the caller."""
    path, expected = _source_store(tmp_path, loads)
    with CorpusStore.open(path, readonly=True) as store:
        metered = store.run(SOURCE_QUERIES, budget_steps=10**9)
        assert list(metered.rows) == expected
        assert {c.source for c in metered.chunks} == {"lanes"}
        assert all(c.steps > 0 and not c.fell_back for c in metered.chunks)
        if case == "raise":
            with pytest.raises(ResourceExhausted) as err:
                store.run(
                    SOURCE_QUERIES, budget_steps=1, on_exhausted="raise"
                )
            assert err.value.resource == "steps"
            return
        if case == "degrade":
            result = store.run(SOURCE_QUERIES, budget_steps=1)
            error = "ResourceExhausted"
        else:
            faults = {
                index: Fault(at_checkpoint=1, kind="error")
                for index in range(len(metered.chunks))
            }
            result = store.run(SOURCE_QUERIES, faults=faults)
            error = "InjectedFault"
    assert list(result.rows) == expected
    assert all(
        c.fell_back and c.engine == "reference" and c.source == "trees"
        and error in c.error
        for c in result.chunks
    )
    assert loads["trees"] > 0


def test_a_degraded_chunk_takes_warm_trees_before_its_shard(tmp_path, loads):
    """A lane-served chunk that degrades loads its trees the way every
    chunk does: windows an earlier tree-path run left warm unpickle
    nothing."""
    path = str(tmp_path / "s")
    trees = _trees(12, seed=12)
    with CorpusStore.create(path, segment_size=12) as store:
        store.ingest(iter(trees))
    expected = list(_naive_corpus_rows(trees[:6], PACKED_QUERIES))
    with CorpusStore.open(path, readonly=True) as store:
        warm = store.run(
            PACKED_QUERIES, engine="reference", chunk_size=2, stop=6
        )
        assert [c.source for c in warm.chunks] == ["trees"] * 3
        assert loads["trees"] > 0
        loads.update(trees=0)
        result = store.run(PACKED_QUERIES, budget_steps=1, chunk_size=2, stop=6)
    assert list(result.rows) == expected
    assert len(result.chunks) == 3
    assert all(
        c.fell_back and c.source == "trees" and "ResourceExhausted" in c.error
        for c in result.chunks
    )
    assert loads["trees"] == 0


def test_tree_path_chunks_keep_a_bounded_warm_map(tmp_path, monkeypatch):
    """Every distinct window that runs on trees enters the token's warm
    chunk map; the map stays at its bound however many there are, and
    every answer still equals the per-tree loop."""
    monkeypatch.setenv("REPRO_STORE_SIDECARS", "0")
    path = str(tmp_path / "s")
    trees = _trees(48, seed=5)
    queries = PACKED_QUERIES[:2]
    expected = list(_naive_corpus_rows(trees, queries))
    _clear_worker_state()
    try:
        with CorpusStore.create(path, segment_size=16) as store:
            store.ingest(iter(trees))
            windows = [
                (start, stop)
                for start in range(48)
                for stop in range(start + 1, 49)
            ][:1_000]
            sizes = []
            for start, stop in windows:
                result = store.run(queries, start=start, stop=stop)
                assert list(result.rows) == expected[start:stop]
                assert {c.source for c in result.chunks} == {"trees"}
                sizes.append(len(executor._WINDOWS))
        assert max(sizes) == sizes[-1] == executor._WARM_CHUNKS
    finally:
        _clear_worker_state()


def test_reference_chunks_build_no_index_and_fast_ones_build_them_later(
    tmp_path, monkeypatch, loads
):
    """The reference evaluators read no index, so chunks that run on
    them warm their trees without building any; a later engine that
    reads indexes builds them on those warm trees."""
    monkeypatch.setenv("REPRO_STORE_SIDECARS", "0")
    path = str(tmp_path / "s")
    trees = _trees(12, seed=12)
    expected = _naive_corpus_rows(trees, PACKED_QUERIES)
    with CorpusStore.create(path, segment_size=12) as store:
        store.ingest(iter(trees))
        loads.update(trees=0, builds=0)
        reference = store.run(PACKED_QUERIES, engine="reference", chunk_size=3)
        assert reference.rows == expected
        assert loads["trees"] > 0 and loads["builds"] == 0
        loads.update(trees=0)
        fast = store.run(PACKED_QUERIES, engine="fast", chunk_size=3)
        assert fast.rows == expected
        assert {c.source for c in fast.chunks} == {"trees"}
        assert loads == {"trees": 0, "builds": 12}  # warm trees, new indexes


# ---------------------------------------------------------------------------
# kept stacked shards
# ---------------------------------------------------------------------------


def _clear_worker_state():
    for cache in (
        segment_module._SEGMENTS,
        segment_module._SIDECARS,
        executor._WINDOWS,
        executor._ASKED_ONCE,
    ):
        cache.cache_clear()


@pytest.fixture
def stacks(monkeypatch):
    """One entry per shard the executor stacks from here on, with every
    worker-side warm cache emptied first."""
    stacked = []
    real = executor.StackedShard

    def counting(indexes):
        stacked.append(len(indexes))
        return real(indexes)

    _clear_worker_state()
    monkeypatch.setattr(executor, "StackedShard", counting)
    yield stacked
    _clear_worker_state()


def _kept_windows():
    """``(start, stop)`` of every kept lane window, oldest first."""
    return [
        (start, stop)
        for _, start, stop, tag in executor._WINDOWS
        if tag is not None
    ]


def test_a_window_is_stacked_on_its_first_two_requests_only(tmp_path, stacks):
    path = str(tmp_path / "s")
    trees = _trees(24, seed=8)
    with CorpusStore.create(path, segment_size=8) as store:
        store.ingest(iter(trees))
    expected = list(_naive_corpus_rows(trees, PACKED_QUERIES))
    with CorpusStore.open(path, readonly=True) as store:

        def ask(start, stop):
            before = len(stacks)
            result = store.run(
                PACKED_QUERIES, start=start, stop=stop, chunk_size=8,
                budget_steps=10**9,
            )
            assert list(result.rows) == expected[start:stop]
            assert {c.source for c in result.chunks} == {"lanes"}
            return len(stacks) - before, [c.steps for c in result.chunks]

        asked = [ask(0, 8) for _ in range(5)]
        assert [count for count, _ in asked] == [1, 1, 0, 0, 0]
        # A kept shard spends what a fresh one does: the quota
        # accounting does not see the cache.
        assert len({tuple(steps) for _, steps in asked}) == 1
        assert _kept_windows() == [(0, 8)]
        assert ask(9, 13)[0] == 1  # asked once: stacked, not kept
        assert ask(16, 24)[0] == 1
        assert _kept_windows() == [(0, 8)]
        assert ask(16, 24)[0] == 1  # the second request keeps it
        assert _kept_windows() == [(0, 8), (16, 24)]
        assert ask(16, 24)[0] == 0


def test_a_sidecar_opens_once_per_tag(tmp_path, monkeypatch):
    """The store's sidecar check and the chunks' lane loads share one
    open file: a first run over an 8-segment store opens each sidecar
    once, and a run after one replace opens only the rewritten one."""
    opened = []
    init = Sidecar.__init__

    def counting(self, path):
        opened.append(os.path.basename(path))
        init(self, path)

    with CorpusStore.create(str(tmp_path / "s"), segment_size=4) as store:
        store.ingest(iter(_trees(32, seed=6)))
        monkeypatch.setattr(Sidecar, "__init__", counting)
        result = store.run(PACKED_QUERIES)
        assert {c.source for c in result.chunks} == {"lanes"}
        assert sorted(opened) == [
            f"seg-{i:05d}.rpridx" for i in range(8)
        ]
        store.replace(5, random_tree(4, value_pool=(1,), seed=2))
        del opened[:]
        result = store.run(PACKED_QUERIES)
        assert {c.source for c in result.chunks} == {"lanes"}
        assert result.rows == _expected(store)
        assert opened == ["seg-00001.rpridx"]


@pytest.mark.parametrize("first", ["lanes", "trees"])
def test_handles_with_and_without_sidecars_keep_their_sources(
    tmp_path, first
):
    """A sidecars-off handle of a store has the same token as a
    sidecars-on one: in one process, either order, each answers like
    the per-tree loop and reports its own source, also once the other
    has kept its windows."""
    path = str(tmp_path / "s")
    trees = _trees(21, seed=17)
    with CorpusStore.create(path, segment_size=8) as store:
        store.ingest(iter(trees))
    expected = _naive_corpus_rows(trees, PACKED_QUERIES)
    order = ("lanes", "trees") if first == "lanes" else ("trees", "lanes")
    for _ in range(3):
        for source in order:
            with CorpusStore.open(
                path, readonly=True, sidecars=source == "lanes"
            ) as store:
                result = store.run(PACKED_QUERIES)
            assert result.rows == expected
            assert {c.source for c in result.chunks} == {source}


def _tear(path):
    """Cut ``path`` to half its bytes.  The cut copy replaces the file
    by rename, so a mapping of the old file stays whole."""
    data = Path(path).read_bytes()
    aside = path + ".torn"
    Path(aside).write_bytes(data[: len(data) // 2])
    os.replace(aside, path)


@pytest.mark.parametrize(
    "change", ["replace", "compact", "torn", "format-1"]
)
def test_kept_shards_never_answer_for_changed_bytes(tmp_path, stacks, change):
    """Every window's shard is kept, then the bytes under some of them
    change; the next run of every window answers like the naive loop
    over the store's trees as they are now."""
    if change == "compact":
        store = _fragmented_store(tmp_path)
    else:
        store = CorpusStore.create(str(tmp_path / "s"), segment_size=8)
        store.ingest(iter(_trees(21, seed=3)))
    path = store.path
    with store:
        before = _expected(store)
        for _ in range(3):
            assert store.run(PACKED_QUERIES).rows == before
        assert _kept_windows()
        if change == "replace":
            store.replace(2, random_tree(1, value_pool=(1,), seed=1))
        elif change == "compact":
            assert store.compact() > 0
        expected = _expected(store)
        if change == "replace":
            assert expected != before
        result = store.run(PACKED_QUERIES)
        assert result.rows == expected
        assert {c.source for c in result.chunks} == {"lanes"}
    if change in ("torn", "format-1"):
        if change == "torn":
            _tear(sidecar_path(os.path.join(path, "seg-00001.seg")))
        else:
            _downgrade(path)
        for readonly in (True, False):  # answered from trees, then rebuilt
            with CorpusStore.open(path, readonly=readonly) as store:
                result = store.run(PACKED_QUERIES)
                assert result.rows == _expected(store)
                if not readonly:
                    assert {c.source for c in result.chunks} == {"lanes"}


def test_a_failed_replace_commit_leaves_no_entry_for_the_old_sidecar(
    tmp_path, monkeypatch
):
    """A replace whose manifest commit fails has already swapped in the
    new segment and sidecar, while the manifest on disk still names the
    old sidecar's tag.  The old sidecar's open entry went with the
    swap, so a reader opened from that manifest answers from the bytes
    on disk, not from the lanes of a sidecar that is gone."""
    path = str(tmp_path / "s")
    with CorpusStore.create(path, segment_size=8) as store:
        store.ingest(iter(_trees(21, seed=3)))
        before = _expected(store)
        for _ in range(2):  # every window's lanes parsed and kept
            assert store.run(PACKED_QUERIES).rows == before

        def disk_full():
            raise OSError("no space left on device")

        monkeypatch.setattr(store, "_save_manifest", disk_full)
        with pytest.raises(OSError):
            store.replace(2, random_tree(1, value_pool=(1,), seed=1))
        with CorpusStore.open(path, readonly=True) as reader:
            result = reader.run(PACKED_QUERIES)
            assert result.rows == _expected(reader) != before
            assert result.chunks[0].source == "trees"


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
        assert {e["sidecar_gen"] for e in entries} == {store.generation}
        _assert_sidecars_hold_the_lanes(store)
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
