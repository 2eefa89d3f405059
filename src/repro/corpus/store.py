"""``CorpusStore`` — a corpus that lives on disk, queried in place.

The store is a directory: a ``store.json`` manifest plus numbered
segment files (:mod:`repro.corpus.segment`).  Everything the paper's
"fixed query, huge data" reading needs at scale follows from three
properties:

* **streaming ingest** — :meth:`CorpusStore.ingest` consumes any tree
  iterator (e.g. :func:`repro.trees.iter_xml_stream` over a multi-
  gigabyte dump) and writes records straight through, so peak memory
  is bounded by one document plus one segment's footer rows, never by
  the corpus;
* **mmap-lazy shards** — queries route contiguous shards of a segment
  to workers that open the segment memory-mapped and unpickle only
  their shard's byte range; the parent ships byte coordinates, not
  pickles, and warm workers keyed by ``(token, shard)`` skip even
  that;
* **incremental repair** — :meth:`replace` copies every untouched
  record of the edited segment byte-for-byte, decodes at most the
  edited one, and with an edit site patches the damaged tree's cached
  :class:`~repro.engine.index.TreeIndex` through
  :func:`~repro.engine.index.repair_index` (a subtree splice, ~an
  order of magnitude cheaper than a rebuild); it bumps the store
  generation, which retires every worker's warm state and every
  statistics-keyed cached plan for the old corpus.

Statistics aggregate from per-segment footer summaries — opening and
planning over a million-tree store reads kilobytes of manifest, not
the records.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..engine.index import (
    TreeIndex,
    adopt_index,
    index_for,
    repair_index,
    serialize_index,
)
from ..engine.stats import CorpusStatistics, _fingerprint
from ..trees.tree import Tree
from .executor import BatchResult, WorkerPools, _chunk_bounds, run_batch
from .query import CorpusQuery
from .segment import (
    Segment,
    SegmentWriter,
    Sidecar,
    StoreCorruptError,
    StoreError,
    StoreLockedError,
    StoreMissingError,
    StoreVersionError,
    recover_segment,
    sidecar_path,
    write_sidecar,
)

__all__ = [
    "CorpusStore",
    "StoreError",
    "StoreCorruptError",
    "StoreLockedError",
    "StoreMissingError",
    "StoreVersionError",
]

MANIFEST = "store.json"
LOCKFILE = "store.lock"
FORMAT = "repro-corpus-store"
FORMAT_VERSION = 1

#: Trees per segment.  Small enough that a segment rewrite (replace)
#: and a shard load stay cheap, big enough that a 100k-tree store is a
#: few dozen files, not thousands.
DEFAULT_SEGMENT_SIZE = 2048

#: How many segments' trees the store keeps materialized for point
#: reads (:meth:`CorpusStore.tree`).  Batches never use it — serial
#: and fanned-out runs alike load shards through the executor's warm
#: state — so it bounds point-read memory at roughly
#: ``_LOADED_SEGMENTS * segment_size`` trees however big the store is.
_LOADED_SEGMENTS = 8


def _segment_name(segment_id: int) -> str:
    return f"seg-{segment_id:05d}.seg"


def _sidecars_enabled(requested: bool) -> bool:
    """``REPRO_STORE_SIDECARS=0`` force-disables index sidecars for the
    whole process — the oracle's answer-path-equivalence switch."""
    env = os.environ.get("REPRO_STORE_SIDECARS", "").strip().lower()
    if env in ("0", "false", "no", "off"):
        return False
    return requested


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid still running (best-effort)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's pid
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


def _acquire_writer_lock(path: str) -> str:
    """Take the store's advisory single-writer lock (a ``store.lock``
    file holding the owner's pid), stealing a stale lock whose owner
    died.  Raises :class:`StoreLockedError` when a *live* process holds
    it — the fail-fast alternative to two writers racing the manifest."""
    lock_path = os.path.join(path, LOCKFILE)
    me = os.getpid()
    for _ in range(2):  # second pass: retry after removing a stale lock
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                with open(lock_path, "r", encoding="utf-8") as handle:
                    holder = int(handle.read().strip() or "0")
            except (OSError, ValueError):
                holder = 0
            if holder == me:
                return lock_path  # re-entrant within one process
            if holder and _pid_alive(holder):
                raise StoreLockedError(
                    f"corpus store at {path} is locked for writing by "
                    f"pid {holder} ({lock_path}); open it readonly or "
                    f"wait for the writer to finish"
                )
            try:  # the owner is gone: the lock is stale, steal it
                os.unlink(lock_path)
            except FileNotFoundError:
                pass
            continue
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{me}\n")
        return lock_path
    raise StoreLockedError(  # pragma: no cover - lost a create race twice
        f"could not acquire the writer lock at {lock_path}"
    )


def _release_writer_lock(lock_path: Optional[str]) -> None:
    """Drop the lock if this process still owns it."""
    if lock_path is None:
        return
    try:
        with open(lock_path, "r", encoding="utf-8") as handle:
            holder = int(handle.read().strip() or "0")
    except (OSError, ValueError):
        return
    if holder == os.getpid():
        try:
            os.unlink(lock_path)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _aggregate(rows: Sequence[list]) -> Dict[str, object]:
    """Segment-level statistics summary from footer rows — everything
    :meth:`CorpusStore.statistics` needs without reopening the segment."""
    labels: Dict[str, int] = {}
    for row in rows:
        for name, count in row[3]:
            labels[name] = labels.get(name, 0) + count
    return {
        "trees": len(rows),
        "nodes": sum(row[0] for row in rows),
        "max_n": max((row[0] for row in rows), default=0),
        "sum_height": sum(row[1] for row in rows),
        "sum_leaves": sum(row[2] for row in rows),
        "sum_fanout": sum(row[5] for row in rows),
        "sum_subtree": sum(row[6] for row in rows),
        "labels": dict(sorted(labels.items())),
        "chain": _fingerprint("|".join(row[7] for row in rows)),
    }


class CorpusStore:
    """A disk-backed, sharded corpus with the :class:`TreeCorpus` query
    surface.  Use :meth:`create` / :meth:`open`, not the constructor."""

    def __init__(self, path: str, manifest: Dict[str, object]):
        self.path = path
        self._manifest = manifest
        self._segments: Dict[int, Segment] = {}       # seg index -> reader
        self._loaded: "OrderedDict[int, Tuple[Tree, ...]]" = OrderedDict()
        self._stats: Optional[CorpusStatistics] = None
        self._stats_generation = -1
        self._use_sidecars = True
        # segment index -> (generation checked, (sidecar path, tag) | None)
        self._sidecar_ok: Dict[int, Tuple[int, Optional[Tuple[str, int]]]] = {}
        self.pools = WorkerPools()
        self._lock_path: Optional[str] = None  # held writer lock, if any
        digest = hashlib.sha1(
            os.path.abspath(path).encode("utf-8")
        ).hexdigest()[:12]
        self._identity = f"store-{digest}"

    # -- lifecycle ----------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        sidecars: bool = True,
    ) -> "CorpusStore":
        """Initialise an empty store at ``path`` (created if missing;
        must not already hold a store).  ``sidecars=False`` (or
        ``REPRO_STORE_SIDECARS=0`` in the environment) turns off index
        sidecar maintenance for this handle."""
        if segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        os.makedirs(path, exist_ok=True)
        manifest_path = os.path.join(path, MANIFEST)
        if os.path.exists(manifest_path):
            raise StoreError(f"a corpus store already exists at {path}")
        manifest = {
            "format": FORMAT,
            "version": FORMAT_VERSION,
            "generation": 0,
            "segment_size": segment_size,
            "segments": [],
            "tree_count": 0,
            "node_count": 0,
        }
        store = cls(path, manifest)
        store._use_sidecars = _sidecars_enabled(sidecars)
        store._lock_path = _acquire_writer_lock(path)
        store._save_manifest()
        return store

    @classmethod
    def open(
        cls, path: str, readonly: bool = False, sidecars: bool = True
    ) -> "CorpusStore":
        """Open an existing store.

        Unless ``readonly``, takes the advisory single-writer lock
        (``store.lock``): a second process opening the same store for
        writing gets a :class:`StoreLockedError` immediately instead of
        silently racing the manifest; a lock left by a dead process is
        stolen.  Read-only opens never lock (and refuse mutation).

        Raises :class:`StoreMissingError` when ``path`` holds no store,
        :class:`StoreVersionError` on a format written by a different
        version, :class:`StoreCorruptError` on an unreadable manifest —
        never a raw ``OSError`` for these cases."""
        manifest_path = os.path.join(path, MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError as exc:
            raise StoreMissingError(
                f"no corpus store at {path} (missing {MANIFEST})"
            ) from exc
        except ValueError as exc:
            raise StoreCorruptError(
                f"unreadable store manifest at {manifest_path}"
            ) from exc
        if manifest.get("format") != FORMAT:
            raise StoreMissingError(
                f"{manifest_path} is not a corpus store manifest"
            )
        if manifest.get("version") != FORMAT_VERSION:
            raise StoreVersionError(
                f"store at {path} is format v{manifest.get('version')}; "
                f"this build reads v{FORMAT_VERSION}"
            )
        store = cls(path, manifest)
        store._readonly = readonly
        store._use_sidecars = _sidecars_enabled(sidecars)
        if not readonly:
            store._lock_path = _acquire_writer_lock(path)
        return store

    @property
    def readonly(self) -> bool:
        return getattr(self, "_readonly", False)

    def _writable(self) -> None:
        if self.readonly:
            raise StoreError(
                f"store at {self.path} was opened readonly; "
                f"reopen it without readonly=True to write"
            )

    def close(self) -> None:
        """Release mmaps, loaded trees, worker pools and the writer
        lock."""
        for segment in self._segments.values():
            segment.close()
        self._segments.clear()
        self._loaded.clear()
        self.pools.close()
        _release_writer_lock(self._lock_path)
        self._lock_path = None

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- manifest -----------------------------------------------------

    def _save_manifest(self) -> None:
        """Atomic manifest update: write-aside then rename, so a crash
        leaves either the old or the new manifest, never a torn one."""
        final = os.path.join(self.path, MANIFEST)
        aside = final + ".tmp"
        with open(aside, "w", encoding="utf-8") as handle:
            json.dump(self._manifest, handle, indent=1, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(aside, final)

    @property
    def generation(self) -> int:
        return self._manifest["generation"]

    @property
    def segment_size(self) -> int:
        return self._manifest["segment_size"]

    @property
    def tree_count(self) -> int:
        return self._manifest["tree_count"]

    @property
    def node_count(self) -> int:
        return self._manifest["node_count"]

    def __len__(self) -> int:
        return self.tree_count

    @property
    def token(self) -> str:
        """The batch-executor corpus token.  Embeds the generation, so
        any mutation retires every worker's warm shard state and every
        cache keyed against the old corpus."""
        return f"{self._identity}-g{self.generation}"

    def __repr__(self) -> str:
        return (
            f"CorpusStore({self.path!r}, {self.tree_count} trees, "
            f"{len(self._manifest['segments'])} segments, "
            f"generation {self.generation})"
        )

    # -- writing ------------------------------------------------------

    def _bump(self) -> None:
        self._manifest["generation"] += 1
        totals = self._manifest["segments"]
        self._manifest["tree_count"] = sum(s["trees"] for s in totals)
        self._manifest["node_count"] = sum(s["nodes"] for s in totals)
        self._save_manifest()

    def _record_seal(
        self,
        segment_id: int,
        footer: Dict[str, object],
        known: bool,
        sidecar_gen: Optional[int] = None,
    ) -> None:
        segments: List[Dict[str, object]] = self._manifest["segments"]
        name = (
            segments[[s["id"] for s in segments].index(segment_id)]["name"]
            if known
            else _segment_name(segment_id)
        )
        entry = {
            "name": name,
            "id": segment_id,
            "trees": footer["trees"],
            "nodes": footer["nodes"],
            "summary": _aggregate(footer["stats"]),
        }
        if sidecar_gen is not None:
            entry["sidecar_gen"] = sidecar_gen
        if known:
            segments[[s["id"] for s in segments].index(segment_id)] = entry
        else:
            segments.append(entry)

    def ingest(self, trees: Iterable[Tree]) -> int:
        """Append every tree of an iterator; returns how many.

        Streaming: trees are pickled and written as they arrive,
        segments seal (and enter the manifest) every ``segment_size``
        trees, and nothing already consumed stays referenced — feed it
        :func:`repro.trees.iter_xml_stream` and peak memory tracks the
        largest single document, not the corpus."""
        self._writable()
        segments: List[Dict[str, object]] = self._manifest["segments"]
        writer: Optional[SegmentWriter] = None
        resumed = False
        appended = 0
        blobs: List[bytes] = []

        def seal(writer: SegmentWriter, resumed: bool) -> None:
            # The sidecar lands (tagged with the post-ingest generation)
            # before the manifest does: a crash in between reads as a
            # generation mismatch and a rebuild, never as stale indexes.
            footer = writer.seal()
            tag: Optional[int] = None
            if self._use_sidecars:
                tag = self.generation + 1
                write_sidecar(
                    sidecar_path(writer.path), writer.segment_id, tag, blobs
                )
            self._record_seal(
                writer.segment_id, footer, resumed, sidecar_gen=tag
            )

        try:
            for tree in trees:
                if not isinstance(tree, Tree):
                    raise TypeError(
                        f"ingest expects Tree instances, got "
                        f"{type(tree).__name__}"
                    )
                if writer is None:
                    if (
                        segments
                        and segments[-1]["trees"] < self.segment_size
                    ):
                        last = segments[-1]
                        blobs = (
                            self._segment_blobs(len(segments) - 1)
                            if self._use_sidecars else []
                        )
                        self._evict_segment(len(segments) - 1)
                        writer = SegmentWriter.resume(
                            os.path.join(self.path, last["name"]), last["id"]
                        )
                        resumed = True
                    else:
                        segment_id = (
                            segments[-1]["id"] + 1 if segments else 0
                        )
                        writer = SegmentWriter(
                            os.path.join(
                                self.path, _segment_name(segment_id)
                            ),
                            segment_id,
                        )
                        resumed = False
                        blobs = []
                writer.append(tree)
                if self._use_sidecars:
                    blobs.append(serialize_index(index_for(tree)))
                appended += 1
                if writer.tree_count >= self.segment_size:
                    seal(writer, resumed)
                    writer = None
            if writer is not None:
                seal(writer, resumed)
                writer = None
        finally:
            if writer is not None:
                writer.abort()  # error mid-stream: drop the torn segment
        if appended:
            self._bump()
        return appended

    def append(self, tree: Tree) -> int:
        """Append one tree; returns its corpus position."""
        position = self.tree_count
        self.ingest((tree,))
        return position

    def replace(
        self, position: int, tree: Tree, site: Optional[tuple] = None
    ) -> None:
        """Replace the tree at ``position``; rewrites its segment.

        Only the edited record is encoded: every other record and its
        footer statistics row is copied byte-for-byte
        (:meth:`SegmentWriter.append_raw`) into a write-aside file that
        ``os.replace`` swaps in.

        With ``site`` (the root node of the edited subtree, as produced
        by :meth:`Tree.replace_subtree`), the old tree — the one record
        unpickled, unless the point-read LRU holds its segment — has
        its cached index spliced into the new tree's through
        :func:`~repro.engine.index.repair_index` instead of being
        rebuilt — the incremental path the ``store`` bench gates at
        ≥5x a fresh build.  Either way the store generation bumps, so
        stale worker caches and plans can never answer for the old
        corpus."""
        self._writable()
        segment_index, local = self._locate(position)
        entry = self._manifest["segments"][segment_index]
        segment = self._segment(segment_index)
        loaded = self._loaded.get(segment_index)
        if site is not None:
            old_tree = (
                loaded[local] if loaded is not None else segment.tree(local)
            )
            repaired = repair_index(index_for(old_tree), tree, site)
            adopt_index(tree, repaired)
        segment_path = os.path.join(self.path, entry["name"])
        # Splice the sidecar, not just the segment: unchanged records
        # keep their blobs byte-for-byte (rebuilt from the records when
        # no valid sidecar exists), the edited record gets the repaired
        # (or rebuilt) index serialized fresh.
        blobs = (
            self._segment_blobs(segment_index) if self._use_sidecars else None
        )
        rewrite_path = segment_path + ".rewrite"
        side_path = sidecar_path(segment_path)
        writer = SegmentWriter(rewrite_path, entry["id"])
        try:
            for i in range(segment.tree_count):
                if i == local:
                    writer.append(tree)
                else:
                    writer.append_raw(
                        segment.record_payload(i), segment.stats_row(i)
                    )
            footer = writer.seal()
            self._evict_segment(segment_index)
            # Retire the old sidecar *before* the segment bytes move: no
            # crash window leaves a valid-looking sidecar describing
            # bytes that are no longer there.
            _unlink(side_path)
            os.replace(rewrite_path, segment_path)
        except BaseException:
            writer.abort()
            _unlink(rewrite_path)  # sealed: abort() leaves the file
            raise
        next_gen = self.generation + 1
        self._record_seal(
            entry["id"], footer, True,
            sidecar_gen=next_gen if self._use_sidecars else None,
        )
        # A segment materialized for point reads stays so, patched
        # with the new tree (whose index the repair just adopted); one
        # that was not is left for the next read to load.
        if loaded is not None:
            self._loaded[segment_index] = (
                loaded[:local] + (tree,) + loaded[local + 1:]
            )
        try:
            if blobs is not None:
                blobs[local] = serialize_index(index_for(tree))
                write_sidecar(side_path, entry["id"], next_gen, blobs)
        finally:
            # The segment bytes have moved: bump even if the sidecar
            # write failed, or this handle's warm worker state would go
            # on answering for the old tree under the old token.  The
            # manifest then names a missing sidecar, which rebuilds.
            self._bump()

    # -- reading ------------------------------------------------------

    def _locate(self, position: int) -> Tuple[int, int]:
        if not 0 <= position < self.tree_count:
            raise IndexError(position)
        offset = 0
        for segment_index, entry in enumerate(self._manifest["segments"]):
            if position < offset + entry["trees"]:
                return segment_index, position - offset
            offset += entry["trees"]
        raise IndexError(position)  # pragma: no cover - manifest counts

    def _segment(self, segment_index: int) -> Segment:
        segment = self._segments.get(segment_index)
        if segment is None:
            entry = self._manifest["segments"][segment_index]
            segment = Segment(os.path.join(self.path, entry["name"]))
            self._segments[segment_index] = segment
        return segment

    def _evict_segment(self, segment_index: int) -> None:
        segment = self._segments.pop(segment_index, None)
        if segment is not None:
            segment.close()
        self._loaded.pop(segment_index, None)

    def _load_segment(self, segment_index: int) -> Tuple[Tree, ...]:
        """This segment's trees, via a bounded LRU of materialized
        segments — the warm state of point reads (:meth:`tree`)."""
        cached = self._loaded.get(segment_index)
        if cached is not None:
            self._loaded.move_to_end(segment_index)
            return cached
        trees = self._segment(segment_index).trees()
        self._loaded[segment_index] = trees
        while len(self._loaded) > _LOADED_SEGMENTS:
            self._loaded.popitem(last=False)
        return trees

    # -- index sidecars -----------------------------------------------

    def _sidecar_file(self, segment_index: int) -> str:
        entry = self._manifest["segments"][segment_index]
        return sidecar_path(os.path.join(self.path, entry["name"]))

    def _read_valid_sidecar(self, segment_index: int, read):
        """``read(sidecar)`` on a segment's open sidecar, or ``None``
        when the sidecar is missing, corrupt, or tagged for a different
        version of the segment's bytes."""
        entry = self._manifest["segments"][segment_index]
        tag = entry.get("sidecar_gen")
        if tag is None:
            return None
        try:
            with Sidecar(self._sidecar_file(segment_index)) as sidecar:
                if (
                    sidecar.segment_id == entry["id"]
                    and sidecar.generation == tag
                    and sidecar.count == entry["trees"]
                ):
                    return read(sidecar)
        except (OSError, StoreError):
            pass
        return None

    def _valid_sidecar_blobs(
        self, segment_index: int
    ) -> Optional[List[bytes]]:
        """Every blob of a segment's valid sidecar, or ``None``."""
        return self._read_valid_sidecar(segment_index, Sidecar.blobs)

    def _record_blobs(self, segment_index: int) -> List[bytes]:
        """Every index blob of a segment, rebuilt from its records."""
        segment = self._segment(segment_index)
        return [
            serialize_index(TreeIndex(segment.tree(i)))
            for i in range(segment.tree_count)
        ]

    def _segment_blobs(self, segment_index: int) -> List[bytes]:
        """Every index blob of a segment — from its sidecar when the
        generation tag matches, else rebuilt from the records."""
        existing = self._valid_sidecar_blobs(segment_index)
        if existing is not None:
            return existing
        return self._record_blobs(segment_index)

    def _rebuild_sidecar(
        self, segment_index: int
    ) -> Optional[Tuple[str, int]]:
        """Rebuild a missing/corrupt sidecar from the segment's records
        and retag the manifest entry — no generation bump, the corpus
        bytes did not change."""
        entry = self._manifest["segments"][segment_index]
        path = self._sidecar_file(segment_index)
        tag = self.generation
        blobs = self._record_blobs(segment_index)
        write_sidecar(path, entry["id"], tag, blobs)
        entry["sidecar_gen"] = tag
        self._save_manifest()
        return (path, tag)

    def _sidecar_spec(
        self, segment_index: int
    ) -> Optional[Tuple[str, int]]:
        """The ``(sidecar path, generation tag)`` workers should mmap
        for this segment, or ``None`` to rebuild indexes from records.

        Validated once per (segment, generation); a writable store
        lazily rebuilds an invalid sidecar here, a readonly one falls
        back per chunk."""
        if not self._use_sidecars:
            return None
        cached = self._sidecar_ok.get(segment_index)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        spec = self._read_valid_sidecar(
            segment_index, lambda sidecar: (sidecar.path, sidecar.generation)
        )
        if spec is None and not self.readonly:
            spec = self._rebuild_sidecar(segment_index)
        self._sidecar_ok[segment_index] = (self.generation, spec)
        return spec

    def tree(self, position: int) -> Tree:
        """The tree at ``position`` (loads its segment, LRU-cached)."""
        segment_index, local = self._locate(position)
        return self._load_segment(segment_index)[local]

    def trees(self, start: int = 0, stop: Optional[int] = None) -> Iterator[Tree]:
        """Iterate trees ``[start, stop)`` without holding extra
        segments — a full scan touches each segment once."""
        stop = self.tree_count if stop is None else min(stop, self.tree_count)
        position = start
        while position < stop:
            segment_index, local = self._locate(position)
            entry = self._manifest["segments"][segment_index]
            hi = min(entry["trees"], local + (stop - position))
            segment = self._segment(segment_index)
            for i in range(local, hi):
                yield segment.tree(i)
            position += hi - local

    def statistics(self) -> CorpusStatistics:
        """Aggregate corpus statistics from the manifest's per-segment
        summaries — no record is read, whatever the store size.  Cached
        per generation; any mutation changes the fingerprint, which
        invalidates statistics-keyed plan caches."""
        if self._stats is not None and self._stats_generation == self.generation:
            return self._stats
        summaries = [
            entry["summary"] for entry in self._manifest["segments"]
        ]
        count = sum(s["trees"] for s in summaries)
        total = sum(s["nodes"] for s in summaries)
        labels: Dict[str, int] = {}
        for summary in summaries:
            for name, c in summary["labels"].items():
                labels[name] = labels.get(name, 0) + c
        chain = "|".join(s["chain"] for s in summaries)
        self._stats = CorpusStatistics(
            tree_count=count,
            total_nodes=total,
            n=total / count if count else 0.0,
            max_n=max((s["max_n"] for s in summaries), default=0),
            height=sum(s["sum_height"] for s in summaries) / count
            if count else 0.0,
            leaf_count=sum(s["sum_leaves"] for s in summaries) / count
            if count else 0.0,
            label_counts=tuple(sorted(labels.items())),
            avg_fanout=sum(s["sum_fanout"] for s in summaries) / count
            if count else 0.0,
            avg_subtree=sum(s["sum_subtree"] for s in summaries) / count
            if count else 0.0,
            fingerprint=_fingerprint(f"{chain}#g{self.generation}"),
        )
        self._stats_generation = self.generation
        return self._stats

    def recover(self) -> int:
        """Reseal every torn segment in place (dropping torn tail
        records), refresh the manifest, and return how many segments
        needed repair.  The counterpart of a crash mid-ingest; it also
        removes the write-aside file of a crashed :meth:`replace`."""
        self._writable()
        named = {entry["name"] for entry in self._manifest["segments"]}
        for name in os.listdir(self.path):
            # A replace that died between its seal and its swap.
            if name.endswith(".seg.rewrite") and name not in named:
                _unlink(os.path.join(self.path, name))
        repaired = 0
        for segment_index, entry in enumerate(self._manifest["segments"]):
            segment_path = os.path.join(self.path, entry["name"])
            try:
                self._segment(segment_index)
            except StoreCorruptError:
                self._evict_segment(segment_index)
                # The sidecar goes first: once the segment is resealed
                # with records dropped, a surviving sidecar would look
                # valid while describing the pre-crash bytes.  Dropping
                # it forces a lazy rebuild instead.
                _unlink(sidecar_path(segment_path))
                footer = recover_segment(segment_path)
                self._record_seal(entry["id"], footer, True)
                repaired += 1
        if repaired:
            self._bump()
        return repaired

    def compact(self) -> int:
        """Repack the store so every segment but the last holds exactly
        ``segment_size`` trees; returns how many segments the compacted
        store has (0 when it was already compact).

        Under-full segments accumulate when :meth:`recover` drops torn
        records mid-store; compaction rewrites the records (copied
        byte-for-byte, no pickle round-trip) and their sidecar blobs
        into freshly named segments, commits them with one atomic
        manifest replace under a generation bump, then unlinks the old
        files — a crash at any point leaves either the old store or the
        new one, plus at worst some unreferenced garbage files."""
        self._writable()
        segments: List[Dict[str, object]] = self._manifest["segments"]
        if not segments or all(
            entry["trees"] == self.segment_size for entry in segments[:-1]
        ):
            return 0
        next_gen = self.generation + 1
        old_files = [os.path.join(self.path, e["name"]) for e in segments]
        new_entries: List[Dict[str, object]] = []
        writer: Optional[SegmentWriter] = None
        blobs: List[bytes] = []
        new_id = 0

        def seal(writer: SegmentWriter) -> None:
            footer = writer.seal()
            entry = {
                "name": os.path.basename(writer.path),
                "id": writer.segment_id,
                "trees": footer["trees"],
                "nodes": footer["nodes"],
                "summary": _aggregate(footer["stats"]),
            }
            if self._use_sidecars:
                entry["sidecar_gen"] = next_gen
                write_sidecar(
                    sidecar_path(writer.path),
                    writer.segment_id, next_gen, blobs,
                )
            new_entries.append(entry)

        try:
            for segment_index in range(len(segments)):
                segment = self._segment(segment_index)
                src_blobs = (
                    self._valid_sidecar_blobs(segment_index)
                    if self._use_sidecars else None
                )
                for i in range(segment.tree_count):
                    if writer is None:
                        name = f"seg-{new_id:05d}-g{next_gen}.seg"
                        writer = SegmentWriter(
                            os.path.join(self.path, name), new_id
                        )
                        new_id += 1
                        blobs = []
                    writer.append_raw(
                        segment.record_payload(i), segment.stats_row(i)
                    )
                    if self._use_sidecars:
                        blobs.append(
                            src_blobs[i] if src_blobs is not None
                            else serialize_index(TreeIndex(segment.tree(i)))
                        )
                    if writer.tree_count >= self.segment_size:
                        seal(writer)
                        writer = None
            if writer is not None:
                seal(writer)
                writer = None
        except BaseException:
            if writer is not None:
                writer.abort()
            for entry in new_entries:  # drop the aborted repack's files
                fresh = os.path.join(self.path, entry["name"])
                _unlink(fresh)
                _unlink(sidecar_path(fresh))
            raise
        for segment_index in range(len(segments)):
            self._evict_segment(segment_index)
        self._sidecar_ok.clear()
        self._manifest["segments"] = new_entries
        self._bump()  # the commit point: one atomic manifest replace
        for old in old_files:
            _unlink(old)
            _unlink(sidecar_path(old))
        return len(new_entries)

    # -- querying -----------------------------------------------------

    def _segment_end(self, position: int) -> int:
        """Where the segment holding ``position`` ends, corpus-wide."""
        segment_index, local = self._locate(position)
        entry = self._manifest["segments"][segment_index]
        return position - local + entry["trees"]

    def _shard_for(
        self, start: int, stop: int
    ) -> Tuple[str, int, int, int, Optional[Tuple[str, int]]]:
        segment_index, local = self._locate(start)
        entry = self._manifest["segments"][segment_index]
        return (
            os.path.join(self.path, entry["name"]),
            self.generation,
            local,
            local + (stop - start),
            self._sidecar_spec(segment_index),
        )

    def run(
        self,
        queries: Sequence[CorpusQuery],
        workers: int = 0,
        chunk_size: Optional[int] = None,
        engine: str = "fast",
        start: int = 0,
        stop: Optional[int] = None,
        budget_steps: Optional[int] = None,
        faults=None,
        budget_seconds: Optional[float] = None,
        on_exhausted: str = "degrade",
        route: int = 0,
        worker_retries: int = 0,
        retry_backoff: float = 0.05,
    ) -> BatchResult:
        """Evaluate a query batch over trees ``[start, stop)`` of the
        store (default: all of it).

        Every chunk is a shard coordinate, serial or fanned out: the
        parent (serially) or each routed worker mmaps the segment and
        unpickles only its shard — or assembles it straight from the
        index sidecar — keeping trees and indexes warm under the store
        token until the generation moves.
        The service knobs (``budget_seconds``, ``on_exhausted``,
        ``route``, ``worker_retries``) pass through to
        :func:`~repro.corpus.executor.run_batch`, with dead routed
        workers healed in place like :class:`TreeCorpus` does.
        """
        stop = self.tree_count if stop is None else min(stop, self.tree_count)
        if start < 0 or start > stop:
            raise ValueError(f"bad tree range [{start}, {stop})")
        # Bounds stay store-global: chunk warm-state keys are
        # (token, start, stop), and two different windows must never
        # alias the same key to different trees.  A chunk never spans
        # segments, so each maps to one shard (one contiguous byte
        # range of one file).
        return run_batch(
            (),
            queries,
            workers=workers,
            chunk_size=chunk_size,
            engine=engine,
            budget_steps=budget_steps,
            faults=faults,
            pool=self.pools,
            token=self.token,
            stats=self.statistics() if engine == "auto" else None,
            bounds=_chunk_bounds(
                start, stop, chunk_size, workers, cut=self._segment_end
            ),
            shard_for=self._shard_for,
            budget_seconds=budget_seconds,
            on_exhausted=on_exhausted,
            route=route,
            worker_retries=worker_retries,
            retry_backoff=retry_backoff,
        )


def _unlink(path: str) -> None:
    """Remove a file if it is there."""
    try:
        os.unlink(path)
    except OSError:
        pass
