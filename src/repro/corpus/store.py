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
  pickles, and a worker's warm window of ``(token, shard)`` skips even
  that.  The store's own reads and rewrites open segments and
  sidecars through the same bounded maps of open store files as the
  chunk loads (:func:`~repro.corpus.segment.open_segment`,
  :func:`~repro.corpus.segment.open_sidecar`), so a handle keeps
  nothing open of its own, and a sidecar is checked once per tag;
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
import secrets
from itertools import chain
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
from .executor import (
    BatchResult,
    Shard,
    WorkerPools,
    _chunk_bounds,
    run_batch,
)
from .query import CorpusQuery
from .segment import (
    BlobRuns,
    BlobTable,
    Segment,
    SegmentWriter,
    SidecarSpec,
    StoreCorruptError,
    StoreError,
    StoreLockedError,
    StoreMissingError,
    StoreVersionError,
    forget,
    open_segment,
    open_sidecar,
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
    :meth:`CorpusStore.statistics` needs without reopening the segment.
    Each sum runs over one column of the rows, in row order."""
    n, height, leaves, label_counts, _, fanout, subtree, fingerprint = (
        tuple(zip(*rows)) or ((),) * 8
    )
    labels: Dict[str, int] = {}
    for name, count in chain.from_iterable(label_counts):
        labels[name] = labels.get(name, 0) + count
    return {
        "trees": len(rows),
        "nodes": sum(n),
        "max_n": max(n, default=0),
        "sum_height": sum(height),
        "sum_leaves": sum(leaves),
        "sum_fanout": sum(fanout),
        "sum_subtree": sum(subtree),
        "labels": dict(sorted(labels.items())),
        "chain": _fingerprint("|".join(fingerprint)),
    }


def _footer_entry(footer: Dict[str, object]) -> Dict[str, object]:
    """What the manifest keeps of a sealed segment's footer: its counts
    and statistics summary, not its per-record rows."""
    return {
        "trees": footer["trees"],
        "nodes": footer["nodes"],
        "summary": _aggregate(footer["stats"]),
    }


class CorpusStore:
    """A disk-backed, sharded corpus with the :class:`TreeCorpus` query
    surface.  Use :meth:`create` / :meth:`open`, not the constructor."""

    def __init__(self, path: str, manifest: Dict[str, object]):
        self.path = path
        self._manifest = manifest
        self._stats: Optional[CorpusStatistics] = None
        self._stats_generation = -1
        self._use_sidecars = True
        self.pools = WorkerPools()
        self._lock_path: Optional[str] = None  # held writer lock, if any
        # The random id ``create`` wrote; a manifest from before store
        # ids keeps its path digest.  Two stores created one after the
        # other at one path thus never share a token or worker state.
        store_id = manifest.get("id") or hashlib.sha1(
            os.path.abspath(path).encode("utf-8")
        ).hexdigest()[:12]
        self._identity = f"store-{store_id}"

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
            "id": secrets.token_hex(8),
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
        """Drop this store's open files, shut its worker pools down and
        release the writer lock."""
        forget(self._identity)
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
        """The batch-executor corpus token: the store's id and its
        generation, so any mutation retires every worker's warm chunks
        and every cache keyed against the old corpus."""
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
        sealed: Dict[str, object],
        known: bool,
        sidecar_gen: Optional[int] = None,
    ) -> None:
        """Enter a sealed segment's :func:`_footer_entry` in the
        manifest (``known``: in place of the entry with its id)."""
        segments: List[Dict[str, object]] = self._manifest["segments"]
        name = (
            segments[[s["id"] for s in segments].index(segment_id)]["name"]
            if known
            else _segment_name(segment_id)
        )
        entry = {"name": name, "id": segment_id, **sealed}
        if sidecar_gen is not None:
            entry["sidecar_gen"] = sidecar_gen
        if known:
            segments[[s["id"] for s in segments].index(segment_id)] = entry
        else:
            segments.append(entry)

    def ingest(self, trees: Iterable[Tree]) -> int:
        """Append every tree of an iterator; returns how many.

        Streaming: trees are pickled and written as they arrive,
        segments seal every ``segment_size`` trees, and nothing already
        consumed stays referenced — feed it
        :func:`repro.trees.iter_xml_stream` and peak memory tracks the
        largest single document, not the corpus.  The segments a call
        seals enter the manifest together once the stream is done, so
        a call that fails leaves the manifest, and every record it
        lists, as they were."""
        self._writable()
        segments: List[Dict[str, object]] = self._manifest["segments"]
        # The under-full tail segment the first tree resumes, if any.
        tail = (
            len(segments) - 1
            if segments and segments[-1]["trees"] < self.segment_size
            else None
        )
        next_id = segments[-1]["id"] + 1 if segments else 0
        tag = self.generation + 1 if self._use_sidecars else None
        writer: Optional[SegmentWriter] = None
        sealed: List[SegmentWriter] = []
        # Only what the manifest takes of each sealed footer stays until
        # the stream ends: ingest memory must not grow with the corpus.
        entries: List[Dict[str, object]] = []
        blobs = BlobRuns()
        appended = 0

        def seal(writer: SegmentWriter) -> None:
            # The sidecar lands (tagged with the post-ingest generation)
            # before the manifest does: a crash in between reads as a
            # generation mismatch and a rebuild, never as stale indexes.
            # A seal or sidecar write that raises leaves ``writer`` set
            # for the abort below, which also undoes a finished seal.
            footer = writer.seal()
            if tag is not None:
                write_sidecar(
                    sidecar_path(writer.path), writer.segment_id, tag, blobs
                )
            sealed.append(writer)
            entries.append(_footer_entry(footer))

        try:
            for tree in trees:
                if not isinstance(tree, Tree):
                    raise TypeError(
                        f"ingest expects Tree instances, got "
                        f"{type(tree).__name__}"
                    )
                if writer is None:
                    blobs = BlobRuns()
                    if tail is not None and not sealed:
                        entry = segments[tail]
                        if tag is not None:
                            blobs.copy(self._segment_blobs(tail))
                        # Resuming cuts the file in place: no open
                        # mapping may read past its new end.
                        forget(self._identity, self._segment_path(tail))
                        writer = SegmentWriter.resume(
                            self._segment_path(tail), entry["id"]
                        )
                    else:
                        writer = SegmentWriter(
                            os.path.join(self.path, _segment_name(next_id)),
                            next_id,
                        )
                        next_id += 1
                writer.append(tree)
                if tag is not None:
                    blobs.append(serialize_index(index_for(tree)))
                appended += 1
                if writer.tree_count >= self.segment_size:
                    seal(writer)
                    writer = None
            if writer is not None:
                seal(writer)
                writer = None
        except BaseException:
            # Nothing this call wrote enters the manifest: a fresh
            # segment goes with its sidecar, and the resumed tail is cut
            # back to the records the manifest lists.  The tail's
            # rewritten sidecar no longer matches its manifest tag, so
            # it rebuilds on first use.
            opened = sealed + ([writer] if writer is not None else [])
            for position, aborted in enumerate(opened):
                aborted.abort()
                if position > 0 or tail is None:
                    _unlink(sidecar_path(aborted.path))
            if tail is not None and opened:
                forget(self._identity, self._sidecar_file(tail))
            raise
        for position, (done, entry) in enumerate(zip(sealed, entries)):
            self._record_seal(
                done.segment_id, entry, tail is not None and position == 0,
                sidecar_gen=tag,
            )
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

        Only the edited record is encoded: the records before and after
        it, with their footer statistics rows, are copied byte-for-byte
        as two ranges (:meth:`SegmentWriter.copy_records`) into a
        write-aside file that ``os.replace`` swaps in, and the sidecar
        is the old blob region's two slices around the fresh blob.

        With ``site`` (the root node of the edited subtree, as produced
        by :meth:`Tree.replace_subtree`), the old tree — the one record
        unpickled — has its cached index spliced into the new tree's
        through :func:`~repro.engine.index.repair_index` instead of
        being rebuilt — the incremental path the ``store`` bench gates at
        ≥5x a fresh build.  Either way the store generation bumps, so
        stale worker caches and plans can never answer for the old
        corpus."""
        self._writable()
        if not isinstance(tree, Tree):
            raise TypeError(
                f"replace expects Tree instances, got {type(tree).__name__}"
            )
        segment_index, local = self._locate(position)
        entry = self._manifest["segments"][segment_index]
        segment = self._segment(segment_index)
        if site is not None:
            old_tree = segment.tree(local)
            repaired = repair_index(index_for(old_tree), tree, site)
            adopt_index(tree, repaired)
        segment_path = self._segment_path(segment_index)
        # Splice the sidecar, not just the segment: unchanged records
        # keep their blobs byte-for-byte (rebuilt from the records when
        # no valid sidecar exists), the edited record gets the repaired
        # (or rebuilt) index serialized fresh.  The table views the old
        # sidecar's mapping, which outlives the unlink below.
        table = (
            self._segment_blobs(segment_index) if self._use_sidecars else None
        )
        rewrite_path = segment_path + ".rewrite"
        side_path = sidecar_path(segment_path)
        writer = SegmentWriter(rewrite_path, entry["id"])
        try:
            writer.copy_records(segment, 0, local)
            writer.append(tree)
            writer.copy_records(segment, local + 1, segment.tree_count)
            footer = writer.seal()
            # The old sidecar's entry goes too, not just left to its
            # tag: if the manifest commit below fails, the manifest on
            # disk still names the old tag, and a kept entry would
            # vouch for bytes that are gone.
            forget(self._identity, segment_path, side_path)
            # Retire the old sidecar *before* the segment bytes move: no
            # crash window leaves a valid-looking sidecar describing
            # bytes that are no longer there.
            _unlink(side_path)
            os.replace(rewrite_path, segment_path)
        except BaseException:
            writer.abort()  # unlinks the write-aside file, sealed or not
            raise
        next_gen = self.generation + 1
        self._record_seal(
            entry["id"], _footer_entry(footer), True,
            sidecar_gen=next_gen if self._use_sidecars else None,
        )
        try:
            if table is not None:
                blobs = BlobRuns()
                blobs.copy(table, 0, local)
                blobs.append(serialize_index(index_for(tree)))
                blobs.copy(table, local + 1)
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

    def _segment_path(self, segment_index: int) -> str:
        entry = self._manifest["segments"][segment_index]
        return os.path.join(self.path, entry["name"])

    def _segment(self, segment_index: int) -> Segment:
        return open_segment(
            self._identity, self._segment_path(segment_index), self.generation
        )

    # -- index sidecars -----------------------------------------------

    def _sidecar_file(self, segment_index: int) -> str:
        return sidecar_path(self._segment_path(segment_index))

    def _spec(self, segment_index: int) -> Optional[SidecarSpec]:
        """What the segment's sidecar must say of itself, per the
        manifest — ``None`` when the manifest records no sidecar."""
        entry = self._manifest["segments"][segment_index]
        tag = entry.get("sidecar_gen")
        if tag is None:
            return None
        return SidecarSpec(
            self._sidecar_file(segment_index), tag, entry["id"], entry["trees"]
        )

    def _record_blobs(self, segment_index: int) -> List[bytes]:
        """Every index blob of a segment, rebuilt from its records."""
        segment = self._segment(segment_index)
        return [
            serialize_index(TreeIndex(segment.tree(i)))
            for i in range(segment.tree_count)
        ]

    def _segment_blobs(self, segment_index: int) -> BlobTable:
        """Every index blob of a segment — a view of its sidecar when that
        is valid (the view keeps the mapping alive), else rebuilt from
        the records."""
        spec = self._spec(segment_index)
        sidecar = spec and open_sidecar(self._identity, spec).sidecar
        try:
            if sidecar is not None:
                return sidecar.blob_table()
        except StoreError:
            pass
        return BlobTable.of(self._record_blobs(segment_index))

    def _rebuild_sidecar(self, segment_index: int) -> SidecarSpec:
        """Rebuild a missing/corrupt sidecar from the segment's records
        and retag the manifest entry — no generation bump, the corpus
        bytes did not change."""
        entry = self._manifest["segments"][segment_index]
        path = self._sidecar_file(segment_index)
        tag = self.generation
        blobs = BlobRuns(self._record_blobs(segment_index))
        write_sidecar(path, entry["id"], tag, blobs)
        entry["sidecar_gen"] = tag
        self._save_manifest()
        # The map may hold this very tag as invalid: the old file's.
        forget(self._identity, path)
        return self._spec(segment_index)

    def _sidecar_spec(self, segment_index: int) -> Optional[SidecarSpec]:
        """The sidecar this segment's chunks read lanes from, or ``None``
        to load trees; a writable store lazily rebuilds an invalid
        sidecar here, a readonly one falls back per chunk."""
        if not self._use_sidecars:
            return None
        spec = self._spec(segment_index)
        if (
            spec is not None
            and open_sidecar(self._identity, spec).sidecar is not None
        ):
            return spec
        if self.readonly:
            return None
        return self._rebuild_sidecar(segment_index)

    def tree(self, position: int) -> Tree:
        """The tree at ``position``: unpickles its one record."""
        segment_index, local = self._locate(position)
        return self._segment(segment_index).tree(local)

    def trees(self, start: int = 0, stop: Optional[int] = None) -> Iterator[Tree]:
        """Iterate trees ``[start, stop)``, a segment at a time, through
        the bounded map of open segments — a full scan opens each
        segment once."""
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
            segment_path = self._segment_path(segment_index)
            try:
                self._segment(segment_index)
            except StoreCorruptError:
                forget(self._identity, segment_path)
                # The sidecar goes first: once the segment is resealed
                # with records dropped, a surviving sidecar would look
                # valid while describing the pre-crash bytes.  Dropping
                # it forces a lazy rebuild instead.
                _unlink(sidecar_path(segment_path))
                footer = recover_segment(segment_path)
                self._record_seal(entry["id"], _footer_entry(footer), True)
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
        blobs = BlobRuns()
        new_id = 0

        def seal(writer: SegmentWriter) -> None:
            entry = {
                "name": os.path.basename(writer.path),
                "id": writer.segment_id,
                **_footer_entry(writer.seal()),
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
                table = (
                    self._segment_blobs(segment_index)
                    if self._use_sidecars else None
                )
                lo = 0
                while lo < segment.tree_count:
                    if writer is None:
                        name = f"seg-{new_id:05d}-g{next_gen}.seg"
                        writer = SegmentWriter(
                            os.path.join(self.path, name), new_id
                        )
                        new_id += 1
                        blobs = BlobRuns()
                    # The longest run that fits the segment being written.
                    hi = min(
                        segment.tree_count,
                        lo + self.segment_size - writer.tree_count,
                    )
                    writer.copy_records(segment, lo, hi)
                    if table is not None:
                        blobs.copy(table, lo, hi)
                    lo = hi
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
        forget(self._identity)
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

    def _shard_for(self, start: int, stop: int) -> Shard:
        segment_index, local = self._locate(start)
        return Shard(
            self._segment_path(segment_index),
            self.generation,
            local,
            local + (stop - start),
            self._sidecar_spec(segment_index),
            self._identity,
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
