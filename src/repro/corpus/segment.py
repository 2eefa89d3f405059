"""Append-only segment files — the corpus store's unit of disk layout.

A segment holds a contiguous run of serialized trees::

    [ MAGIC "RPROSEG1" | version u32 | segment id u32 ]      16-byte header
    [ length u32 | pickled Tree ] …                          records
    [ footer JSON (utf-8) ]
    [ footer length u32 | TRAILER "RPROFTR1" ]               12-byte trailer

The footer carries everything a reader needs without touching the
records: per-record offsets, per-tree statistics rows (size, height,
leaves, label counts, …) and their segment-level aggregate.  A sealed
segment is therefore self-describing: :class:`Segment` opens it
memory-mapped, answers count/statistics questions from the footer
alone, and unpickles individual trees lazily — a
:func:`~repro.corpus.executor.run_batch` worker routed shard ``[lo,
hi)`` touches only those records' byte ranges.

Records are written straight through (no buffering of the whole
segment), so ingest memory stays bounded by one tree plus the pending
footer rows.  A crash before :meth:`SegmentWriter.seal` leaves a
headerful of complete records and possibly one torn tail record;
:func:`recover_segment` rescans the record stream, drops the torn
tail, and seals what survived.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine.stats import TreeStatistics
from ..resilience.errors import ReproError
from ..trees.tree import Tree

__all__ = [
    "Segment",
    "SegmentWriter",
    "Sidecar",
    "StoreError",
    "StoreCorruptError",
    "StoreLockedError",
    "StoreMissingError",
    "StoreVersionError",
    "recover_segment",
    "sidecar_path",
    "write_sidecar",
]

MAGIC = b"RPROSEG1"
TRAILER = b"RPROFTR1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sII")   # magic, format version, segment id
_RECORD = struct.Struct("<I")      # record length prefix
_TRAILER = struct.Struct("<I8s")   # footer length, trailer magic

#: Index sidecar file bits (``seg-NNNNN.rpridx`` next to each sealed
#: ``seg-NNNNN.seg``): one serialized TreeIndex blob per record, plus
#: the generation tag that ties the sidecar to one version of the
#: segment's bytes.
SIDECAR_MAGIC = b"RPRIDX01"
SIDECAR_TRAILER = b"RPRIDXTR"
SIDECAR_VERSION = 1
SIDECAR_SUFFIX = ".rpridx"

_SIDECAR_HEADER = struct.Struct("<8sIIQI")  # magic, version, seg id, gen, count
_OFFSET = struct.Struct("<Q")


class StoreError(ReproError):
    """Anything wrong with an on-disk corpus store.

    Raised instead of a raw ``OSError``/``ValueError`` so callers (and
    the ``repro corpus`` CLI) can catch one type for every store
    failure mode; the subclasses say which contract broke."""


class StoreMissingError(StoreError):
    """The path is not a corpus store (or a segment file is gone)."""


class StoreVersionError(StoreError):
    """The store was written by an incompatible format version."""


class StoreCorruptError(StoreError):
    """The bytes are there but do not parse back (torn write, bad
    magic, truncated footer).  ``recover_segment`` may salvage the
    complete prefix of records."""


class StoreLockedError(StoreError):
    """Another live process holds the store's single-writer lock.
    Opening read-only (``CorpusStore.open(path, readonly=True)``) is
    always allowed; a second writer fails fast instead of silently
    racing the manifest."""


def _stats_row(stats: TreeStatistics) -> list:
    """One tree's statistics as a compact JSON row (field order fixed —
    this is part of the segment format)."""
    return [
        stats.n,
        stats.height,
        stats.leaf_count,
        [list(item) for item in stats.label_counts],
        [list(item) for item in stats.attr_counts],
        stats.avg_fanout,
        stats.avg_subtree,
        stats.fingerprint,
    ]


def _row_stats(row: list) -> TreeStatistics:
    n, height, leaves, labels, attrs, fanout, subtree, fingerprint = row
    return TreeStatistics(
        n=n,
        height=height,
        leaf_count=leaves,
        label_counts=tuple((name, count) for name, count in labels),
        attr_counts=tuple((name, count) for name, count in attrs),
        avg_fanout=fanout,
        avg_subtree=subtree,
        fingerprint=fingerprint,
    )


class SegmentWriter:
    """Streams records into a segment file and seals it with a footer.

    The writer appends; it never seeks back into the record region, so
    a power cut mid-\\ :meth:`append` can tear at most the final
    record.  Call :meth:`seal` to write the footer and make the file a
    valid :class:`Segment`; :meth:`abort` discards it."""

    def __init__(self, path: str, segment_id: int):
        self.path = path
        self.segment_id = segment_id
        self._offsets: List[int] = []
        self._rows: List[list] = []
        self._handle = open(path, "wb")
        self._handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION, segment_id))
        self._position = _HEADER.size
        self._sealed = False

    @classmethod
    def resume(cls, path: str, segment_id: int) -> "SegmentWriter":
        """Reopen a sealed segment for further appends.

        The footer and trailer are truncated away (they are rewritten
        by the next :meth:`seal`) and the existing records stay
        byte-for-byte where they were — the append-only contract."""
        existing = Segment(path)
        try:
            if existing.segment_id != segment_id:
                raise StoreCorruptError(
                    f"segment id mismatch in {path}: "
                    f"{existing.segment_id} != {segment_id}"
                )
            offsets = list(existing._offsets)
            rows = [list(row) for row in existing._rows]
            record_end = existing._record_end
        finally:
            existing.close()
        writer = cls.__new__(cls)
        writer.path = path
        writer.segment_id = segment_id
        writer._offsets = offsets
        writer._rows = rows
        writer._handle = open(path, "r+b")
        writer._handle.truncate(record_end)
        writer._handle.seek(record_end)
        writer._position = record_end
        writer._sealed = False
        return writer

    @property
    def tree_count(self) -> int:
        return len(self._offsets)

    @property
    def node_count(self) -> int:
        return sum(row[0] for row in self._rows)

    def append(self, tree: Tree) -> int:
        """Write one tree; returns its record position in this segment."""
        return self.append_raw(
            pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL),
            _stats_row(TreeStatistics.from_tree(tree)),
        )

    def append_raw(self, payload: bytes, row: list) -> int:
        """Copy one already-pickled record (with its statistics row)
        byte-for-byte — the compaction and replace paths, which rewrite
        segments without paying a pickle/unpickle round per tree."""
        if self._sealed:
            raise StoreError("segment already sealed")
        self._offsets.append(self._position)
        self._rows.append(list(row))
        self._handle.write(_RECORD.pack(len(payload)))
        self._handle.write(payload)
        self._position += _RECORD.size + len(payload)
        return len(self._offsets) - 1

    def seal(self) -> Dict[str, object]:
        """Write footer + trailer and close; returns the footer dict
        (what the store manifest records about this segment)."""
        if self._sealed:
            raise StoreError("segment already sealed")
        footer = {
            "segment": self.segment_id,
            "trees": len(self._offsets),
            "nodes": self.node_count,
            "record_end": self._position,
            "offsets": self._offsets,
            "stats": self._rows,
        }
        blob = json.dumps(footer, separators=(",", ":")).encode("utf-8")
        self._handle.write(blob)
        self._handle.write(_TRAILER.pack(len(blob), TRAILER))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._sealed = True
        return footer

    def abort(self) -> None:
        """Close and delete the partial segment."""
        if not self._sealed:
            self._handle.close()
            self._sealed = True
            try:
                os.unlink(self.path)
            except OSError:
                pass


def _header_id(data, path: str) -> int:
    """The segment id in ``data``'s header, once its magic and format
    version check out."""
    magic, version, segment_id = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise StoreCorruptError(f"bad segment magic in {path}")
    if version != FORMAT_VERSION:
        raise StoreVersionError(
            f"segment {path} is format v{version}; "
            f"this build reads v{FORMAT_VERSION}"
        )
    return segment_id


def _map(path: str):
    """``path``'s bytes, memory-mapped read-only — or, on platforms (or
    empty files) where ``mmap`` fails, read whole once: same API, no
    laziness.  The file object closes as soon as the mapping exists
    (the mapping keeps its own descriptor), so a reader that is dropped
    without :meth:`close` leaks no handle, and its mapping goes away
    with the last reference to it."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError as exc:
        raise StoreMissingError(f"no such file: {path}") from exc
    with handle:
        try:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return handle.read()


class Segment:
    """A sealed segment, opened memory-mapped and read lazily.

    Construction reads only header, trailer and footer; record bytes
    are faulted in by the OS as :meth:`tree` / :meth:`trees` touch
    them."""

    def __init__(self, path: str):
        self.path = path
        self._view = data = _map(path)
        if len(data) < _HEADER.size + _TRAILER.size:
            raise StoreCorruptError(f"segment too short: {path}")
        self.segment_id = _header_id(data, path)
        footer_len, trailer = _TRAILER.unpack_from(
            data, len(data) - _TRAILER.size
        )
        if trailer != TRAILER:
            raise StoreCorruptError(
                f"segment {path} has no trailer (torn write? "
                f"recover_segment() can salvage the complete records)"
            )
        footer_start = len(data) - _TRAILER.size - footer_len
        if footer_start < _HEADER.size:
            raise StoreCorruptError(f"segment {path}: bad footer length")
        try:
            footer = json.loads(bytes(data[footer_start:len(data) - _TRAILER.size]))
        except ValueError as exc:
            raise StoreCorruptError(
                f"segment {path}: unreadable footer"
            ) from exc
        self._offsets: List[int] = footer["offsets"]
        self._rows: List[list] = footer["stats"]
        self._record_end: int = footer["record_end"]
        self.tree_count: int = footer["trees"]
        self.node_count: int = footer["nodes"]
        if self.tree_count != len(self._offsets):
            raise StoreCorruptError(f"segment {path}: offset table mismatch")

    def __len__(self) -> int:
        return self.tree_count

    def tree(self, position: int) -> Tree:
        """Unpickle record ``position`` (touches only its byte range)."""
        payload = self.record_payload(position)
        try:
            tree = pickle.loads(payload)
        except Exception as exc:
            raise StoreCorruptError(
                f"segment {self.path}: record {position} does not "
                f"unpickle ({type(exc).__name__})"
            ) from exc
        if not isinstance(tree, Tree):
            raise StoreCorruptError(
                f"segment {self.path}: record {position} is not a Tree"
            )
        return tree

    def trees(self, lo: int = 0, hi: Optional[int] = None) -> Tuple[Tree, ...]:
        """Records ``[lo, hi)`` materialized — one shard's worth."""
        if hi is None:
            hi = self.tree_count
        return tuple(self.tree(i) for i in range(lo, hi))

    def record_payload(self, position: int) -> bytes:
        """Record ``position``'s pickled bytes, unvalidated — paired
        with :meth:`SegmentWriter.append_raw` for copying rewrites."""
        if not 0 <= position < self.tree_count:
            raise IndexError(position)
        start = self._offsets[position]
        (length,) = _RECORD.unpack_from(self._view, start)
        begin = start + _RECORD.size
        return bytes(self._view[begin:begin + length])

    def stats_row(self, position: int) -> list:
        """Record ``position``'s raw statistics footer row."""
        return self._rows[position]

    def statistics_rows(self) -> Tuple[TreeStatistics, ...]:
        """Per-tree statistics from the footer — no record is read."""
        return tuple(_row_stats(row) for row in self._rows)

    def close(self) -> None:
        if isinstance(self._view, mmap.mmap):
            self._view.close()

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Segment({os.path.basename(self.path)}, id={self.segment_id}, "
            f"{self.tree_count} trees, {self.node_count} nodes)"
        )


def _scan_records(data, limit: int) -> Iterator[Tuple[int, Tree]]:
    """Yield (offset, tree) for every *complete, unpicklable* record
    prefix of the record region; stops silently at the first torn or
    unreadable record — recovery semantics."""
    position = _HEADER.size
    while position + _RECORD.size <= limit:
        (length,) = _RECORD.unpack_from(data, position)
        begin = position + _RECORD.size
        if begin + length > limit:
            return  # torn tail: the length prefix outruns the file
        try:
            tree = pickle.loads(bytes(data[begin:begin + length]))
        except Exception:
            return
        if not isinstance(tree, Tree):
            return
        yield position, tree
        position = begin + length


def recover_segment(path: str) -> Dict[str, object]:
    """Rebuild a sealed segment from whatever complete records survive
    in ``path`` (an unsealed or torn segment file).

    Scans the record stream from the header, keeps every record that
    still unpickles, drops the torn tail, and rewrites the file sealed.
    Returns the new footer.  Raises :class:`StoreCorruptError` if even
    the header is gone."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError as exc:
        raise StoreMissingError(f"no such segment: {path}") from exc
    if len(data) < _HEADER.size:
        raise StoreCorruptError(f"segment {path}: header is torn")
    segment_id = _header_id(data, path)
    # If a trailer parses, trust the footer's record_end (the tail
    # beyond it is footer bytes, not records); otherwise scan to EOF.
    limit = len(data)
    if len(data) >= _HEADER.size + _TRAILER.size:
        footer_len, trailer = _TRAILER.unpack_from(
            data, len(data) - _TRAILER.size
        )
        if trailer == TRAILER:
            footer_start = len(data) - _TRAILER.size - footer_len
            if footer_start >= _HEADER.size:
                try:
                    footer = json.loads(
                        data[footer_start:len(data) - _TRAILER.size]
                    )
                    limit = footer["record_end"]
                except (ValueError, KeyError):
                    limit = footer_start
    recovered = os.path.join(
        os.path.dirname(path) or ".", f".{os.path.basename(path)}.recover"
    )
    writer = SegmentWriter(recovered, segment_id)
    try:
        for _, tree in _scan_records(data, limit):
            writer.append(tree)
        footer = writer.seal()
    except BaseException:
        writer.abort()
        raise
    os.replace(recovered, path)
    return footer


# ---------------------------------------------------------------------------
# index sidecars
# ---------------------------------------------------------------------------
#
# ``seg-NNNNN.rpridx`` next to each sealed ``seg-NNNNN.seg``::
#
#     [ SIDECAR_MAGIC | version u32 | segment id u32
#       | generation u64 | count u32 ]                      28-byte header
#     [ (count + 1) u64 blob offsets ]                      offset table
#     [ serialize_index blobs, concatenated ]
#     [ SIDECAR_TRAILER ]                                   8-byte trailer
#
# Offsets are relative to the end of the offset table, so ``blob(i)``
# is two table reads and one slice of the mmap — a worker loading a
# shard's indexes touches exactly those blobs' byte ranges.  The
# generation tag ties the sidecar to one version of the segment's
# bytes: the store records the matching tag in its manifest when it
# (re)seals the segment, and a mismatch — a sidecar that survived a
# segment rewrite, or vice versa — reads as *missing*, never as stale
# answers.


def sidecar_path(segment_file: str) -> str:
    """The index sidecar path for a segment file path."""
    base, _ = os.path.splitext(segment_file)
    return base + SIDECAR_SUFFIX


def write_sidecar(
    path: str, segment_id: int, generation: int, blobs: List[bytes]
) -> None:
    """Write an index sidecar atomically (write-aside then rename), so
    a crash leaves either the old sidecar or the new one, never a torn
    file masquerading as valid."""
    aside = os.path.join(
        os.path.dirname(path) or ".", f".{os.path.basename(path)}.tmp"
    )
    with open(aside, "wb") as handle:
        handle.write(_SIDECAR_HEADER.pack(
            SIDECAR_MAGIC, SIDECAR_VERSION, segment_id, generation, len(blobs)
        ))
        position = 0
        for blob in blobs:
            handle.write(_OFFSET.pack(position))
            position += len(blob)
        handle.write(_OFFSET.pack(position))
        for blob in blobs:
            handle.write(blob)
        handle.write(SIDECAR_TRAILER)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(aside, path)


class Sidecar:
    """A sealed index sidecar, opened memory-mapped and read lazily.

    Construction validates header, trailer and the offset table's
    bounds; blob bytes are faulted in as :meth:`blob` touches them.
    Raises the store error taxonomy on anything wrong — a torn or
    corrupt sidecar is a :class:`StoreCorruptError` the store turns
    into a rebuild, never a crash."""

    def __init__(self, path: str):
        self.path = path
        self._view = data = _map(path)
        if len(data) < _SIDECAR_HEADER.size + len(SIDECAR_TRAILER):
            raise StoreCorruptError(f"sidecar too short: {path}")
        magic, version, segment_id, generation, count = (
            _SIDECAR_HEADER.unpack_from(data, 0)
        )
        if magic != SIDECAR_MAGIC:
            raise StoreCorruptError(f"bad sidecar magic in {path}")
        if version != SIDECAR_VERSION:
            raise StoreVersionError(
                f"sidecar {path} is format v{version}; "
                f"this build reads v{SIDECAR_VERSION}"
            )
        if bytes(data[len(data) - len(SIDECAR_TRAILER):]) != SIDECAR_TRAILER:
            raise StoreCorruptError(
                f"sidecar {path} has no trailer (torn write?)"
            )
        self.segment_id = segment_id
        self.generation = generation
        self.count = count
        self._blob_base = _SIDECAR_HEADER.size + _OFFSET.size * (count + 1)
        blob_end = len(data) - len(SIDECAR_TRAILER)
        if self._blob_base > blob_end:
            raise StoreCorruptError(f"sidecar {path}: bad offset table")
        (total,) = _OFFSET.unpack_from(
            data, _SIDECAR_HEADER.size + _OFFSET.size * count
        )
        if self._blob_base + total != blob_end:
            raise StoreCorruptError(f"sidecar {path}: blob region mismatch")
        self._mem = memoryview(self._view)

    def __len__(self) -> int:
        return self.count

    def blob(self, position: int):
        """Blob ``position``'s bytes (a zero-copy view of the mmap)."""
        if not 0 <= position < self.count:
            raise IndexError(position)
        at = _SIDECAR_HEADER.size + _OFFSET.size * position
        (start,) = _OFFSET.unpack_from(self._view, at)
        (end,) = _OFFSET.unpack_from(self._view, at + _OFFSET.size)
        if end < start:
            raise StoreCorruptError(
                f"sidecar {self.path}: offset table is not monotone"
            )
        return self._mem[self._blob_base + start:self._blob_base + end]

    def blobs(self, lo: int = 0, hi: Optional[int] = None) -> List[bytes]:
        """Blobs ``[lo, hi)`` as real byte strings (splice/copy paths)."""
        if hi is None:
            hi = self.count
        return [bytes(self.blob(i)) for i in range(lo, hi)]

    def close(self) -> None:
        self._mem.release()
        if isinstance(self._view, mmap.mmap):
            self._view.close()

    def __enter__(self) -> "Sidecar":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Sidecar({os.path.basename(self.path)}, "
            f"id={self.segment_id}, g{self.generation}, {self.count} blobs)"
        )
