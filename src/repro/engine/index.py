"""``TreeIndex`` — the compiled form of an attributed tree.

Every evaluator in the reproduction so far walks raw tuple addresses:
``descendant(u, v)`` is a tuple-prefix check, label tests are per-node
dict lookups, and set-valued intermediate results are Python sets of
address tuples.  The index trades one O(n) construction pass for

* **dense integer ids** in document (pre-)order, so "set of nodes"
  becomes a Python-int *bitset* and document-order output is just
  ascending bit order;
* **interval labels**: the subtree of ``u`` occupies the contiguous id
  range ``[u, subtree_end[u])``, so ``descendant(u, v)`` is an O(1)
  interval containment (``u < v < subtree_end[u]``) and a descendant
  *axis* is a range mask — the Gottlob–Koch–Schulz move of evaluating
  over indexed structure instead of raw addresses;
* **navigation arrays**: parent, CSR children slices and sibling
  links;
* **inverted indexes**: label → bitset and attribute-value → bitset,
  making every unary atom of the FO vocabulary a single dict lookup;
* **move graphs**: set-at-a-time images of the four walking atoms
  (``up``/``down``/``left``/``right``) — the edge relations the
  product-graph walking engine (:mod:`repro.engine.walk`) BFSes over.
  Preorder ids make three of them partly *shift-shaped*: the first
  child of ``u`` is ``u + 1``, the parent of a first child is
  ``u - 1``, and a leaf's right sibling is ``u + 1``, so those slices
  of a frontier move in one big-int shift; only the remaining nodes
  fall back to per-bit array lookups.

Bitsets are arbitrary-precision Python ints: bit *i* set means "node
with dense id *i* is in the set".  Union/intersection/complement are
single C-level big-int operations (``|``, ``&``, ``^`` with the full
mask), which is what makes the set-at-a-time engines fast.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Dict, List, Optional, Tuple

from ..caching import KeyedLRU
from ..trees.node import NodeId
from ..trees.tree import Tree
from ..trees.values import MaybeValue
from .nodeset import bit_count, iter_bits, pick_bits
from .nodeset import shift_groups as _shift_groups

__all__ = [
    "TreeIndex",
    "PackedIndex",
    "index_for",
    "adopt_index",
    "index_cache_clear",
    "index_structures",
    "repair_index",
    "serialize_index",
    "IndexFormatError",
    "INDEX_BLOB_VERSION",
    "REPAIR_THRESHOLD",
    "iter_bits",
    "bit_count",
]


class TreeIndex:
    """Dense-id arrays, interval labels and inverted indexes for a tree.

    The index is immutable and derived purely from the tree; build one
    with :func:`index_for` to get per-tree caching for free.
    """

    __slots__ = (
        "tree",
        "n",
        "node_of",
        "id_of",
        "parent",
        "subtree_end",
        "child_start",
        "child_ids",
        "children_mask",
        "next_sibling",
        "prev_sibling",
        "all_mask",
        "root_mask",
        "leaf_mask",
        "first_mask",
        "last_mask",
        "label_mask",
        "value_mask",
        "move_groups",
    )

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        nodes = tree.nodes  # document (pre-)order
        n = len(nodes)
        self.n = n
        self.node_of: Tuple[NodeId, ...] = nodes
        self.id_of: Dict[NodeId, int] = {u: i for i, u in enumerate(nodes)}
        id_of = self.id_of

        parent: List[int] = [-1] * n
        subtree_end: List[int] = [0] * n
        next_sibling: List[int] = [-1] * n
        prev_sibling: List[int] = [-1] * n
        child_start: List[int] = [0] * (n + 1)
        child_ids: List[int] = []
        children_mask: List[int] = [0] * n
        leaf_mask = 0
        first_mask = 0
        last_mask = 0

        for i, u in enumerate(nodes):
            kids = tree.children(u)
            child_start[i] = len(child_ids)
            if not kids:
                leaf_mask |= 1 << i
            mask = 0
            previous = -1
            for kid in kids:
                j = id_of[kid]
                parent[j] = i
                child_ids.append(j)
                mask |= 1 << j
                if previous >= 0:
                    next_sibling[previous] = j
                    prev_sibling[j] = previous
                previous = j
            children_mask[i] = mask
            if kids:
                first_mask |= 1 << id_of[kids[0]]
                last_mask |= 1 << id_of[kids[-1]]
        child_start[n] = len(child_ids)

        for i, u in enumerate(nodes):
            subtree_end[i] = tree.subtree_interval(u)[1]

        self.parent = parent
        self.subtree_end = subtree_end
        self.child_start = child_start
        self.child_ids = child_ids
        self.children_mask = children_mask
        self.next_sibling = next_sibling
        self.prev_sibling = prev_sibling
        self.all_mask = (1 << n) - 1
        self.root_mask = 1
        self.leaf_mask = leaf_mask
        self.first_mask = first_mask
        self.last_mask = last_mask

        label_mask: Dict[str, int] = {}
        for i, u in enumerate(nodes):
            label = tree.label(u)
            label_mask[label] = label_mask.get(label, 0) | (1 << i)
        self.label_mask = label_mask

        value_mask: Dict[str, Dict[MaybeValue, int]] = {}
        for attr in tree.attributes:
            table: Dict[MaybeValue, int] = {}
            for u, value in tree.attr_table(attr).items():
                i = id_of[u]
                table[value] = table.get(value, 0) | (1 << i)
            value_mask[attr] = table
        self.value_mask = value_mask

        #: Move graphs, shift-decomposed: direction → ((shift, mask), …)
        #: where ``mask`` collects the sources whose target lies exactly
        #: ``shift`` ids away (negative = towards smaller ids).  A move
        #: applied to a node set is then one ``(bits & mask) << shift``
        #: per distinct shift — no per-node work at all
        #: (:func:`~repro.engine.nodeset.apply_shift_groups`).
        self.move_groups = {
            "down": ((1, self.all_mask & ~leaf_mask),),
            "up": _shift_groups(
                (i, parent[i]) for i in range(1, n)
            ),
            "right": _shift_groups(
                (i, next_sibling[i]) for i in range(n) if next_sibling[i] >= 0
            ),
            "left": _shift_groups(
                (i, prev_sibling[i]) for i in range(n) if prev_sibling[i] >= 0
            ),
        }

    # -- O(1) structure tests --------------------------------------------------

    def descendant(self, u: int, v: int) -> bool:
        """``u ≺ v`` by interval containment — O(1), no tuple prefixes."""
        return u < v < self.subtree_end[u]

    def children_of(self, u: int) -> List[int]:
        """The CSR children slice of ``u`` (dense ids, sibling order)."""
        return self.child_ids[self.child_start[u] : self.child_start[u + 1]]

    def subtree_mask(self, u: int) -> int:
        """Bitset of the *proper* descendants of ``u`` (a range mask)."""
        return (1 << self.subtree_end[u]) - (1 << (u + 1))

    def descendants_mask(self, sources: int) -> int:
        """Bitset of all proper descendants of any node in ``sources``.

        Overlapping subtrees are merged into maximal id intervals first,
        so the result is built from O(#disjoint subtrees) big-int
        operations — the whole tree collapses to a single range.
        """
        out = 0
        bits = sources
        while bits:
            low = bits & -bits
            end = self.subtree_end[low.bit_length() - 1]
            out |= (1 << end) - (low << 1)
            bits &= -1 << end  # drop every source the interval swallowed
        return out

    def subtree_sizes(self) -> List[Tuple[int, int]]:
        """``(node, subtree size)`` for every node with children, read
        off ``subtree_end`` — what a stacked shard buckets descendant
        and ancestor ranges by."""
        return [
            (node, size)
            for node, end in enumerate(self.subtree_end)
            if (size := end - node) > 1
        ]

    def children_of_mask(self, sources: int) -> int:
        """Bitset of all children of any node in ``sources``."""
        out = 0
        children_mask = self.children_mask
        for u in iter_bits(sources):
            out |= children_mask[u]
        return out

    def labelled(self, label: str) -> int:
        """Bitset of σ-labelled nodes (0 if σ never occurs)."""
        return self.label_mask.get(label, 0)

    def valued(self, attr: str, value: MaybeValue) -> int:
        """Bitset of nodes with ``val_attr = value`` (0 if absent)."""
        return self.value_mask.get(attr, {}).get(value, 0)

    def to_nodes(self, bits: int) -> Tuple[NodeId, ...]:
        """The node addresses of a bitset, in document order."""
        return pick_bits(self.node_of, bits)

    def __reduce__(self):
        # Every derived structure is a pure function of the tree, so
        # only the tree travels; rebuilding through index_for on load
        # lands the index in the receiving process's cache — exactly
        # what a corpus worker wants.
        return (index_for, (self.tree,))

    def __repr__(self) -> str:
        return f"TreeIndex({self.n} nodes, Σ={sorted(self.label_mask)})"


# ---------------------------------------------------------------------------
# binary serialization (index sidecars)
# ---------------------------------------------------------------------------
#
# The wire form of a TreeIndex's lane surface: what a tree-walking
# automaton reads of a tree (labels, the root/leaf/first/last tests and
# the up/down/left/right moves), plus the CSR child arrays that turn a
# result bitset back into node addresses.  Everything is packed
# little-endian arrays and big-int byte strings — *no* pickled Python
# object graphs, so reading one is ``unpack_from`` plus
# ``int.from_bytes``, not a tree walk.  Layout (all lengths in bytes):
#
#     [ magic "RXI1" | version u16 | n u32 ]
#     [ 3 node-set bitsets       ]  leaf, first, last
#     [ label index              ]  count, then (label, bitset) pairs
#     [ move groups              ]  up, right, left: count, then
#                                   (shift i32, bitset) pairs
#     [ child arrays (i32)       ]  child_start[n+1], then child_ids
#                                   (child_start[n] entries)
#
# :class:`PackedIndex` is the one reader, and it reads every byte: the
# masks, labels and moves when it is built, the child arrays on its
# first ``to_nodes`` and on each ``subtree_sizes``; a blob that does
# not end right after them is rejected.  ``down`` move groups and
# ``all_mask``/``root_mask`` are cheap derivations and are not stored.
# The value index, the other navigation arrays and ``children_mask``
# serve in-memory TreeIndexes only and are not stored either: a reader
# of value atoms would add value masks here under a new version.

INDEX_BLOB_MAGIC = b"RXI1"
INDEX_BLOB_VERSION = 2

_BLOB_HEADER = struct.Struct("<4sHI")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_NATIVE_LE = sys.byteorder == "little"


class IndexFormatError(ValueError):
    """The bytes are not a serialized index this build can read (bad
    magic, unknown version, or a torn blob)."""


def _pack_bytes(out: List[bytes], blob: bytes) -> None:
    out.append(_U32.pack(len(blob)))
    out.append(blob)


def _pack_bits(out: List[bytes], bits: int) -> None:
    _pack_bytes(out, bits.to_bytes((bits.bit_length() + 7) // 8, "little"))


def _unpack_ints(data) -> array:
    values = array("i")
    values.frombytes(data)
    if not _NATIVE_LE:  # pragma: no cover - big-endian platforms
        values.byteswap()
    return values


def serialize_index(index: TreeIndex) -> bytes:
    """``index``'s lane surface as a compact, versioned byte string
    (see the layout note above) — what :class:`PackedIndex` reads."""
    out: List[bytes] = [
        _BLOB_HEADER.pack(INDEX_BLOB_MAGIC, INDEX_BLOB_VERSION, index.n)
    ]
    for bits in (index.leaf_mask, index.first_mask, index.last_mask):
        _pack_bits(out, bits)
    out.append(_U32.pack(len(index.label_mask)))
    for label in sorted(index.label_mask):
        _pack_bytes(out, label.encode("utf-8"))
        _pack_bits(out, index.label_mask[label])
    for direction in ("up", "right", "left"):
        groups = index.move_groups[direction]
        out.append(_U32.pack(len(groups)))
        for shift, mask in groups:
            out.append(_I32.pack(shift))
            _pack_bits(out, mask)
    for values in (index.child_start, index.child_ids):
        packed = array("i", values)
        if not _NATIVE_LE:  # pragma: no cover - big-endian platforms
            packed.byteswap()
        out.append(packed.tobytes())
    return b"".join(out)


class PackedIndex:
    """A tree-free stand-in for one :class:`TreeIndex`, parsed straight
    from :func:`serialize_index` bytes.

    It exposes exactly the lane surface the stacked-shard executor
    consumes — ``n``, the structural masks, ``move_groups``,
    :meth:`labelled`, :meth:`subtree_sizes` — plus :meth:`to_nodes` for
    select-mode results, whose node addresses it rebuilds on first use
    from the child arrays that close the blob (children order
    determines every Gorn address and every subtree size).  The point:
    a worker can assemble a :class:`~repro.engine.ir.StackedShard` from
    sidecar bytes without unpickling a single tree."""

    __slots__ = (
        "n", "all_mask", "root_mask", "leaf_mask", "first_mask",
        "last_mask", "label_mask", "move_groups",
        "_data", "_children_at", "_node_of",
    )

    def __init__(self, data) -> None:
        # Parsed flat with ``unpack_from`` and local cursors: a cold
        # window parses hundreds of blobs before the first IR op, and
        # per-field method dispatch would dominate the packed path.
        view = memoryview(data) if isinstance(data, bytes) else data
        total = len(view)
        u32_at = _U32.unpack_from
        i32_at = _I32.unpack_from
        from_bytes = int.from_bytes
        try:
            magic, version, n = _BLOB_HEADER.unpack_from(view, 0)
            if magic != INDEX_BLOB_MAGIC:
                raise IndexFormatError("bad serialized-index magic")
            if version != INDEX_BLOB_VERSION:
                raise IndexFormatError(
                    f"serialized index is format v{version}; "
                    f"this build reads v{INDEX_BLOB_VERSION}"
                )
            self.n = n
            self.all_mask = (1 << n) - 1
            self.root_mask = 1 if n else 0
            pos = _BLOB_HEADER.size
            masks = []
            for _ in range(3):
                (size,) = u32_at(view, pos)
                pos += 4
                end = pos + size
                if end > total:
                    raise IndexFormatError("serialized index is truncated")
                masks.append(from_bytes(view[pos:end], "little"))
                pos = end
            self.leaf_mask, self.first_mask, self.last_mask = masks
            (count,) = u32_at(view, pos)
            pos += 4
            if count > total:
                raise IndexFormatError("serialized index is truncated")
            label_mask = {}
            for _ in range(count):
                (size,) = u32_at(view, pos)
                pos += 4
                end = pos + size
                if end > total:
                    raise IndexFormatError("serialized index is truncated")
                label = str(view[pos:end], "utf-8")
                pos = end
                (size,) = u32_at(view, pos)
                pos += 4
                end = pos + size
                if end > total:
                    raise IndexFormatError("serialized index is truncated")
                label_mask[label] = from_bytes(view[pos:end], "little")
                pos = end
            self.label_mask = label_mask
            moves = []
            for _ in range(3):
                (count,) = u32_at(view, pos)
                pos += 4
                if count > total:
                    raise IndexFormatError("serialized index is truncated")
                entries = []
                for _ in range(count):
                    (shift,) = i32_at(view, pos)
                    (size,) = u32_at(view, pos + 4)
                    pos += 8
                    end = pos + size
                    if end > total:
                        raise IndexFormatError(
                            "serialized index is truncated"
                        )
                    entries.append((shift, from_bytes(view[pos:end], "little")))
                    pos = end
                moves.append(tuple(entries))
            self.move_groups = {
                "down": ((1, self.all_mask & ~self.leaf_mask),),
                "up": moves[0],
                "right": moves[1],
                "left": moves[2],
            }
        except (struct.error, ValueError, IndexError) as exc:
            if isinstance(exc, IndexFormatError):
                raise
            raise IndexFormatError(
                f"serialized index does not parse ({type(exc).__name__})"
            ) from exc
        self._data = view
        self._children_at = pos
        self._node_of: Optional[List[NodeId]] = None

    def labelled(self, label: str) -> int:
        """Bitset of σ-labelled nodes (0 if σ never occurs)."""
        return self.label_mask.get(label, 0)

    def _child_arrays(self) -> Tuple[array, array]:
        """``(child_start, child_ids)``, the CSR child arrays that close
        the blob."""
        n = self.n
        data = self._data
        split = self._children_at + 4 * (n + 1)
        if split > len(data):
            raise IndexFormatError("serialized index is truncated")
        child_start = _unpack_ints(data[self._children_at:split])
        end = split + 4 * child_start[n]
        if end != len(data):
            raise IndexFormatError(
                f"serialized index is {len(data)} bytes, but its "
                f"child arrays end at byte {end}"
            )
        return child_start, _unpack_ints(data[split:end])

    def subtree_sizes(self) -> List[Tuple[int, int]]:
        """:meth:`TreeIndex.subtree_sizes`, from one reverse pass over
        the child arrays: a node's subtree ends where its last child's
        does, a leaf's right after it."""
        child_start, child_ids = self._child_arrays()
        n = self.n
        ends = list(range(1, n + 1))
        sizes = []
        stop = child_start[n]
        for node in range(n - 1, -1, -1):
            start = child_start[node]
            if stop != start:
                end = ends[node] = ends[child_ids[stop - 1]]
                sizes.append((node, end - node))
            stop = start
        return sizes

    def _addresses(self) -> List[NodeId]:
        if self._node_of is None:
            n = self.n
            child_start, child_ids = self._child_arrays()
            node_of: List[NodeId] = [()] * n
            for i in range(n):
                base = node_of[i]
                start = child_start[i]
                for k in range(start, child_start[i + 1]):
                    node_of[child_ids[k]] = base + (k - start,)
            self._node_of = node_of
        return self._node_of

    def to_nodes(self, bits: int) -> Tuple[NodeId, ...]:
        """The node addresses of a bitset, in document order."""
        return pick_bits(self._addresses(), bits)

    def __repr__(self) -> str:
        return f"PackedIndex({self.n} nodes, Σ={sorted(self.label_mask)})"


#: Bounded cache of indexes keyed on tree object identity.  Entries pin
#: their tree, so an id can never be recycled while its entry is live.
_INDEX_CACHE_SIZE = 64
_INDEX_CACHE: KeyedLRU = KeyedLRU(_INDEX_CACHE_SIZE, name="tree-indexes")


def index_for(tree: Tree) -> TreeIndex:
    """The (cached) :class:`TreeIndex` of ``tree``.

    Trees are immutable, so one index per tree object is always valid;
    repeated queries against the same document — the facade's workload —
    pay for indexing once.
    """
    key = id(tree)
    hit = _INDEX_CACHE.get(key)
    if hit is not None and hit[0] is tree:
        return hit[1]
    index = TreeIndex(tree)
    _INDEX_CACHE.put(key, (tree, index))
    return index


def adopt_index(tree: Tree, index: TreeIndex) -> None:
    """Re-seat a pinned index in the cache without rebuilding it.

    A :class:`~repro.corpus.TreeCorpus` holds more trees than the LRU
    bound; re-adopting each tree's pinned index as the batch loop
    reaches it keeps every engine's internal ``index_for`` lookups hits
    without growing the cache."""
    if index.tree is not tree:
        raise ValueError("index does not belong to this tree")
    _INDEX_CACHE.put(id(tree), (tree, index))


def index_cache_clear() -> None:
    """Drop every cached index (cold-start benchmarks, tests)."""
    _INDEX_CACHE.cache_clear()


# ---------------------------------------------------------------------------
# incremental repair (single-subtree splices)
# ---------------------------------------------------------------------------

#: Every structure :func:`repair_index` must reproduce byte-identically
#: (``tree`` is the input, not a derived structure).
_DERIVED_SLOTS = tuple(
    name for name in TreeIndex.__slots__ if name != "tree"
)

#: Past this fraction of changed nodes a splice repair stops paying:
#: the spliced region dominates and a fresh build is both simpler and
#: as fast, so :func:`repair_index` falls back to one.
REPAIR_THRESHOLD = 0.25


def index_structures(index: TreeIndex) -> Dict[str, object]:
    """All derived structures of ``index`` by slot name — the byte-
    identity oracle the repair test battery compares against a fresh
    :class:`TreeIndex` build."""
    return {name: getattr(index, name) for name in _DERIVED_SLOTS}


def repair_index(
    old: TreeIndex,
    new_tree: Tree,
    site: NodeId,
    threshold: float = REPAIR_THRESHOLD,
) -> TreeIndex:
    """Patch ``old`` into the index of ``new_tree`` after a single-
    subtree splice at ``site`` (``new_tree`` must come from
    ``old.tree.replace_subtree(site, …)`` — every node outside the
    subtree keeps its address).

    Preorder ids make the splice *local in id space*: the edit replaces
    the contiguous id interval ``[site, old_end)`` with ``[site,
    new_end)`` and shifts everything after it by a constant ``delta``.
    Navigation arrays are patched with three slice operations each,
    every node-set bitset with one three-way big-int splice (low bits
    kept, middle rebuilt, high bits shifted), and only the spliced
    subtree is re-walked.  Past ``threshold`` (fraction of nodes
    touched) the repair degenerates into — and deliberately falls back
    to — a full rebuild.

    The result is byte-identical (every derived structure) to
    ``TreeIndex(new_tree)``.
    """
    tree = old.tree
    n0 = old.n
    nodes = new_tree.nodes
    n1 = len(nodes)
    u = old.id_of.get(site)
    if u is None:
        raise ValueError(f"splice site {site!r} is not in the old tree")
    old_end = old.subtree_end[u]
    try:
        u1, new_end = new_tree.subtree_interval(site)
    except Exception:
        raise ValueError(
            f"splice site {site!r} is not in the new tree"
        ) from None
    if (
        u1 != u
        or n1 - new_end != n0 - old_end
        or nodes[:u] != old.node_of[:u]
        or nodes[new_end:] != old.node_of[old_end:]
    ):
        raise ValueError(
            "new tree is not a single-subtree splice of the old one "
            f"at {site!r}"
        )
    if new_tree.attributes != tree.attributes:
        return TreeIndex(new_tree)  # the whole value index moved
    old_size = old_end - u
    new_size = new_end - u
    delta = new_size - old_size
    if max(old_size, new_size) > threshold * max(n0, n1):
        return TreeIndex(new_tree)  # damage threshold: rebuild

    # -- re-walk the spliced subtree only ------------------------------
    new_children = new_tree._children
    preindex = new_tree._preorder_index
    parent_mid = [-1] * new_size          # absolute ids, parent_mid[0] ≡ u
    next_mid = [-1] * new_size
    prev_mid = [-1] * new_size
    child_start_mid = [0] * new_size
    child_ids_mid: List[int] = []
    children_mask_mid = [0] * new_size
    leaf_bits = 0
    first_bits = 0
    last_bits = 0
    parent_mid[0] = old.parent[u]  # always below the site, id unchanged
    for i in range(u, new_end):
        k = i - u
        kids = new_children[nodes[i]]
        child_start_mid[k] = len(child_ids_mid)
        if not kids:
            leaf_bits |= 1 << i
        mask = 0
        previous = -1
        for kid in kids:
            j = preindex[kid]
            parent_mid[j - u] = i
            child_ids_mid.append(j)
            mask |= 1 << j
            if previous >= 0:
                next_mid[previous - u] = j
                prev_mid[j - u] = previous
            previous = j
        children_mask_mid[k] = mask
        if kids:
            first_bits |= 1 << preindex[kids[0]]
            last_bits |= 1 << preindex[kids[-1]]

    # ``site`` itself keeps its sibling context: its first/last bits
    # come from the old index, not the subtree walk.
    u_bit = 1 << u
    first_bits |= old.first_mask & u_bit
    last_bits |= old.last_mask & u_bit

    # -- splice the navigation arrays ----------------------------------
    #
    # Suffix ids and any reference to them shift by ``delta``; ids
    # below the site — including references *to* the site, whose id is
    # unchanged — stay put.  No old id lands inside (u, old_end), and
    # crucially the only *prefix* nodes that can reference a suffix id
    # (as child, sibling or subtree end) are the proper
    # ancestors of the site — a contiguous id interval [j, e) with
    # e > old_end and j < u contains u, so j is an ancestor.  Prefix
    # arrays are therefore plain copies patched along the ancestor
    # chain; only the suffix pays a per-element pass.
    repaired = TreeIndex.__new__(TreeIndex)
    repaired.tree = new_tree
    repaired.n = n1
    repaired.node_of = nodes
    id_of = dict(old.id_of)  # copies without re-hashing the keys
    for addr in old.node_of[u:old_end]:
        del id_of[addr]
    for i in range(u, new_end):
        id_of[nodes[i]] = i
    if delta:
        for i in range(new_end, n1):
            id_of[nodes[i]] = i
    repaired.id_of = id_of

    ancestors: List[int] = []
    a = old.parent[u]
    while a >= 0:
        ancestors.append(a)
        a = old.parent[a]

    if delta == 0:
        parent_suffix = old.parent[old_end:]
        next_suffix = old.next_sibling[old_end:]
        prev_suffix = old.prev_sibling[old_end:]
        end_suffix = old.subtree_end[old_end:]
        cs_suffix = old.child_start[old_end:]
        ci_suffix = old.child_ids[old.child_start[old_end]:]
    else:
        parent_suffix = [
            p + delta if p >= old_end else p for p in old.parent[old_end:]
        ]
        next_suffix = [
            v + delta if v >= old_end else v
            for v in old.next_sibling[old_end:]
        ]
        prev_suffix = [
            v + delta if v >= old_end else v
            for v in old.prev_sibling[old_end:]
        ]
        end_suffix = [e + delta for e in old.subtree_end[old_end:]]
        cs_suffix = [s + delta for s in old.child_start[old_end:]]
        ci_suffix = [
            c + delta for c in old.child_ids[old.child_start[old_end]:]
        ]

    repaired.parent = old.parent[:u] + parent_mid + parent_suffix
    end_prefix = old.subtree_end[:u]
    next_prefix = old.next_sibling[:u]
    if delta:
        for a in ancestors:
            end_prefix[a] += delta  # the splice stretches every ancestor
            v = next_prefix[a]
            if v >= old_end:
                next_prefix[a] = v + delta
    repaired.subtree_end = (
        end_prefix
        + [new_tree._subtree_end[nodes[i]] for i in range(u, new_end)]
        + end_suffix
    )
    repaired.next_sibling = next_prefix + next_mid + next_suffix
    repaired.next_sibling[u] = (
        old.next_sibling[u] + delta
        if old.next_sibling[u] >= old_end
        else old.next_sibling[u]
    )
    repaired.prev_sibling = (
        old.prev_sibling[:u] + prev_mid + prev_suffix
    )
    repaired.prev_sibling[u] = old.prev_sibling[u]  # always below the site

    edge_base = old.child_start[u]
    repaired.child_start = (
        old.child_start[:u]
        + [edge_base + s for s in child_start_mid]
        + cs_suffix
    )
    ci_prefix = old.child_ids[:edge_base]
    if delta:
        child_start = old.child_start
        for a in ancestors:
            for pos in range(child_start[a], child_start[a + 1]):
                if ci_prefix[pos] >= old_end:
                    ci_prefix[pos] += delta
    repaired.child_ids = ci_prefix + child_ids_mid + ci_suffix

    cm_prefix = old.children_mask[:u]
    if delta == 0:
        cm_suffix = old.children_mask[old_end:]
    else:
        low_cut = (1 << old_end) - 1  # keeps bits ≤ u; (u, old_end) unset
        for a in ancestors:
            m = cm_prefix[a]
            high = m >> old_end
            if high:
                cm_prefix[a] = (m & low_cut) | (high << new_end)
        # suffix masks only hold suffix bits: shift wholesale (leaves
        # stay 0 without paying a big-int shift)
        if delta > 0:
            cm_suffix = [
                m << delta if m else 0 for m in old.children_mask[old_end:]
            ]
        else:
            shrink = -delta
            cm_suffix = [
                m >> shrink if m else 0 for m in old.children_mask[old_end:]
            ]
    repaired.children_mask = cm_prefix + children_mask_mid + cm_suffix

    # -- three-way big-int splice for every node-set bitset ------------
    low_mask = (1 << u) - 1

    def _splice_bits(bits: int, middle: int) -> int:
        return (bits & low_mask) | ((bits >> old_end) << new_end) | middle

    repaired.all_mask = (1 << n1) - 1
    repaired.root_mask = 1
    repaired.leaf_mask = _splice_bits(old.leaf_mask, leaf_bits)
    repaired.first_mask = _splice_bits(
        old.first_mask & ~u_bit, first_bits
    )
    repaired.last_mask = _splice_bits(old.last_mask & ~u_bit, last_bits)

    label_bits: Dict[str, int] = {}
    new_labels = new_tree._labels
    for i in range(u, new_end):
        label = new_labels[nodes[i]]
        label_bits[label] = label_bits.get(label, 0) | (1 << i)
    label_mask: Dict[str, int] = {}
    for label, bits in old.label_mask.items():
        spliced = _splice_bits(bits, label_bits.pop(label, 0))
        if spliced:
            label_mask[label] = spliced
    label_mask.update(label_bits)  # labels new with the splice
    repaired.label_mask = label_mask

    value_mask: Dict[str, Dict[MaybeValue, int]] = {}
    for attr in new_tree.attributes:
        new_table = new_tree._attrs[attr]
        value_bits: Dict[MaybeValue, int] = {}
        for i in range(u, new_end):
            value = new_table[nodes[i]]
            value_bits[value] = value_bits.get(value, 0) | (1 << i)
        table: Dict[MaybeValue, int] = {}
        for value, bits in old.value_mask.get(attr, {}).items():
            spliced = _splice_bits(bits, value_bits.pop(value, 0))
            if spliced:
                table[value] = spliced
        table.update(value_bits)
        value_mask[attr] = table
    repaired.value_mask = value_mask

    # -- splice the shift-decomposed move groups -----------------------
    #
    # Rebuilding ``_shift_groups`` from scratch costs Θ(n²/w) in big-int
    # bit sets; splicing the old groups costs Θ(groups·n/w).  Per group
    # (s, mask): bits ≤ u keep their id; their destination crosses the
    # splice only when it is ≥ old_end (then the shift becomes s+delta
    # while the source bit stays).  Interior bits (u, old_end) are
    # dropped and rebuilt from the middle arrays.  Suffix bits shift by
    # delta; their destination either shifts too (shift unchanged) or
    # sits at ≤ u (shift becomes s−delta).  Which case applies is a pure
    # id-range test because no edge endpoint lands strictly inside the
    # spliced interval.
    low_u1 = u_bit | (u_bit - 1)  # bits 0..u inclusive

    def _spliced_groups(groups: Tuple[Tuple[int, int], ...]) -> Dict[int, int]:
        """The uniform part of the group splice: keep sources ≤ u,
        shift sources ≥ old_end by delta, drop interior bits.  This is
        exact for every edge whose endpoints sit on the same side of
        the splice — the sparse cross-splice edges are patched after."""
        out: Dict[int, int] = {}
        for s, mask in groups:
            high = mask >> old_end
            m = (mask & low_u1) | (high << new_end) if high else mask & low_u1
            if m:
                out[s] = m
        return out

    def _rehome(groups: Dict[int, int], s: int, s2: int, bit: int) -> None:
        """Move one source bit from shift group s to shift group s2."""
        rest = groups[s] ^ bit
        if rest:
            groups[s] = rest
        else:
            del groups[s]
        groups[s2] = groups.get(s2, 0) | bit

    up_groups = _spliced_groups(old.move_groups["up"])
    right_groups = _spliced_groups(old.move_groups["right"])
    left_groups = _spliced_groups(old.move_groups["left"])
    if delta:
        # The only up-edges crossing the splice run from an ancestor's
        # child past the subtree back to the ancestor: the source
        # shifted but the target did not, so the shift gains -delta.
        for a in ancestors:
            for pos in range(old.child_start[a], old.child_start[a + 1]):
                c = old.child_ids[pos]
                if c >= old_end:
                    _rehome(up_groups, a - c, a - c - delta, 1 << (c + delta))
        # Sibling links cross the splice only where a node on the
        # site's ancestor path (or the site itself) has its next
        # sibling on the far side of the subtree — one link per level.
        for x in (u, *ancestors):
            ns = old.next_sibling[x]
            if ns >= old_end:
                _rehome(right_groups, ns - x, ns - x + delta, u_bit if x == u else 1 << x)
                _rehome(left_groups, x - ns, x - ns - delta, 1 << (ns + delta))

    for i in range(u + 1, new_end):
        s = parent_mid[i - u] - i
        up_groups[s] = up_groups.get(s, 0) | (1 << i)
        dst = next_mid[i - u]
        if dst >= 0:
            s = dst - i
            right_groups[s] = right_groups.get(s, 0) | (1 << i)
        dst = prev_mid[i - u]
        if dst >= 0:
            s = dst - i
            left_groups[s] = left_groups.get(s, 0) | (1 << i)

    repaired.move_groups = {
        "down": ((1, repaired.all_mask & ~repaired.leaf_mask),),
        "up": tuple(sorted(up_groups.items())),
        "right": tuple(sorted(right_groups.items())),
        "left": tuple(sorted(left_groups.items())),
    }
    return repaired
