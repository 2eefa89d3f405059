"""The shared node-set kernel: packed big-int bitset primitives.

Every fast engine in this reproduction ultimately computes with the
same object — a *node set* over dense preorder ids, packed into one
arbitrary-precision Python int with bit *i* meaning "node *i* is in the
set".  The plan IR (:mod:`repro.engine.ir`), which every dialect's
per-tree and stacked evaluation runs through, the relational FO engine
(:mod:`repro.engine.fo`) and the all-pairs walk relation
(:mod:`repro.engine.walk`) all compute with it.  This module is the one
home for the primitives they share, so an optimisation lands once:

* **bit iteration / popcount** — :func:`iter_bits`, :func:`bit_count`,
  and :func:`pick_bits`, the one decode of a node set to the table
  entries (node addresses) it selects;
* **shift decomposition** — :func:`shift_groups` buckets a partial move
  function by target−source distance so a whole node set moves in one
  big-int shift per distinct distance; :func:`apply_shift_groups` /
  :func:`apply_atom` replay such groups against a frontier;
* **intervals** — :func:`interval_mask` materialises the contiguous id
  range that a preorder subtree occupies; :func:`size_table` groups
  nodes by subtree size, and :func:`fill_descendants` /
  :func:`carry_ancestors` turn a whole node set into its descendants or
  ancestors with a few big-int operations per distinct size (same-size
  subtrees never overlap);
* **lane stacking** — :func:`lane_tiler`, :func:`stack_masks`,
  :func:`stack_groups`, :func:`broadcast_lanes`, :func:`split_lanes`
  generalise the trick :meth:`WalkEvaluator.all_pairs` plays within one
  tree (n start frontiers in one n²-bit integer) to *many trees*: each
  tree gets a power-of-two-wide lane in one wide integer, and every
  mask/shift/popcount primitive acts on all lanes simultaneously;
* **product-graph saturation** — :func:`bind_closure` resolves a
  compiled walk's atoms to masks and shift groups (or, for a state's
  self-loops, to a caller's one-pass loop closer), and :func:`reach` is
  the round-synchronised frontier BFS over that table, run by the plan
  IR's ``Closure`` op and by the all-pairs relation.

Lanes are padded to a power of two so the SWAR fold in
:func:`broadcast_lanes` never leaks bits across lane boundaries, and so
moves (confined to ``[offset, offset + n)`` per tree) can never carry
into a neighbour.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "iter_bits",
    "bit_count",
    "pick_bits",
    "shift_groups",
    "apply_shift_groups",
    "apply_atom",
    "interval_mask",
    "size_table",
    "fill_descendants",
    "carry_ancestors",
    "lane_width_for",
    "lane_tiler",
    "stack_masks",
    "stack_groups",
    "broadcast_lanes",
    "split_lanes",
    "bind_closure",
    "reach",
]

#: ``((shift, source_mask), …)`` — the dense form of a partial move.
ShiftGroups = Tuple[Tuple[int, int], ...]


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending (= document order)."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def bit_count(bits: int) -> int:
    """Number of set bits (nodes in the set)."""
    return bin(bits).count("1")


#: ``"0"``/``"1"`` digit bytes to ``0``/``1`` selector bytes.
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def pick_bits(table: Sequence, bits: int) -> tuple:
    """``table``'s entries at the set bits of ``bits``, ascending (=
    document order).

    The binary digits, low bit first, select entries in one C-level
    ``compress`` pass: linear in the set's bit length with no Python
    work per node, where a lowest-bit loop costs one big-int op per
    member and grows quadratic on large dense sets.  The empty set, a
    common answer, takes no pass at all."""
    if not bits:
        return ()
    selectors = bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)
    return tuple(compress(table, selectors))


def shift_groups(edges: Iterable[Tuple[int, int]]) -> ShiftGroups:
    """Bucket (source, target) pairs by ``target - source``.

    Returns ``((shift, source_mask), …)`` sorted by shift: the dense
    form of a partial move function, applied set-at-a-time as one
    big-int shift per distinct distance.
    """
    groups: Dict[int, int] = {}
    for source, target in edges:
        delta = target - source
        groups[delta] = groups.get(delta, 0) | (1 << source)
    return tuple(sorted(groups.items()))


def apply_shift_groups(groups: ShiftGroups, frontier: int) -> int:
    """Image of ``frontier`` under a shift-decomposed move: one big-int
    shift per distinct distance, no per-node work."""
    image = 0
    for shift, group_mask in groups:
        hit = frontier & group_mask
        if hit:
            image |= hit << shift if shift >= 0 else hit >> -shift
    return image


def apply_atom(groups: Optional[ShiftGroups], mask: int, frontier: int) -> int:
    """One bound atom, set-at-a-time: a mask intersection for tests
    (``groups is None``), a shift-group replay for moves."""
    if groups is None:
        return frontier & mask
    return apply_shift_groups(groups, frontier)


def interval_mask(start: int, stop: int) -> int:
    """Bitset of the id range ``[start, stop)`` — a preorder subtree."""
    if stop <= start:
        return 0
    return (1 << stop) - (1 << start)


#: ``((k, 2^k − 2, B_k, R_k), …)`` — a set's size buckets (see
#: :func:`size_table`) with each bucket's range multiplier and ranges.
SizeTable = Tuple[Tuple[int, int, int, int], ...]


def size_table(
    lane_sizes: Iterable[Iterable[Tuple[int, int]]], width: int
) -> SizeTable:
    """The subtree size buckets of stacked lanes, ready for
    :func:`fill_descendants` and :func:`carry_ancestors`, from each
    lane's ``(node, subtree size)`` pairs for its nodes with children
    (lane *i* at offset ``i * width``; leaves get no bucket).

    In preorder, node *u* of subtree size *k* has the proper descendants
    ``u+1 … u+k−1``: one id range, ``u``'s bit times ``2^k − 2``.  Two
    nodes of the same size never nest, so their ranges are disjoint and
    ``R_k = B_k · (2^k − 2)``, every size-*k* node's range at once, is
    one multiply without a carry."""
    buckets: Dict[int, int] = {}
    offset = 0
    for pairs in lane_sizes:
        for node, size in pairs:
            buckets[size] = buckets.get(size, 0) | (1 << (offset + node))
        offset += width
    return tuple(
        (size, (1 << size) - 2, bucket, bucket * ((1 << size) - 2))
        for size, bucket in buckets.items()
    )


def fill_descendants(table: SizeTable, bits: int) -> int:
    """The proper descendants of ``bits``: per size bucket, the members
    of ``bits`` times their range multiplier — one carry-free multiply
    per subtree size, whatever the tree's depth."""
    out = 0
    for _, span, bucket, _ in table:
        hit = bits & bucket
        if hit:
            out |= hit * span
    return out


def carry_ancestors(table: SizeTable, bits: int) -> int:
    """The proper ancestors of ``bits``: per size bucket, the members of
    ``bits`` inside the all-ones ranges ``R_k`` are added to ``R_k``.  A
    range that holds one of them overflows into the bit just past it,
    ``u + k`` for a range of node *u*, and only such carries leave
    ``R_k``'s bits, so shifting the sum down by *k* and keeping
    ``B_k`` yields exactly the size-*k* ancestors."""
    out = 0
    for size, _, bucket, ranges in table:
        hit = bits & ranges
        if hit:
            out |= ((ranges + hit) >> size) & bucket
    return out


# ---------------------------------------------------------------------------
# lane stacking: many node sets (one per tree, or one per start node)
# packed side by side in a single wide integer
# ---------------------------------------------------------------------------


def lane_width_for(n: int) -> int:
    """The smallest power of two ≥ ``n`` — the lane stride that keeps
    the SWAR fold of :func:`broadcast_lanes` exactly lane-local."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def lane_tiler(width: int, lanes: int) -> int:
    """Bits at 0, width, 2·width, …: multiplying a sub-``width``-bit
    mask by this tiles it across all ``lanes`` lanes (no carries —
    lanes don't overlap)."""
    if lanes <= 0:
        return 0
    if lanes == 1:
        return 1
    return ((1 << (width * lanes)) - 1) // ((1 << width) - 1)


def stack_masks(masks: Iterable[int], width: int) -> int:
    """Pack per-lane masks into one wide integer, lane *i* at offset
    ``i * width``.  Every mask must fit in its lane."""
    out = 0
    offset = 0
    for mask in masks:
        out |= mask << offset
        offset += width
    return out


def stack_groups(
    per_lane_groups: Iterable[ShiftGroups], width: int
) -> ShiftGroups:
    """Merge per-lane shift groups into stacked groups: lane *i*'s
    source masks shift up by ``i * width``, same-distance buckets from
    different lanes fuse.  Shifts stay in-lane because each lane's
    (source, target) pairs lie within its own ``[0, n)``."""
    merged: Dict[int, int] = {}
    offset = 0
    for groups in per_lane_groups:
        for shift, mask in groups:
            merged[shift] = merged.get(shift, 0) | (mask << offset)
        offset += width
    return tuple(sorted(merged.items()))


def broadcast_lanes(bits: int, width: int, lanes: int) -> int:
    """Per-lane any→all: every non-empty lane becomes a full lane of
    ones, every empty lane stays zero — the vectorised form of "did
    this tree match?".

    Implemented as a SWAR OR-fold down to each lane's low bit followed
    by one widening multiply.  ``width`` must be a power of two so the
    fold window is exactly one lane.
    """
    if width & (width - 1):
        raise ValueError(f"lane width must be a power of two, got {width}")
    folded = bits
    shift = 1
    while shift < width:
        folded |= folded >> shift
        shift <<= 1
    low = folded & lane_tiler(width, lanes)
    return low * ((1 << width) - 1)


def split_lanes(bits: int, width: int, lanes: int) -> List[int]:
    """The per-lane node sets of a stacked integer, lane order."""
    block = (1 << width) - 1
    return [(bits >> (i * width)) & block for i in range(lanes)]


# ---------------------------------------------------------------------------
# product-graph saturation
# ---------------------------------------------------------------------------


def bind_closure(
    edges, move_groups, test_masks, labelled, loops=None, closers=None
):
    """Resolve a compiled walk's atom edges against one algebra — the
    table :func:`reach` runs over.

    ``edges[q]`` holds ``((kind, payload), targets)`` pairs, as
    :class:`~repro.engine.walk.CompiledWalk` builds them: a test
    (``test_masks[predicate]``) or label (``labelled(σ)``) becomes a
    ``(None, mask)`` applier, a move becomes ``(move_groups[d], 0)``.
    Each state's edges split into *self-loops* (targets equal to the
    state, saturated in place) and ordinary out-edges, sharing one
    applier when an atom has both.  One tree's masks bind a walk from
    a set of start nodes; masks tiled across lanes bind a stacked one.

    ``closers`` (optional) maps a set of move directions to a *loop
    closer*: a ``(frontier, context) → closure`` function that closes a
    node set under those moves in one pass.  A state whose self-loops
    are exactly such a set (``loops[q]``, as the compiled walk records
    it) gets the closer instead of self-loop waves.
    """
    bound = []
    for state, state_edges in enumerate(edges):
        closer = closers.get(loops[state]) if closers else None
        selfs = []
        outs = []
        for (kind, payload), targets in state_edges:
            rest = tuple(t for t in targets if t != state)
            if closer is not None and not rest:
                continue  # a self-loop move the closer stands for
            if kind == "move":
                applier = (move_groups[payload], 0)
            elif kind == "test":
                applier = (None, test_masks[payload])
            else:  # label test
                applier = (None, labelled(payload))
            if state in targets and closer is None:
                selfs.append(applier)
            if rest:
                outs.append((applier[0], applier[1], rest))
        bound.append((tuple(selfs), closer, tuple(outs)))
    return tuple(bound)


def reach(bound, state_count: int, start: int, init: int, context=None) -> List[int]:
    """Per-state bitsets of product-reachable nodes from ``start``
    carrying ``init`` — the frontier-bitset BFS shared by the all-pairs
    walk relation and the plan IR's ``Closure`` op.

    ``bound[q]`` is ``(selfs, closer, outs)``: *self-loop* atoms of
    state ``q`` as ``(groups, mask)`` appliers (saturated in place, wave
    by wave), or a loop ``closer`` that closes the frontier in one call
    instead, and ordinary out-edges as ``(groups, mask, targets)``.
    Propagation is *round-synchronised*: every state's fresh bits are
    batched and pushed through all its atoms once per round, so the
    number of big-int operations is (#edges × product-graph depth),
    never per (state, node) pair.  ``context`` (a resilience
    :class:`~repro.resilience.budget.ExecutionContext`) is checkpointed
    once per (state, round) and per self-loop wave — the units of
    big-int work — and passed to a closer, which checkpoints its own.
    """
    reached = [0] * state_count
    reached[start] = init
    pending: Dict[int, int] = {start: init}
    while pending:
        current, pending = pending, {}
        for state, frontier in current.items():
            if context is not None:
                context.checkpoint()
            selfs, closer, outs = bound[state]
            if closer is not None:
                grown = reached[state]
                wave = closer(frontier, context) & ~grown
                reached[state] = grown | wave
                frontier |= wave
            elif selfs:
                grown = reached[state]
                wave = frontier
                while wave:
                    if context is not None:
                        context.checkpoint()
                    image = 0
                    for groups, mask in selfs:
                        image |= apply_atom(groups, mask, wave)
                    wave = image & ~grown
                    grown |= wave
                    frontier |= wave
                reached[state] = grown
            for groups, mask, targets in outs:
                image = apply_atom(groups, mask, frontier)
                if not image:
                    continue
                for target in targets:
                    fresh = image & ~reached[target]
                    if fresh:
                        reached[target] |= fresh
                        pending[target] = pending.get(target, 0) | fresh
    return reached
