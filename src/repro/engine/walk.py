"""The compiled, set-at-a-time walking engine.

The reference caterpillar evaluator (:mod:`repro.caterpillar.nfa`)
rebuilds a Thompson NFA on every call and BFSes the (state × node)
product one ``(state, node)`` pair at a time, with each atom applied
through tuple-address tree methods.  This module is its indexed
counterpart:

* each expression is compiled **once** (bounded LRU keyed by the
  concrete syntax) into a :class:`CompiledWalk` — the ε-*closed* NFA
  with per-state, atom-partitioned edge tables;
* binding resolves the compiled atoms against a tree's
  :class:`~repro.engine.index.TreeIndex`
  (:func:`~repro.engine.nodeset.bind_closure`): tests become bitset
  masks (one ``&`` per frontier), moves become the index's shift
  groups;
* evaluation is a frontier-bitset BFS over the product graph
  (:func:`~repro.engine.nodeset.reach`) — one big-int operation per
  (state, atom) per round instead of one dict/set operation per
  (state, node) pair.

:func:`walk` mirrors the reference ``walk`` (nodes reachable from one
context) and :func:`matches` tree acceptance from the root; both run
the expression's plan-IR ``Closure`` op anchored at the context node.
:func:`relation` mirrors the reference ``relation`` (the full denoted
binary relation), computed by :class:`WalkEvaluator` as one stacked
sweep over every start node at once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..caching import KeyedLRU
from ..caterpillar.ast import (
    Caterpillar,
    IS_FIRST,
    IS_LAST,
    IS_LEAF,
    IS_ROOT,
    LabelTest,
    Move,
    Test,
)
from ..caterpillar.nfa import CaterpillarNFA, compile_caterpillar
from ..caterpillar.parser import format_caterpillar
from ..resilience.budget import current_context
from ..trees.node import NodeId
from ..trees.tree import Tree
from .index import TreeIndex, index_for, iter_bits
from .ir import evaluate_tree, lower_caterpillar, tree_plan
from .nodeset import bind_closure, lane_tiler, reach

__all__ = [
    "CompiledWalk",
    "WalkEvaluator",
    "compile_walk",
    "compile_cache_info",
    "compile_cache_clear",
    "walk",
    "relation",
    "matches",
]

#: Compiled atoms: ("move", direction) | ("test", predicate) |
#: ("label", σ) — tree-independent, bound to an index at evaluation.
CompiledAtom = Tuple[str, str]


def _compile_atom(atom) -> CompiledAtom:
    if isinstance(atom, Move):
        return ("move", atom.direction)
    if isinstance(atom, Test):
        return ("test", atom.predicate)
    if isinstance(atom, LabelTest):
        return ("label", atom.label)
    raise TypeError(f"unknown caterpillar atom {atom!r}")


class CompiledWalk:
    """The ε-closed, reduced compiled form of one caterpillar expression.

    ``edges[q]`` partitions the outgoing atom edges of *all* states in
    the ε-closure of ``q`` by atom, so the evaluator applies each atom
    to a frontier once and feeds every target state from the result.
    ``accepting`` flags the states whose ε-closure contains the accept
    state; a node is in the answer iff it is reached in one of them.

    Thompson construction leaves many behaviourally identical states
    (every ``*``/``|`` contributes plumbing), and each survivor would
    re-push the same frontier bits every round.  Compilation therefore
    prunes states unreachable from the start or unable to reach
    acceptance, then iterates a merge of states with identical
    (accepting, atom-edge) signatures to a fixpoint — on typical
    expressions this shrinks the product's state dimension severalfold,
    and turns ``a*`` plumbing into genuine self-loops the evaluator can
    saturate in place.

    ``loops[q]`` is the set of move directions of state ``q``'s
    self-loops when every self-loop atom is a move, else ``None`` —
    decided once here, so an evaluator that can close some move sets in
    one pass (the stacked shard closes ``{down, right}``) looks a state
    up instead of inspecting its edges on every bind.
    """

    __slots__ = ("text", "state_count", "start", "edges", "accepting", "loops")

    def __init__(self, expr: Caterpillar) -> None:
        self.text = format_caterpillar(expr)
        nfa: CaterpillarNFA = compile_caterpillar(expr)
        closures = _epsilon_closures(nfa)
        edges: Dict[int, Dict[CompiledAtom, List[int]]] = {}
        for state in range(nfa.state_count):
            grouped: "OrderedDict[CompiledAtom, List[int]]" = OrderedDict()
            for member in closures[state]:
                for atom, target in nfa.edge_table.get(member, ()):
                    if atom is None:
                        continue
                    bucket = grouped.setdefault(_compile_atom(atom), [])
                    if target not in bucket:
                        bucket.append(target)
            edges[state] = grouped
        accepting = {
            state
            for state in range(nfa.state_count)
            if nfa.accept in closures[state]
        }
        keep = _live_states(nfa.start, edges, accepting)
        canon = _merge_equivalent(keep, edges, accepting)
        order = sorted(
            {canon[s] for s in keep}, key=lambda s: (s != canon[nfa.start], s)
        )
        renumber = {s: i for i, s in enumerate(order)}
        self.state_count = len(order)
        self.start = renumber[canon[nfa.start]]
        compact: List[Tuple[Tuple[CompiledAtom, Tuple[int, ...]], ...]] = []
        for s in order:
            entries = []
            for atom, targets in edges[s].items():
                live = tuple(
                    dict.fromkeys(
                        renumber[canon[t]] for t in targets if t in keep
                    )
                )
                if live:
                    entries.append((atom, live))
            compact.append(tuple(entries))
        self.edges = tuple(compact)
        self.accepting = tuple(
            renumber[s] for s in order if s in accepting
        )
        self.loops = tuple(
            _loop_moves(state, entries)
            for state, entries in enumerate(self.edges)
        )

    def __repr__(self) -> str:
        return f"CompiledWalk({self.text!r}, {self.state_count} states)"


def _loop_moves(state: int, entries) -> Optional[FrozenSet[str]]:
    """The directions of ``state``'s self-loops, or ``None`` when it
    has none or a test rides the loop."""
    moves = set()
    for (kind, payload), targets in entries:
        if state in targets:
            if kind != "move":
                return None
            moves.add(payload)
    return frozenset(moves) or None


def _live_states(
    start: int,
    edges: Dict[int, Dict[CompiledAtom, List[int]]],
    accepting,
) -> set:
    """States both reachable from ``start`` and able to reach an
    accepting state over the ε-folded atom edges."""
    forward = {start}
    stack = [start]
    while stack:
        for targets in edges[stack.pop()].values():
            for t in targets:
                if t not in forward:
                    forward.add(t)
                    stack.append(t)
    predecessors: Dict[int, List[int]] = {}
    for s, grouped in edges.items():
        for targets in grouped.values():
            for t in targets:
                predecessors.setdefault(t, []).append(s)
    backward = set(accepting)
    stack = list(backward)
    while stack:
        for p in predecessors.get(stack.pop(), ()):
            if p not in backward:
                backward.add(p)
                stack.append(p)
    live = forward & backward
    # Keep the start state even when the language is empty, so the
    # evaluator always has a well-defined (empty-answer) product.
    live.add(start)
    return live


def _merge_equivalent(
    keep: set,
    edges: Dict[int, Dict[CompiledAtom, List[int]]],
    accepting,
) -> Dict[int, int]:
    """Iteratively collapse states with identical (accepting, edges)
    signatures; returns the state → representative map.  Merging states
    with equal right languages never changes reachability answers."""
    canon = {s: s for s in keep}
    while True:
        signature: Dict[tuple, int] = {}
        mapping = {}
        for s in sorted(keep):
            key = (
                s in accepting,
                tuple(
                    (atom, tuple(sorted(
                        {canon[t] for t in targets if t in keep}
                    )))
                    for atom, targets in sorted(edges[s].items())
                ),
            )
            mapping[s] = signature.setdefault(key, s)
        composed = {s: mapping[canon[s]] for s in keep}
        if composed == canon:
            return canon
        canon = composed


def _epsilon_closures(nfa: CaterpillarNFA) -> List[Tuple[int, ...]]:
    """Per-state ε-closure (reflexive-transitive over ε edges)."""
    epsilon: Dict[int, List[int]] = {}
    for source, atom, target in nfa.transitions:
        if atom is None:
            epsilon.setdefault(source, []).append(target)
    closures: List[Tuple[int, ...]] = []
    for state in range(nfa.state_count):
        seen = {state}
        stack = [state]
        while stack:
            for target in epsilon.get(stack.pop(), ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        closures.append(tuple(sorted(seen)))
    return closures


class WalkEvaluator:
    """A :class:`CompiledWalk` bound to one tree's index for the full
    denoted relation (:meth:`all_pairs`).

    The edge tables act on the *stacked* representation: one big int
    holding n blocks of n bits, block s = current node set of the walk
    started at node s.  Tests tile their mask across every block; moves
    replay their shift groups, which stay inside a block because every
    (source, target) pair lies in [0, n).  One BFS over these atoms
    advances all n start nodes simultaneously.
    """

    __slots__ = ("compiled", "index", "_bound", "_diagonal")

    def __init__(self, compiled: CompiledWalk, index: TreeIndex) -> None:
        self.compiled = compiled
        self.index = index
        n = index.n
        #: bits at 0, n, 2n, …: multiplying an n-bit mask by this tiles
        #: it across all n blocks (no carries — blocks don't overlap).
        tiler = lane_tiler(n, n)
        test_masks = {
            IS_ROOT: index.root_mask * tiler,
            IS_LEAF: index.leaf_mask * tiler,
            IS_FIRST: index.first_mask * tiler,
            IS_LAST: index.last_mask * tiler,
        }
        move_groups = {
            direction: tuple(
                (shift, mask * tiler) for shift, mask in groups
            )
            for direction, groups in index.move_groups.items()
        }
        self._bound = bind_closure(
            compiled.edges,
            move_groups,
            test_masks,
            lambda name: index.labelled(name) * tiler,
        )
        diagonal = 0
        for s in range(n):
            diagonal |= 1 << (s * n + s)
        self._diagonal = diagonal

    def all_pairs(self) -> FrozenSet[Tuple[NodeId, NodeId]]:
        """The full denoted relation ⟦expr⟧ ⊆ Dom(t)² — one stacked
        frontier-bitset BFS covering every start node at once, with one
        budget checkpoint per unit of big-int work."""
        compiled = self.compiled
        reached = reach(
            self._bound,
            compiled.state_count,
            compiled.start,
            self._diagonal,
            current_context(),
        )
        answers = 0
        for state in compiled.accepting:
            answers |= reached[state]
        index = self.index
        n = index.n
        node_of = index.node_of
        block = (1 << n) - 1
        out = set()
        for s in range(n):
            hits = (answers >> (s * n)) & block
            if hits:
                source = node_of[s]
                out.update((source, node_of[v]) for v in iter_bits(hits))
        return frozenset(out)

    def __repr__(self) -> str:
        return f"WalkEvaluator({self.compiled.text!r}, n={self.index.n})"


# ---------------------------------------------------------------------------
# compile cache
# ---------------------------------------------------------------------------

#: Bounded LRU of compiled expressions, keyed by concrete syntax so
#: structurally equal expressions share one compilation.
_COMPILE_CACHE_SIZE = 256
_COMPILE_CACHE: KeyedLRU = KeyedLRU(_COMPILE_CACHE_SIZE, name="walk-compile")


def compile_walk(expr: Caterpillar) -> CompiledWalk:
    """The (cached) compiled form of ``expr``."""
    return _COMPILE_CACHE.get_or_compute(
        format_caterpillar(expr), lambda: CompiledWalk(expr)
    )


def compile_cache_info() -> Tuple[int, int, int, int]:
    """(hits, misses, maxsize, currsize) of the compile cache."""
    return _COMPILE_CACHE.cache_info()


def compile_cache_clear() -> None:
    """Empty the compile and evaluator caches, resetting statistics."""
    _COMPILE_CACHE.cache_clear()
    _EVAL_CACHE.cache_clear()


#: All-pairs evaluators keyed by (compiled, index) identity, so the
#: relation of the same expression over the same tree reuses its bound
#: stacked tables.  Entries pin both objects, so neither id can be
#: recycled while live.
_EVAL_CACHE: KeyedLRU = KeyedLRU(128, name="walk-evaluators")


def evaluator_for(expr: Caterpillar, tree: Tree) -> WalkEvaluator:
    """The (cached) all-pairs evaluator of ``expr`` over ``tree``."""
    compiled = compile_walk(expr)
    index = index_for(tree)
    key = (id(compiled), id(index))
    hit = _EVAL_CACHE.get(key)
    if hit is not None and hit[0] is compiled and hit[1] is index:
        return hit[2]
    evaluator = WalkEvaluator(compiled, index)
    _EVAL_CACHE.put(key, (compiled, index, evaluator))
    return evaluator


# ---------------------------------------------------------------------------
# reference-shaped entry points
# ---------------------------------------------------------------------------


def _plan(expr: Caterpillar):
    """The walk's per-tree plan: one ``Closure`` op from the context."""
    return tree_plan(
        expr, "caterpillar",
        lambda: lower_caterpillar(compile_walk(expr), anchor="context"),
    )


def walk(
    expr: Caterpillar, tree: Tree, start: NodeId = ()
) -> Tuple[NodeId, ...]:
    """Fast counterpart of :func:`repro.caterpillar.nfa.walk`."""
    tree.require(start)
    index = index_for(tree)
    return index.to_nodes(
        evaluate_tree(_plan(expr), index, index.id_of[start])
    )


def relation(expr: Caterpillar, tree: Tree) -> FrozenSet[Tuple[NodeId, NodeId]]:
    """Fast counterpart of :func:`repro.caterpillar.nfa.relation`."""
    return evaluator_for(expr, tree).all_pairs()


def matches(expr: Caterpillar, tree: Tree) -> bool:
    """Fast counterpart of :func:`repro.caterpillar.nfa.matches`: some
    denoted string walks from the root."""
    return bool(evaluate_tree(_plan(expr), index_for(tree)))
