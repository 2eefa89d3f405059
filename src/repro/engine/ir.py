"""The plan IR: one typed register program every dialect lowers into.

The XPath compiler, the FO(∃*) compiler and the caterpillar compiler
each used to bottom out in their own closures over
:class:`~repro.engine.index.TreeIndex` bitsets.  This module gives them
a single meeting point: a small *register program* of typed node-set
ops —

========================  ==================================================
``LabelScan(σ)``          the inverted-index bitset of σ-labelled nodes
``ConstScan(kind)``       all/none/root/leaf/first/last structural masks,
                          or the context node a per-tree plan starts from
``Shift(r, d)``           one walking move (up/down/left/right), set-at-a-time
``Children(r)``           all children of the set in ``r``
``Descendants(r)``        all proper descendants of the set in ``r``
``ClosurePlus(r, d)``     one-or-more iterations of a move (d⁺)
``Union(rs)`` / ``Join(rs)``  set union / intersection (the relational join
                          of unary relations; ``Join`` children are ordered
                          by estimated cardinality, cheapest first)
``Complement(r)``         domain complement
``Closure(r, …)``         a compiled caterpillar NFA saturated from ``r``
``AnyLane(r)``            non-empty → full domain (the projection that turns
                          "some witness exists" into a per-tree verdict)
========================  ==================================================

— plus two interpreters over the node-set kernel
(:mod:`repro.engine.nodeset`):

* :func:`evaluate_tree` binds a plan to one :class:`TreeIndex` and a
  context node;
* :func:`evaluate_shard` binds the *same* plan to a
  :class:`StackedShard` — every tree of a corpus chunk packed into its
  own power-of-two lane of one wide integer — so one pass over the op
  list answers the query for the whole shard at once.  ``AnyLane``
  becomes a SWAR broadcast and every mask/shift/join acts on all lanes
  simultaneously.  The structural ops are arithmetic over subtree size
  buckets: in preorder node *u*'s proper descendants are the ids
  ``u+1 … u+size(u)−1``, and nodes of one size never nest, so
  ``Descendants`` is one carry-free multiply per distinct size,
  ``ClosurePlus(·, up)`` reads the carries out of adding the set into
  those all-ones ranges, ``Children`` is the preimage of the ``up``
  shift groups, and a walk's ``(down | right)*`` loop is right-sibling
  waves plus one descendant fill — each a fixed number of big-int
  operations per size, however deep the trees.

Every lowering takes an *anchor*, the op that stands for the query's
context node.  A corpus plan is anchored at ``ConstScan("root")``,
the corpus contract, and a stacked shard evaluates only those.  The
per-tree evaluators (:func:`repro.engine.xpath.select`,
:func:`repro.engine.fo.select`, :func:`repro.engine.walk.walk`) lower
with ``anchor="context"`` and run one plan from any node: as in a
tree-walking automaton, a query from a context node is the same
program started elsewhere.  :func:`tree_plan` caches those plans by the
parsed query's identity.

Lowering is *partial*: :func:`lower_sentence` and :func:`lower_select`
return ``None`` for constructs outside the IR (value atoms, quantifiers
linking two variables through more than one binary atom, shadowed
selector variables), and callers fall back to the dialect's own
evaluator — the fallback path the differential oracle keeps honest.
XPath and caterpillar lowering is total.  Which lowering serves which
query kind is one row each of :data:`repro.engine.plans.DIALECTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..caching import KeyedLRU
from ..caterpillar.ast import IS_FIRST, IS_LAST, IS_LEAF, IS_ROOT
from ..logic import tree_fo as F
from ..resilience.budget import current_context
from ..xpath.ast import (
    CHILD,
    NameTest,
    Path,
    SelfTest,
    Step,
    Union_,
)
from .index import TreeIndex
from .nodeset import (
    SizeTable,
    apply_shift_groups,
    bind_closure,
    broadcast_lanes,
    carry_ancestors,
    fill_descendants,
    lane_width_for,
    reach,
    size_table,
    split_lanes,
    stack_groups,
    stack_masks,
)

__all__ = [
    "LabelScan",
    "ConstScan",
    "Shift",
    "Children",
    "Descendants",
    "ClosurePlus",
    "Union",
    "Join",
    "Complement",
    "Closure",
    "AnyLane",
    "Plan",
    "StackedShard",
    "evaluate_tree",
    "evaluate_shard",
    "tree_plan",
    "tree_plan_clear",
    "lower_xpath",
    "lower_sentence",
    "lower_select",
    "lower_caterpillar",
]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelScan:
    """Bitset of σ-labelled nodes (the inverted label index)."""

    name: str


@dataclass(frozen=True)
class ConstScan:
    """A structural mask: all, none, root, leaf, first or last — or
    ``context``, the node :func:`evaluate_tree` is given."""

    kind: str


@dataclass(frozen=True)
class Shift:
    """One walking move applied to a whole node set."""

    src: int
    direction: str


@dataclass(frozen=True)
class Children:
    """All children of the nodes in ``src``."""

    src: int


@dataclass(frozen=True)
class Descendants:
    """All *proper* descendants of the nodes in ``src``."""

    src: int


@dataclass(frozen=True)
class ClosurePlus:
    """One-or-more iterations of a move: the image of ``d⁺``."""

    src: int
    direction: str


@dataclass(frozen=True)
class Union:
    """Set union of the source registers."""

    srcs: Tuple[int, ...]


@dataclass(frozen=True)
class Join:
    """Set intersection; children ordered cheapest-first at lowering."""

    srcs: Tuple[int, ...]


@dataclass(frozen=True)
class Complement:
    """Domain complement of ``src``."""

    src: int


@dataclass(frozen=True)
class Closure:
    """A compiled caterpillar NFA (ε-closed edge tables of a
    :class:`~repro.engine.walk.CompiledWalk`) saturated from the nodes
    in ``src``; yields the nodes reached in an accepting state.
    ``loops`` is the walk's per-state self-loop move sets
    (:attr:`CompiledWalk.loops`), a function of ``edges``."""

    src: int
    edges: Tuple
    start: int
    accepting: Tuple[int, ...]
    loops: Tuple = field(repr=False, compare=False)


@dataclass(frozen=True)
class AnyLane:
    """Non-empty → full domain, per tree: the existential projection.
    One tree at a time this is "all nodes if the set is inhabited";
    stacked it is a per-lane SWAR broadcast."""

    src: int


@dataclass(frozen=True)
class Plan:
    """A lowered query: ops in dependency order (op *i* writes register
    *i*), the result register, and how to read it (``"nodes"`` — a node
    set in document order — or ``"boolean"`` — inhabited or not)."""

    ops: Tuple
    result: int
    mode: str

    def __repr__(self) -> str:
        body = "; ".join(f"r{i}={op!r}" for i, op in enumerate(self.ops))
        return f"Plan<{self.mode}>[{body} -> r{self.result}]"


# ---------------------------------------------------------------------------
# interpreters
# ---------------------------------------------------------------------------

_TEST_PREDICATES = (
    (IS_ROOT, "root"),
    (IS_LEAF, "leaf"),
    (IS_FIRST, "first"),
    (IS_LAST, "last"),
)


def _closure_answer(op: Closure, bound, init: int, context) -> int:
    """Saturate a bound ``Closure`` from ``init``; the nodes reached in
    an accepting state."""
    reached = reach(bound, len(op.edges), op.start, init, context)
    out = 0
    for state in op.accepting:
        out |= reached[state]
    return out


#: Bound ``Closure`` tables of per-tree plans, keyed by (op, index)
#: identity; entries pin both, so neither id can be recycled while its
#: entry is live.  A walk asked again of the same tree skips rebinding.
_TREE_CLOSURES: KeyedLRU = KeyedLRU(128, name="tree-closures")


class _TreeAlgebra:
    """One plan bound to one tree's index and one context node."""

    __slots__ = ("index", "move_groups", "context")

    def __init__(self, index: TreeIndex, context_id: int) -> None:
        self.index = index
        self.move_groups = index.move_groups
        self.context = 1 << context_id

    def labelled(self, name: str) -> int:
        return self.index.labelled(name)

    def const(self, kind: str) -> int:
        index = self.index
        if kind == "all":
            return index.all_mask
        if kind == "none":
            return 0
        if kind == "context":
            return self.context
        if kind == "root":
            return index.root_mask
        if kind == "leaf":
            return index.leaf_mask
        if kind == "first":
            return index.first_mask
        return index.last_mask

    def move(self, direction: str, bits: int) -> int:
        return apply_shift_groups(self.move_groups[direction], bits)

    def children(self, bits: int, context) -> int:
        return self.index.children_of_mask(bits)

    def descendants(self, bits: int, context) -> int:
        return self.index.descendants_mask(bits)

    def plus(self, direction: str, bits: int, context) -> int:
        return _saturate(
            (self.move_groups[direction],), self.move(direction, bits), context
        )

    def complement(self, bits: int) -> int:
        return self.index.all_mask & ~bits

    def any_lane(self, bits: int) -> int:
        return self.index.all_mask if bits else 0

    def closure(self, op: Closure, init: int, context) -> int:
        index = self.index
        key = (id(op), id(index))
        hit = _TREE_CLOSURES.get(key)
        if hit is not None and hit[0] is op and hit[1] is index:
            bound = hit[2]
        else:
            tests = {
                predicate: getattr(index, f"{kind}_mask")
                for predicate, kind in _TEST_PREDICATES
            }
            bound = bind_closure(
                op.edges, self.move_groups, tests, index.labelled
            )
            _TREE_CLOSURES.put(key, (op, index, bound))
        return _closure_answer(op, bound, init, context)


class _StackedMoves(dict):
    """A shard's move → stacked shift groups, each stacked from the
    lanes' own groups on its first lookup."""

    __slots__ = ("_indexes", "_width")

    def __init__(self, indexes, width: int) -> None:
        super().__init__()
        self._indexes = indexes
        self._width = width

    def __missing__(self, direction: str):
        groups = stack_groups(
            (index.move_groups[direction] for index in self._indexes),
            self._width,
        )
        self[direction] = groups
        return groups


class StackedShard:
    """Every tree of a chunk packed into its own lane of one wide int.

    Lane *t* occupies bits ``[t·width, t·width + n_t)`` with ``width``
    the smallest power of two fitting the largest tree — so moves
    (confined to a tree) can never carry across lanes and the SWAR
    broadcast of ``AnyLane`` folds exactly one lane.  Structural masks
    are stacked eagerly (one pass over the indexes); the shift groups
    of each move and the label masks are stacked lazily, on first use,
    and the subtree size buckets once, by the first descendant or
    ancestor op — a fresh shard pays only for what its plans read.
    """

    __slots__ = (
        "indexes",
        "lanes",
        "width",
        "all_mask",
        "consts",
        "move_groups",
        "_labels",
        "_sizes",
    )

    def __init__(self, indexes) -> None:
        self.indexes = tuple(indexes)
        self.lanes = len(self.indexes)
        self.width = lane_width_for(
            max((index.n for index in self.indexes), default=1)
        )
        width = self.width
        self.all_mask = stack_masks(
            (index.all_mask for index in self.indexes), width
        )
        self.consts = {
            "all": self.all_mask,
            "none": 0,
            "root": stack_masks(
                (index.root_mask for index in self.indexes), width
            ),
            "leaf": stack_masks(
                (index.leaf_mask for index in self.indexes), width
            ),
            "first": stack_masks(
                (index.first_mask for index in self.indexes), width
            ),
            "last": stack_masks(
                (index.last_mask for index in self.indexes), width
            ),
        }
        self.move_groups = _StackedMoves(self.indexes, width)
        self._labels: Dict[str, int] = {}
        self._sizes: Optional[SizeTable] = None

    def labelled(self, name: str) -> int:
        mask = self._labels.get(name)
        if mask is None:
            mask = stack_masks(
                (index.labelled(name) for index in self.indexes), self.width
            )
            self._labels[name] = mask
        return mask

    def sizes(self) -> SizeTable:
        """Every lane's subtree size buckets, stacked: bucket *k* holds
        the shard's nodes whose subtree has *k* nodes, in every lane at
        once (:func:`~repro.engine.nodeset.size_table`).  The lanes'
        subtree sizes are read once and dropped; only the stacked table
        is kept."""
        sizes = self._sizes
        if sizes is None:
            sizes = self._sizes = size_table(
                (index.subtree_sizes() for index in self.indexes), self.width
            )
        return sizes

    def split(self, bits: int) -> List[int]:
        """The per-tree node sets of a stacked result, tree order."""
        return split_lanes(bits, self.width, self.lanes)


#: The self-loop move set a stacked ``Closure`` state closes in one
#: pass instead of wave by wave: ``(down | right)*`` reaches the right
#: siblings and then every descendant.
_SUBTREE_LOOP = frozenset(("down", "right"))


class _ShardAlgebra:
    """One root-anchored plan bound to a whole shard's stacked lanes.

    ``Descendants``, ``Children`` and ``ClosurePlus(·, up)`` are one
    arithmetic pass each: preorder makes a subtree one id range, so
    descendants and ancestors come from the shard's subtree size
    buckets and children from the preimage of its ``up`` groups."""

    __slots__ = ("shard", "_tests", "_closers")

    def __init__(self, shard: StackedShard) -> None:
        self.shard = shard
        self._tests = None
        self._closers = None

    def labelled(self, name: str) -> int:
        return self.shard.labelled(name)

    def const(self, kind: str) -> int:
        return self.shard.consts[kind]

    def move(self, direction: str, bits: int) -> int:
        return apply_shift_groups(self.shard.move_groups[direction], bits)

    def children(self, bits: int, context) -> int:
        # children(S) is the preimage of S under up: each up group
        # (shift < 0, sources) moves its sources' parents onto them.
        out = 0
        for shift, sources in self.shard.move_groups["up"]:
            out |= (bits << -shift) & sources
        return out

    def descendants(self, bits: int, context) -> int:
        return fill_descendants(self.shard.sizes(), bits)

    def plus(self, direction: str, bits: int, context) -> int:
        if direction == "up":
            return carry_ancestors(self.shard.sizes(), bits)
        groups = self.shard.move_groups[direction]
        return _saturate((groups,), apply_shift_groups(groups, bits), context)

    def _close_subtrees(self, bits: int, context) -> int:
        # {down, right}*: the right siblings (waves, as long as the
        # longest sibling run), then all their descendants in one fill.
        siblings = _saturate(
            (self.shard.move_groups["right"],), bits, context
        )
        return siblings | fill_descendants(self.shard.sizes(), siblings)

    def complement(self, bits: int) -> int:
        return self.shard.all_mask & ~bits

    def any_lane(self, bits: int) -> int:
        shard = self.shard
        return (
            broadcast_lanes(bits, shard.width, shard.lanes) & shard.all_mask
        )

    def closure(self, op: Closure, init: int, context) -> int:
        if self._tests is None:
            consts = self.shard.consts
            self._tests = {
                predicate: consts[kind]
                for predicate, kind in _TEST_PREDICATES
            }
            self._closers = {_SUBTREE_LOOP: self._close_subtrees}
        bound = bind_closure(
            op.edges, self.shard.move_groups, self._tests, self.labelled,
            op.loops, self._closers,
        )
        return _closure_answer(op, bound, init, context)


def _saturate(groups_list, seed: int, context) -> int:
    """Close ``seed`` under a set of shift-decomposed moves — the
    frontier loop behind ``ClosurePlus`` (per tree, and over ``left``,
    ``right`` and ``down`` stacked).  One checkpoint per round (the
    unit of big-int work)."""
    acc = 0
    frontier = seed
    while frontier:
        if context is not None:
            context.checkpoint()
        acc |= frontier
        image = 0
        for groups in groups_list:
            image |= apply_shift_groups(groups, frontier)
        frontier = image & ~acc
    return acc


def _run(plan: Plan, algebra) -> int:
    context = current_context()
    regs: List[int] = []
    append = regs.append
    for op in plan.ops:
        if context is not None:
            context.checkpoint()
        # Ops are tested in the order lowering emits them most often.
        kind = type(op)
        if kind is Join:
            srcs = op.srcs
            value = regs[srcs[0]]
            for src in srcs[1:]:
                value &= regs[src]
                if not value:
                    break
        elif kind is LabelScan:
            value = algebra.labelled(op.name)
        elif kind is ConstScan:
            value = algebra.const(op.kind)
        elif kind is Descendants:
            value = algebra.descendants(regs[op.src], context)
        elif kind is Children:
            value = algebra.children(regs[op.src], context)
        elif kind is Shift:
            value = algebra.move(op.direction, regs[op.src])
        elif kind is ClosurePlus:
            value = algebra.plus(op.direction, regs[op.src], context)
        elif kind is Union:
            value = 0
            for src in op.srcs:
                value |= regs[src]
        elif kind is Complement:
            value = algebra.complement(regs[op.src])
        elif kind is AnyLane:
            value = algebra.any_lane(regs[op.src])
        elif kind is Closure:
            value = algebra.closure(op, regs[op.src], context)
        else:  # pragma: no cover - op set is closed
            raise TypeError(f"unknown IR op {op!r}")
        append(value)
    return regs[plan.result]


def evaluate_tree(plan: Plan, index: TreeIndex, context_id: int = 0) -> int:
    """Run ``plan`` over one tree from the node with preorder id
    ``context_id`` (the root by default); returns the result-register
    bitset."""
    return _run(plan, _TreeAlgebra(index, context_id))


def evaluate_shard(plan: Plan, shard: StackedShard) -> int:
    """Run ``plan`` once over a whole shard; returns the stacked
    result (``shard.split`` recovers the per-tree bitsets)."""
    return _run(plan, _ShardAlgebra(shard))


# ---------------------------------------------------------------------------
# cardinality-aware builder
# ---------------------------------------------------------------------------


class _StatView:
    """Per-tree expected cardinalities from corpus or tree statistics.

    ``CorpusStatistics`` sums label/leaf counts across trees, so counts
    are normalised back to one tree; without statistics the view is
    *uninformed* and ``Join`` keeps syntactic order.
    """

    __slots__ = (
        "informed",
        "n",
        "labels",
        "leaves",
        "height",
        "avg_subtree",
        "avg_fanout",
    )

    def __init__(self, stats) -> None:
        if stats is None:
            self.informed = False
            self.n = 64.0
            self.labels: Dict[str, float] = {}
            self.leaves = 32.0
            self.height = 8.0
            self.avg_subtree = 8.0
            self.avg_fanout = 2.0
            return
        trees = float(getattr(stats, "tree_count", 1) or 1)
        self.informed = True
        self.n = max(float(stats.n), 1.0)
        self.labels = {
            name: count / trees for name, count in stats.label_counts
        }
        self.leaves = float(stats.leaf_count) / trees
        self.height = max(float(stats.height), 1.0)
        self.avg_subtree = max(float(stats.avg_subtree), 0.0)
        self.avg_fanout = max(float(stats.avg_fanout), 1.0)

    def estimate(self, op, est: List[float]) -> float:
        n = self.n
        kind = type(op)
        if kind is LabelScan:
            return min(n, self.labels.get(op.name, 0.0))
        if kind is ConstScan:
            if op.kind == "all":
                return n
            if op.kind == "none":
                return 0.0
            if op.kind in ("root", "context"):
                return 1.0
            if op.kind == "leaf":
                return min(n, self.leaves)
            return max(1.0, n - self.leaves)  # first/last ≈ internal count
        if kind is Shift:
            return min(n, est[op.src])
        if kind is Children:
            return min(n, est[op.src] * self.avg_fanout)
        if kind is Descendants:
            return min(n, est[op.src] * self.avg_subtree)
        if kind is ClosurePlus:
            if op.direction in ("left", "right"):
                return min(n, est[op.src] * self.avg_fanout)
            if op.direction == "down":
                return min(n, est[op.src] * self.height)
            return min(n, est[op.src] * (self.avg_subtree + 1.0))
        if kind is Union:
            return min(n, sum(est[src] for src in op.srcs))
        if kind is Join:
            out = n
            for src in op.srcs:
                out *= est[src] / n
            return out
        if kind is Complement:
            return max(0.0, n - est[op.src])
        if kind is AnyLane:
            return n
        return n / 2.0  # Closure and anything future


class _Builder:
    """Emit ops with common-subexpression elimination and a running
    per-register cardinality estimate (used to order ``Join``).
    ``anchor`` is the ``ConstScan`` kind that stands for the context
    node: ``"root"`` or ``"context"``."""

    __slots__ = ("ops", "est", "view", "anchor", "_memo")

    def __init__(self, stats=None, anchor: str = "root") -> None:
        self.ops: List = []
        self.est: List[float] = []
        self.view = _StatView(stats)
        self.anchor = anchor
        self._memo: Dict = {}

    def context(self) -> int:
        """The register holding the context node."""
        return self.emit(ConstScan(self.anchor))

    def emit(self, op) -> int:
        hit = self._memo.get(op)
        if hit is not None:
            return hit
        self.ops.append(op)
        self.est.append(self.view.estimate(op, self.est))
        register = len(self.ops) - 1
        self._memo[op] = register
        return register

    def join(self, regs: List[int]) -> int:
        """Intersection of ``regs`` — deduplicated and, when statistics
        are available, ordered cheapest-first so the running big-int
        intersection shrinks as early as possible."""
        unique = list(dict.fromkeys(regs))
        if len(unique) == 1:
            return unique[0]
        if self.view.informed:
            unique.sort(key=lambda reg: (self.est[reg], reg))
        return self.emit(Join(tuple(unique)))

    def union(self, regs: List[int]) -> int:
        unique = list(dict.fromkeys(regs))
        if len(unique) == 1:
            return unique[0]
        return self.emit(Union(tuple(unique)))

    def plan(self, result: int, mode: str) -> Plan:
        return Plan(tuple(self.ops), result, mode)


# ---------------------------------------------------------------------------
# XPath lowering
# ---------------------------------------------------------------------------


def _test_reg(builder: _Builder, test) -> int:
    if isinstance(test, NameTest):
        return builder.emit(LabelScan(test.name))
    return builder.emit(ConstScan("all"))  # Wildcard and SelfTest


def _step_reg(builder: _Builder, step: Step) -> int:
    """test ∩ every filter's keep-mask — the nodes this step admits."""
    regs = [_test_reg(builder, step.test)]
    for filter_path in step.filters:
        regs.append(_filter_keep(builder, filter_path))
    return builder.join(regs)


def _filter_keep(builder: _Builder, path: Path) -> int:
    """The set of candidates at which ``[path]`` holds, computed
    *backwards*: ``A_k`` is the set of nodes that can play step ``k``
    and still reach a full match, pulled up through the axes by the
    preimage moves (child ⇒ one ``up``, descendant ⇒ ``up⁺``)."""
    masks = [_step_reg(builder, step) for step in path.steps]
    current = masks[-1]
    for axis, mask in zip(reversed(path.axes), reversed(masks[:-1])):
        if axis == CHILD:
            pre = builder.emit(Shift(current, "up"))
        else:
            pre = builder.emit(ClosurePlus(current, "up"))
        current = builder.join([mask, pre])
    if path.absolute:
        rooted = builder.join([current, builder.emit(ConstScan("root"))])
        return builder.emit(AnyLane(rooted))
    if isinstance(path.steps[0].test, SelfTest):
        return current  # the candidate itself plays step 0
    # implicit leading child axis: some child of the candidate plays it
    return builder.emit(Shift(current, "up"))


def _path_reg(builder: _Builder, path: Path) -> int:
    # An absolute path seeds at the root; a relative or self-headed one
    # at the context node, where its first step's test and filters
    # apply.  Anchored at the root, all three seed at the root.
    seed = (
        builder.emit(ConstScan("root")) if path.absolute else builder.context()
    )
    current = builder.join([seed, _step_reg(builder, path.steps[0])])
    for axis, step in zip(path.axes, path.steps[1:]):
        if axis == CHILD:
            moved = builder.emit(Children(current))
        else:
            moved = builder.emit(Descendants(current))
        current = builder.join([moved, _step_reg(builder, step)])
    return current


def lower_xpath(expr, stats=None, anchor: str = "root") -> Plan:
    """Lower an XPath AST (``Path`` or ``Union_``) for evaluation from
    the ``anchor`` node.  The paper's whole fragment fits the IR, so
    this lowering is total."""
    builder = _Builder(stats, anchor)
    if isinstance(expr, Union_):
        result = builder.union(
            [_path_reg(builder, alt) for alt in expr.alternatives]
        )
    else:
        result = _path_reg(builder, expr)
    return builder.plan(result, "nodes")


# ---------------------------------------------------------------------------
# FO(∃*) lowering
# ---------------------------------------------------------------------------

_CONST_ATOMS = {
    F.Root: "root",
    F.Leaf: "leaf",
    F.First: "first",
    F.Last: "last",
}


def _unary_atom(builder: _Builder, atom, var) -> Optional[int]:
    """An atom whose free variables are ⊆ {var}, as a set over var."""
    kind = type(atom)
    if kind is F.TrueF:
        return builder.emit(ConstScan("all"))
    if kind is F.FalseF:
        return builder.emit(ConstScan("none"))
    if kind is F.Label:
        return builder.emit(LabelScan(atom.symbol))
    const = _CONST_ATOMS.get(kind)
    if const is not None:
        return builder.emit(ConstScan(const))
    if kind is F.NodeEq:
        return builder.emit(ConstScan("all"))  # var = var
    if kind in (F.Edge, F.Desc, F.SibLess, F.Succ):
        return builder.emit(ConstScan("none"))  # irreflexive on var, var
    return None  # value atoms


def _linking_image(builder, atom, source: int, bound, free_var):
    """``{free_var : ∃ v ∈ source. atom(v, free_var)}`` for one positive
    binary atom linking the exhausted variable ``bound`` to
    ``free_var`` — each direction is a single IR op."""
    kind = type(atom)
    if kind is F.Desc:
        if atom.ancestor == bound and atom.descendant == free_var:
            return builder.emit(Descendants(source))
        if atom.ancestor == free_var and atom.descendant == bound:
            return builder.emit(ClosurePlus(source, "up"))
    elif kind is F.Edge:
        if atom.parent == bound and atom.child == free_var:
            return builder.emit(Children(source))
        if atom.parent == free_var and atom.child == bound:
            return builder.emit(Shift(source, "up"))
    elif kind is F.Succ:
        if atom.left == bound and atom.right == free_var:
            return builder.emit(Shift(source, "right"))
        if atom.left == free_var and atom.right == bound:
            return builder.emit(Shift(source, "left"))
    elif kind is F.SibLess:
        if atom.left == bound and atom.right == free_var:
            return builder.emit(ClosurePlus(source, "right"))
        if atom.left == free_var and atom.right == bound:
            return builder.emit(ClosurePlus(source, "left"))
    elif kind is F.NodeEq:
        return source
    return None


def _set_of(builder: _Builder, phi, var, anchor_var) -> Optional[int]:
    """``{var : φ}`` as a register, with ``anchor_var`` (if any) bound
    to the context node.  Returns ``None`` outside the fragment."""
    kind = type(phi)
    if kind is F.Not:
        inner = _set_of(builder, phi.inner, var, anchor_var)
        return None if inner is None else builder.emit(Complement(inner))
    if kind is F.And:
        regs = []
        for part in phi.parts:
            reg = _set_of(builder, part, var, anchor_var)
            if reg is None:
                return None
            regs.append(reg)
        return builder.join(regs)
    if kind is F.Or:
        regs = []
        for part in phi.parts:
            reg = _set_of(builder, part, var, anchor_var)
            if reg is None:
                return None
            regs.append(reg)
        return builder.union(regs)
    if kind is F.Implies:
        premise = _set_of(builder, phi.premise, var, anchor_var)
        conclusion = _set_of(builder, phi.conclusion, var, anchor_var)
        if premise is None or conclusion is None:
            return None
        return builder.union(
            [builder.emit(Complement(premise)), conclusion]
        )
    if kind is F.Forall:
        rewritten = F.Not(F.Exists(phi.var, F.Not(phi.inner)))
        return _set_of(builder, rewritten, var, anchor_var)
    if kind is F.Exists:
        return _exists(builder, phi.var, phi.inner, var, anchor_var)

    # atoms
    free = F.free_variables(phi)
    if free <= {var}:
        return _unary_atom(builder, phi, var)
    if anchor_var is not None and anchor_var in free:
        if free <= {anchor_var}:
            # a condition on the context node alone: all-or-none over var
            over_anchor = _unary_atom(builder, phi, anchor_var)
            if over_anchor is None:
                return None
            anchored = builder.join([over_anchor, builder.context()])
            return builder.emit(AnyLane(anchored))
        if free <= {var, anchor_var}:
            return _linking_image(
                builder, phi, builder.context(), anchor_var, var
            )
    return None


def _exists(builder: _Builder, qvar, body, var, anchor_var) -> Optional[int]:
    """``{var : ∃ qvar. body}`` — on-the-fly miniscoping: conjuncts are
    split by whether they see ``qvar``, the ``qvar``-only part becomes
    a witness set, and at most one positive binary atom links the
    witness set back to ``var`` through a single image op."""
    if qvar == var or qvar == anchor_var:
        return None  # shadowing: fall back rather than rename
    kind = type(body)
    if kind is F.Implies:
        body = F.Or((F.Not(body.premise), body.conclusion))
        kind = F.Or
    if kind is F.Or:
        regs = []
        for part in body.parts:
            reg = _exists(builder, qvar, part, var, anchor_var)
            if reg is None:
                return None
            regs.append(reg)
        return builder.union(regs)

    parts = body.parts if kind is F.And else (body,)
    outer: List[int] = []
    witness: List[int] = []
    links = []
    for part in parts:
        free = F.free_variables(part)
        if qvar not in free:
            reg = _set_of(builder, part, var, anchor_var)
            if reg is None:
                return None
            outer.append(reg)
        elif free <= ({qvar, anchor_var} if anchor_var else {qvar}):
            reg = _set_of(builder, part, qvar, anchor_var)
            if reg is None:
                return None
            witness.append(reg)
        elif free <= {qvar, var} and F.is_atom(part):
            links.append(part)
        else:
            return None
    if len(links) > 1:
        return None  # two images can't be intersected per-witness

    if witness:
        source = builder.join(witness)
    else:
        source = builder.emit(ConstScan("all"))
    if links:
        image = _linking_image(builder, links[0], source, qvar, var)
        if image is None:
            return None
    else:
        image = builder.emit(AnyLane(source))
    return builder.join(outer + [image]) if outer else image


def _closed(builder: _Builder, phi) -> Optional[int]:
    """A sentence as an all-or-none register (per tree / per lane)."""
    kind = type(phi)
    if kind is F.TrueF:
        return builder.emit(ConstScan("all"))
    if kind is F.FalseF:
        return builder.emit(ConstScan("none"))
    if kind is F.Not:
        inner = _closed(builder, phi.inner)
        return None if inner is None else builder.emit(Complement(inner))
    if kind is F.And:
        regs = []
        for part in phi.parts:
            reg = _closed(builder, part)
            if reg is None:
                return None
            regs.append(reg)
        return builder.join(regs)
    if kind is F.Or:
        regs = []
        for part in phi.parts:
            reg = _closed(builder, part)
            if reg is None:
                return None
            regs.append(reg)
        return builder.union(regs)
    if kind is F.Implies:
        return _closed(builder, F.Or((F.Not(phi.premise), phi.conclusion)))
    if kind is F.Forall:
        return _closed(builder, F.Not(F.Exists(phi.var, F.Not(phi.inner))))
    if kind is F.Exists:
        witness = _set_of(builder, phi.inner, phi.var, None)
        if witness is None:
            return None
        return builder.emit(AnyLane(witness))
    return None  # every proper atom has a free variable


def lower_sentence(formula, stats=None) -> Optional[Plan]:
    """Lower a closed FO formula to a boolean plan, or ``None``."""
    if F.free_variables(formula):
        return None
    builder = _Builder(stats)
    result = _closed(builder, formula)
    if result is None:
        return None
    return builder.plan(result, "boolean")


def lower_select(
    formula, x, y, stats=None, anchor: str = "root"
) -> Optional[Plan]:
    """Lower a binary selector φ(x, y) evaluated at the ``anchor``
    node: the answer set over ``y`` with ``x`` pinned to the context —
    or, when ``y`` is not free, the reference engine's all-or-nothing
    contract (every node if φ holds at the context, nothing
    otherwise)."""
    free = F.free_variables(formula)
    if not free <= {x, y}:
        return None
    builder = _Builder(stats, anchor)
    if y in free:
        result = _set_of(
            builder, formula, y, x if x in free else None
        )
    elif x in free:
        over_x = _set_of(builder, formula, x, None)
        if over_x is None:
            return None
        anchored = builder.join([over_x, builder.context()])
        result = builder.emit(AnyLane(anchored))
    else:
        condition = _closed(builder, formula)
        result = (
            None if condition is None else builder.emit(AnyLane(condition))
        )
    if result is None:
        return None
    return builder.plan(result, "nodes")


# ---------------------------------------------------------------------------
# caterpillar lowering
# ---------------------------------------------------------------------------


def lower_caterpillar(compiled, stats=None, anchor: str = "root") -> Plan:
    """Lower a :class:`~repro.engine.walk.CompiledWalk` for a walk from
    the ``anchor`` node: one ``Closure`` op over the compiled edge
    tables."""
    builder = _Builder(stats, anchor)
    result = builder.emit(
        Closure(
            builder.context(),
            compiled.edges,
            compiled.start,
            tuple(compiled.accepting),
            compiled.loops,
        )
    )
    return builder.plan(result, "nodes")


# ---------------------------------------------------------------------------
# per-tree plans
# ---------------------------------------------------------------------------

#: Context-anchored plans of the per-tree evaluators, keyed by the
#: parsed query's identity; entries pin the parsed object, so an id can
#: never be recycled while its entry is live.  ``None`` is cached too: a
#: formula outside the IR is probed once.
_TREE_PLANS: KeyedLRU = KeyedLRU(256, name="tree-plans")


def tree_plan(parsed, tag, lower) -> Optional[Plan]:
    """The per-tree plan of ``parsed`` lowered as ``tag`` (the query
    kind, plus whatever else the lowering reads), from ``lower()`` on a
    miss.  A hit renders and hashes no query text: callers hand the
    same parsed object to every call, so lowering happens once per
    query."""
    key = (tag, id(parsed))
    hit = _TREE_PLANS.get(key)
    if hit is not None and hit[0] is parsed:
        return hit[1]
    plan = lower()
    _TREE_PLANS.put(key, (parsed, plan))
    return plan


def tree_plan_clear() -> None:
    """Empty the per-tree plans and their bound ``Closure`` tables."""
    _TREE_PLANS.cache_clear()
    _TREE_CLOSURES.cache_clear()
