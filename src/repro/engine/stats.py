"""Tree statistics and sampling-based cardinality estimation.

The planner (:mod:`repro.engine.planner`) needs two kinds of numbers
before it runs anything:

* **profile statistics** — size, height, label histogram, mean fan-out
  and mean subtree size — cheap one-pass summaries of a tree (or a
  whole corpus) that parameterise the per-engine cost model.  They come
  with a content *fingerprint*: a stable hash of everything the cost
  model reads, so a cached plan is keyed to the statistics it was
  built against and can never outlive them (the
  `plans cached by text + stats fingerprint` contract).
* **cardinality estimates** — how many rows an intermediate join
  produces.  Per-label and per-value counts are free popcounts off the
  :class:`~repro.engine.index.TreeIndex` inverted indexes; *join*
  selectivities (how many (ancestor, descendant) pairs survive two
  unary predicates) use wander-join-style random sampling: draw source
  nodes uniformly, count each one's continuations exactly against the
  interval structure, and scale by the inverse sampling probability.
  When the sample covers the whole population the estimate is exact —
  the property the estimator test battery pins down on degenerate
  trees.

Everything here is deterministic under a fixed seed: the sampler is a
private ``random.Random(seed)`` and the tree statistics are pure
functions of the tree.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from ..caching import KeyedLRU
from ..trees.tree import Tree
from .index import TreeIndex, bit_count, iter_bits

__all__ = [
    "DEFAULT_SAMPLE_SIZE",
    "TreeStatistics",
    "CorpusStatistics",
    "CardinalityEstimator",
    "tree_statistics",
    "corpus_statistics",
    "closure_reach_estimate",
    "stats_cache_clear",
]

#: Wander-join sample size: how many source nodes a join estimate
#: draws.  Populations at or below this bound are counted exactly.
DEFAULT_SAMPLE_SIZE = 64


def _fingerprint(payload: str) -> str:
    """A short stable content hash (process- and platform-independent,
    unlike ``hash``) — the plan-cache key component."""
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TreeStatistics:
    """One-pass profile of a single tree — everything the planner's
    cost model reads, plus the fingerprint that keys cached plans."""

    n: int
    height: int
    leaf_count: int
    #: label → occurrence count, sorted by label.
    label_counts: Tuple[Tuple[str, int], ...]
    #: attribute → number of nodes carrying a value, sorted.
    attr_counts: Tuple[Tuple[str, int], ...]
    #: mean children per internal node (0.0 for a single-node tree).
    avg_fanout: float
    #: mean proper-descendant count over all nodes (= mean depth).
    avg_subtree: float
    fingerprint: str

    def label_fraction(self, label: str) -> float:
        """Selectivity of the label test O_label — exact, popcount-free."""
        for name, count in self.label_counts:
            if name == label:
                return count / self.n
        return 0.0

    @classmethod
    def from_tree(cls, tree: Tree) -> "TreeStatistics":
        nodes = tree.nodes
        n = len(nodes)
        labels: Dict[str, int] = {}
        height = 0
        leaves = 0
        total_depth = 0
        for u in nodes:
            depth = len(u)  # addresses are root paths: depth is free
            total_depth += depth
            if depth > height:
                height = depth
            label = tree.label(u)
            labels[label] = labels.get(label, 0) + 1
            if not tree.children(u):
                leaves += 1
        internal = n - leaves
        attr_counts = tuple(
            sorted(
                (attr, len(tree.attr_table(attr)))
                for attr in tree.attributes
            )
        )
        label_counts = tuple(sorted(labels.items()))
        # total_depth covers avg_subtree (= total_depth / n); avg_fanout
        # is derived from n and leaves — the payload must span every
        # field the cost model reads, or two profile-distinct trees
        # could share a fingerprint and hence a cached plan.
        payload = repr(
            (n, height, leaves, total_depth, label_counts, attr_counts)
        )
        return cls(
            n=n,
            height=height,
            leaf_count=leaves,
            label_counts=label_counts,
            attr_counts=attr_counts,
            avg_fanout=(n - 1) / internal if internal else 0.0,
            # Each node v is a proper descendant of exactly depth(v)
            # ancestors, so Σ|subtree(u)| = Σ depth(v).
            avg_subtree=total_depth / n,
            fingerprint=_fingerprint(payload),
        )


@dataclass(frozen=True)
class CorpusStatistics:
    """The same profile aggregated over a corpus: per-node means across
    every tree, with a fingerprint chaining the per-tree ones in order.

    Any change to the tree sequence — a tree added, removed, reordered
    or replaced — changes the fingerprint, which invalidates every plan
    keyed against the old statistics."""

    tree_count: int
    total_nodes: int
    n: float  # mean tree size — the cost model's per-tree n
    max_n: int
    height: float
    leaf_count: float
    label_counts: Tuple[Tuple[str, int], ...]  # summed over trees
    avg_fanout: float
    avg_subtree: float
    fingerprint: str

    def label_fraction(self, label: str) -> float:
        if not self.total_nodes:
            return 0.0
        for name, count in self.label_counts:
            if name == label:
                return count / self.total_nodes
        return 0.0

    @classmethod
    def from_trees(
        cls, per_tree: Sequence[TreeStatistics]
    ) -> "CorpusStatistics":
        count = len(per_tree)
        total = sum(s.n for s in per_tree)
        labels: Dict[str, int] = {}
        for s in per_tree:
            for name, c in s.label_counts:
                labels[name] = labels.get(name, 0) + c
        payload = "|".join(s.fingerprint for s in per_tree)
        return cls(
            tree_count=count,
            total_nodes=total,
            n=total / count if count else 0.0,
            max_n=max((s.n for s in per_tree), default=0),
            height=_mean([s.height for s in per_tree]),
            leaf_count=_mean([s.leaf_count for s in per_tree]),
            label_counts=tuple(sorted(labels.items())),
            avg_fanout=_mean([s.avg_fanout for s in per_tree]),
            avg_subtree=_mean([s.avg_subtree for s in per_tree]),
            fingerprint=_fingerprint(payload),
        )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def closure_reach_estimate(profile, directions: Iterable[str]) -> float:
    """Expected per-source image size of ``directions``:sup:`*` from
    profile statistics alone — what the planner's walk costs read.

    The closed forms lean on two one-pass identities: the mean depth of
    a uniform node equals ``avg_subtree`` (so a pure ``up*`` chain has
    that expected length), and a ``(down|right)*`` closure from a
    uniform node covers on average one proper subtree (``avg_subtree``
    again, by the same Σ-depth identity).  A lone ``down*`` walks the
    first-child spine, bounded by the height; sibling-only closures walk
    on average half the fan-out; mixing ``up`` with any other direction
    reaches essentially the whole document.
    """
    dirs = frozenset(directions)
    n = max(float(profile.n), 1.0)
    if not dirs:
        return 1.0
    height = max(float(getattr(profile, "height", 1.0)), 1.0)
    avg_subtree = max(float(getattr(profile, "avg_subtree", 0.0)), 0.0)
    fanout = max(float(getattr(profile, "avg_fanout", 0.0)), 0.0)
    if "up" in dirs and len(dirs) > 1:
        return n
    if dirs == {"up"}:
        return min(n, avg_subtree + 1.0)
    if "down" in dirs and ("right" in dirs or "left" in dirs):
        return min(n, avg_subtree + 1.0)
    if dirs == {"down"}:
        return min(n, height / 2.0 + 1.0)
    return min(n, fanout / 2.0 + 1.0)  # sibling-only chains


#: Profile types the planner's cost model accepts interchangeably.
StatsProfile = object  # TreeStatistics | CorpusStatistics


#: Bounded cache of per-tree statistics keyed on tree identity; entries
#: pin their tree so an id can never be recycled while live (the same
#: discipline as the index cache).
_STATS_CACHE_SIZE = 256
_STATS_CACHE: KeyedLRU = KeyedLRU(_STATS_CACHE_SIZE, name="tree-stats")


def tree_statistics(tree: Tree) -> TreeStatistics:
    """The (cached) statistics of ``tree`` — one O(n) pass per tree
    object, no index required."""
    key = id(tree)
    hit = _STATS_CACHE.get(key)
    if hit is not None and hit[0] is tree:
        return hit[1]
    stats = TreeStatistics.from_tree(tree)
    _STATS_CACHE.put(key, (tree, stats))
    return stats


def corpus_statistics(trees: Iterable[Tree]) -> CorpusStatistics:
    """Aggregated statistics over a tree sequence (order-sensitive —
    the fingerprint chains the per-tree fingerprints in order)."""
    return CorpusStatistics.from_trees(
        [tree_statistics(tree) for tree in trees]
    )


def stats_cache_clear() -> None:
    """Drop every cached per-tree statistics record (tests)."""
    _STATS_CACHE.cache_clear()


class CardinalityEstimator:
    """Wander-join-style cardinality estimates over one tree's index.

    Unary predicates are exact (popcounts over the inverted indexes).
    Binary joins are estimated by sampling: draw up to ``sample_size``
    source nodes uniformly from the left predicate's population, count
    each source's continuations *exactly* against the interval labels,
    and scale the total by ``population / sample``.  When the
    population fits in the sample the walk degenerates to an exact
    count — so estimates are exact on small inputs by construction.

    Deterministic per seed: two estimators with the same seed issuing
    the same call sequence return identical numbers.
    """

    def __init__(
        self,
        index: TreeIndex,
        seed: int = 0,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
    ) -> None:
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.index = index
        self.seed = seed
        self.sample_size = sample_size
        self._rng = random.Random(seed)

    # -- exact unary counts ------------------------------------------------

    def count(self, mask: int) -> int:
        """Exact cardinality of a node bitset (free popcount)."""
        return bit_count(mask)

    def label_count(self, label: str) -> int:
        """Exact number of σ-labelled nodes."""
        return bit_count(self.index.labelled(label))

    # -- sampled binary joins ----------------------------------------------

    def _sampled_sources(self, mask: int) -> Tuple[Sequence[int], float]:
        """Sources to walk from and the inverse sampling probability."""
        sources = list(iter_bits(mask))
        population = len(sources)
        if population <= self.sample_size:
            return sources, 1.0
        chosen = self._rng.sample(sources, self.sample_size)
        return chosen, population / self.sample_size

    def descendant_pairs(self, ancestors: int, descendants: int) -> int:
        """Estimated ``|{(u, v) : u ∈ A, v ∈ D, u ≺ v}|``.

        Each sampled ancestor's continuation count is the popcount of
        ``D`` restricted to its subtree *interval* — exact per source,
        so the only error is sampling error, and there is none when
        ``|A| ≤ sample_size``."""
        if not ancestors or not descendants:
            return 0
        subtree_mask = self.index.subtree_mask
        chosen, scale = self._sampled_sources(ancestors)
        hits = sum(
            bit_count(descendants & subtree_mask(u)) for u in chosen
        )
        return round(hits * scale)

    def value_join(self, attr_left: str, attr_right: str) -> int:
        """Estimated ``|{(u, v) : val_a(u) = val_b(v)}|`` off the
        value inverted indexes — the tables are small, so this is an
        exact sum of per-value products."""
        left = self.index.value_mask.get(attr_left, {})
        right = self.index.value_mask.get(attr_right, {})
        return sum(
            bit_count(bits) * bit_count(right.get(value, 0))
            for value, bits in left.items()
        )

    def avg_subtree_size(self) -> float:
        """Sampled mean proper-descendant count — the wander-join
        estimate of how much a descendant axis multiplies a frontier."""
        idx = self.index
        if not idx.n:
            return 0.0
        return self.descendant_pairs(idx.all_mask, idx.all_mask) / idx.n
