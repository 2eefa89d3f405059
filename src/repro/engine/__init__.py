"""The indexed, set-at-a-time query engine.

Fast counterparts of the reference evaluators, built on one compiled
:class:`~repro.engine.index.TreeIndex` per document.  Each dialect has
one fast evaluator wherever the plan IR can express it:

* :mod:`repro.engine.index` — dense preorder ids, interval labels
  (O(1) ``descendant``), navigation arrays and inverted indexes, with
  node sets as Python-int bitsets;
* :mod:`repro.engine.ir` — the plan IR every dialect lowers into: a
  register program of node-set ops, anchored at the context node for
  one tree or at the root for a stacked shard of many;
* :mod:`repro.engine.xpath` — XPath selection: the IR from any
  context node (the lowering is total);
* :mod:`repro.engine.fo` — FO sentences and FO(∃*) selectors that
  lower run on the IR; the rest (value atoms, cyclic quantifier
  patterns) on bottom-up relational evaluation (join/project/
  co-project over satisfying-assignment relations, with on-the-fly
  miniscoping);
* :mod:`repro.engine.walk` — compiled caterpillar expressions: a walk
  from a node is the IR's ``Closure`` op, the full relation one
  stacked frontier-bitset sweep over every start node;
* :mod:`repro.engine.stats` — tree/corpus statistics with content
  fingerprints, plus wander-join-sampled join cardinality estimates;
* :mod:`repro.engine.planner` — the cost-based adaptive planner behind
  ``engine="auto"``: per-engine cost estimates, cached plans keyed by
  query text + statistics fingerprint, and guarded execution that
  re-plans onto the reference engine when actual work overshoots the
  estimate.

Both engines are semantically interchangeable with the references in
:mod:`repro.logic.tree_fo` and :mod:`repro.xpath.evaluator`; the
differential oracle and the hypothesis suites keep them that way.
"""

from .fo import evaluate, relation_of, satisfying_assignments
from .fo import select as fo_select
from .index import TreeIndex, bit_count, index_for, iter_bits
from .planner import Plan, Planner, default_planner
from .stats import (
    CardinalityEstimator,
    CorpusStatistics,
    TreeStatistics,
    corpus_statistics,
    tree_statistics,
)
from .walk import CompiledWalk, WalkEvaluator, compile_walk
from .walk import matches as walk_matches
from .walk import relation as walk_relation
from .walk import walk as walk_select
from .xpath import select as xpath_select

__all__ = [
    "TreeIndex",
    "index_for",
    "iter_bits",
    "bit_count",
    "evaluate",
    "satisfying_assignments",
    "relation_of",
    "fo_select",
    "xpath_select",
    "CompiledWalk",
    "WalkEvaluator",
    "compile_walk",
    "walk_select",
    "walk_relation",
    "walk_matches",
    "Plan",
    "Planner",
    "default_planner",
    "TreeStatistics",
    "CorpusStatistics",
    "CardinalityEstimator",
    "tree_statistics",
    "corpus_statistics",
]
