"""Fast XPath selection over a :class:`TreeIndex`: the plan IR from any
context node.

The reference evaluator (:mod:`repro.xpath.evaluator`) materializes a
Python set of node addresses per step and walks axes node by node.
Here the expression lowers once (:func:`repro.engine.ir.lower_xpath`,
anchored at the context node) to a register program over int bitsets
on dense preorder ids, and every call runs that program:

* a **child** step is one ``Children`` image of the whole frontier;
* a **descendant** step collapses the frontier's subtrees to maximal
  preorder intervals (:meth:`TreeIndex.descendants_mask`), so ``//``
  costs O(#disjoint subtrees) big-int range operations;
* node tests intersect with the label inverted index (one ``&``);
* a filter ``[p]`` becomes a *keep-mask* computed backwards, set at a
  time: the nodes at which ``p`` matches, pulled up through ``p``'s
  axes by ``up`` moves — no per-candidate run;
* document-order output is free (ascending bit order).

The lowering is total over the paper's fragment, so this is the only
fast XPath path.  Agreement with the reference is enforced by the
``xpath/fast-xpath`` oracle pair and the differential suites.
"""

from __future__ import annotations

from typing import Tuple

from ..trees.node import NodeId
from ..trees.tree import Tree
from ..xpath.ast import Expr
from .index import index_for
from .ir import evaluate_tree, lower_xpath, tree_plan

__all__ = ["select"]


def select(expr: Expr, tree: Tree, context: NodeId = ()) -> Tuple[NodeId, ...]:
    """Bitset counterpart of :func:`repro.xpath.evaluator.select` —
    same nodes, same document order, from any context node."""
    tree.require(context)
    idx = index_for(tree)
    plan = tree_plan(
        expr, "xpath", lambda: lower_xpath(expr, anchor="context")
    )
    return idx.to_nodes(evaluate_tree(plan, idx, idx.id_of[context]))
