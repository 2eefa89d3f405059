"""Bottom-up, set-at-a-time FO evaluation over a :class:`TreeIndex`.

A sentence or FO(∃*) selector the plan IR can express runs there
(:func:`repro.engine.ir.lower_sentence` / ``lower_select``, anchored at
the context node), from any context; this module's relational engine
answers the rest — value atoms, and quantifiers that link two
variables through more than one atom — plus every formula evaluated
under an explicit assignment.

The reference model checker (:mod:`repro.logic.tree_fo`) evaluates a
formula once per assignment: a quantifier block of k variables costs
n^k full recursive evaluations.  This engine instead compiles each
subformula — once — to the *relation of its satisfying assignments*
over its free variables (the Gottlob–Koch–Schulz set-at-a-time plan):

* arity 0 → a bool, arity 1 → a bitset over dense node ids,
  arity ≥ 2 → a set of id tuples, optionally under a lazy complement
  flag so negation is O(1);
* ∧ is a natural join (smallest relations first, complements applied
  as anti-filters), ∨ a union after conforming the columns;
* ∃ is projection, ∀ co-projection (counting), and both are
  *miniscoped* on the fly — ∃x(φ ∨ ψ) evaluates as ∃xφ ∨ ∃xψ, and a
  conjunct not mentioning x is pulled out of ∃x — so formulas with
  small intermediate relations never touch the n^k assignment space;
* every atom is read straight off the index: label/value atoms are
  inverted-index lookups, ``x ≺ y`` enumerates subtree *intervals*,
  E/succ/< come from the navigation arrays.

Semantics are exactly those of ``tree_fo.evaluate`` /
``tree_fo.satisfying_assignments`` / ``ExistsStarQuery.select``; the
``fo/fast-fo`` oracle pair and the hypothesis differential suite hold
the two engines to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..logic import tree_fo
from ..logic.tree_fo import (
    And,
    Atom,
    Desc,
    Edge,
    Exists,
    FalseF,
    First,
    Forall,
    Implies,
    Label,
    Last,
    Leaf,
    NodeEq,
    Not,
    NVar,
    Or,
    Root,
    SibLess,
    Succ,
    TreeFormula,
    TreeFormulaError,
    TrueF,
    ValConst,
    ValEq,
    free_variables,
)
from ..resilience.budget import current_context
from ..trees.node import NodeId
from ..trees.tree import Tree
from .index import TreeIndex, bit_count, index_for, iter_bits
from .ir import evaluate_tree, lower_select, lower_sentence, tree_plan

__all__ = ["evaluate", "satisfying_assignments", "select", "relation_of"]


def _charge(cost: int) -> None:
    """Budget checkpoint: relations charge their (predicted) row work to
    the ambient budget *before* materialising it, so a join or conform
    that would build n^k rows is refused up front.  One ContextVar read
    when no budget is active."""
    context = current_context()
    if context is not None:
        context.checkpoint(cost)


@dataclass
class _Rel:
    """The satisfying assignments of one subformula.

    ``rows`` is a bool (no columns), an int bitset (one column) or a
    set of dense-id tuples aligned with ``vars``.  ``neg`` marks a lazy
    complement and only ever appears at arity ≥ 2 — lower arities
    complement eagerly (O(1) on bitsets/bools).
    """

    vars: Tuple[NVar, ...]
    rows: object
    neg: bool = False


def _empty(vars: Tuple[NVar, ...]) -> _Rel:
    if not vars:
        return _Rel((), False)
    if len(vars) == 1:
        return _Rel(vars, 0)
    return _Rel(vars, set())


def _negate(rel: _Rel, idx: TreeIndex) -> _Rel:
    if not rel.vars:
        return _Rel((), not rel.rows)
    if len(rel.vars) == 1:
        return _Rel(rel.vars, rel.rows ^ idx.all_mask)
    return _Rel(rel.vars, rel.rows, not rel.neg)


def _materialize(rel: _Rel, idx: TreeIndex) -> _Rel:
    """Resolve a lazy complement into explicit rows (the n^k fallback)."""
    if not rel.neg:
        return rel
    _charge(idx.n ** len(rel.vars))
    rows = set(product(range(idx.n), repeat=len(rel.vars)))
    rows.difference_update(rel.rows)
    return _Rel(rel.vars, rows)


def _estimate(rel: _Rel, idx: TreeIndex) -> int:
    if not rel.vars:
        return 0
    if len(rel.vars) == 1:
        return bit_count(rel.rows)
    size = len(rel.rows)
    return idx.n ** len(rel.vars) - size if rel.neg else size


def _join(a: _Rel, b: _Rel, idx: TreeIndex) -> _Rel:
    """Natural join of two positive relations."""
    _charge(_estimate(a, idx) + _estimate(b, idx) + 1)
    if not a.vars:
        return b if a.rows else _empty(b.vars)
    if not b.vars:
        return a if b.rows else _empty(a.vars)
    if len(a.vars) == 1 and len(b.vars) == 1:
        if a.vars[0] == b.vars[0]:
            return _Rel(a.vars, a.rows & b.rows)
        return _Rel(
            a.vars + b.vars,
            {(i, j) for i in iter_bits(a.rows) for j in iter_bits(b.rows)},
        )
    if len(a.vars) == 1:
        a, b = b, a
    if len(b.vars) == 1:
        var = b.vars[0]
        if var in a.vars:
            k = a.vars.index(var)
            bits = b.rows
            return _Rel(a.vars, {t for t in a.rows if (bits >> t[k]) & 1})
        ids = list(iter_bits(b.rows))
        return _Rel(a.vars + (var,), {t + (j,) for t in a.rows for j in ids})
    common = [v for v in a.vars if v in b.vars]
    if not common:
        return _Rel(a.vars + b.vars, {t + s for t in a.rows for s in b.rows})
    a_pos = [a.vars.index(v) for v in common]
    b_pos = [b.vars.index(v) for v in common]
    b_extra = [k for k, v in enumerate(b.vars) if v not in a.vars]
    keyed: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for s in b.rows:
        keyed.setdefault(tuple(s[k] for k in b_pos), []).append(
            tuple(s[k] for k in b_extra)
        )
    out = set()
    for t in a.rows:
        for extra in keyed.get(tuple(t[k] for k in a_pos), ()):
            out.add(t + extra)
    return _Rel(a.vars + tuple(b.vars[k] for k in b_extra), out)


def _anti_filter(a: _Rel, b: _Rel, idx: TreeIndex) -> _Rel:
    """``a ∧ ¬b`` where b's columns are a subset of a's (both ≥ 2-ary
    on the b side is guaranteed: unary complements are eager)."""
    _charge(len(a.rows) + 1)
    positions = [a.vars.index(v) for v in b.vars]
    rows = b.rows
    return _Rel(
        a.vars,
        {t for t in a.rows if tuple(t[k] for k in positions) not in rows},
    )


def _and2(a: _Rel, b: _Rel, idx: TreeIndex) -> _Rel:
    if a.neg and not b.neg:
        a, b = b, a
    if not a.neg and not b.neg:
        return _join(a, b, idx)
    if not a.neg and b.neg:
        if len(a.vars) >= 2 and set(b.vars) <= set(a.vars):
            return _anti_filter(a, b, idx)
        return _join(a, _materialize(b, idx), idx)
    # both lazy complements: ¬S ∧ ¬T = ¬(S ∨ T) when columns agree
    if set(a.vars) == set(b.vars):
        positive = [_Rel(a.vars, a.rows), _Rel(b.vars, b.rows)]
        return _negate(
            _union_positive([a.vars, b.vars], positive, idx), idx
        )
    return _join(_materialize(a, idx), _materialize(b, idx), idx)


def _and_all(rels: Sequence[_Rel], idx: TreeIndex) -> _Rel:
    pending = sorted(
        (r for r in rels if not r.neg), key=lambda r: _estimate(r, idx)
    )
    # Greedy connectivity-aware join order: start from the smallest
    # relation, then always join the smallest remaining conjunct that
    # shares a variable with what is already bound — a Cartesian
    # product only when nothing connects.  Conjunction is commutative,
    # so any order is sound; a connected order keeps intermediates
    # near the final selectivity instead of exploding through a cross
    # product that a later shared-variable join would shrink again.
    positives: List[_Rel] = []
    bound: set = set()
    while pending:
        pick = 0
        if bound:
            pick = next(
                (k for k, r in enumerate(pending) if bound & set(r.vars)), 0
            )
        rel = pending.pop(pick)
        positives.append(rel)
        bound.update(rel.vars)
    negatives = [r for r in rels if r.neg]
    acc: Optional[_Rel] = None
    for rel in positives + negatives:
        if acc is None:
            acc = rel
            continue
        if not acc.neg and not acc.vars and not acc.rows:
            break  # already unsatisfiable; columns still accumulate below
        acc = _and2(acc, rel, idx)
    assert acc is not None
    missing = [
        v for r in rels for v in r.vars if v not in acc.vars
    ]  # only reachable via an early False conjunct
    if missing:
        acc = _conform(acc, tuple(acc.vars) + tuple(dict.fromkeys(missing)), idx)
    return acc


def _conform(rel: _Rel, vars_out: Tuple[NVar, ...], idx: TreeIndex) -> _Rel:
    """Materialize, extend with unconstrained columns, reorder to
    ``vars_out`` (which must be a superset of the relation's columns)."""
    rel = _materialize(rel, idx)
    if rel.vars == vars_out:
        return rel
    if not vars_out:
        return rel
    domain = range(idx.n)
    if not rel.vars:
        if not rel.rows:
            return _empty(vars_out)
        if len(vars_out) == 1:
            return _Rel(vars_out, idx.all_mask)
        return _Rel(vars_out, set(product(domain, repeat=len(vars_out))))
    if len(rel.vars) == 1 and len(vars_out) == 1:
        return rel  # same single column, order trivially equal
    rows = (
        [(i,) for i in iter_bits(rel.rows)]
        if len(rel.vars) == 1
        else rel.rows
    )
    positions = {v: k for k, v in enumerate(rel.vars)}
    extra = [v for v in vars_out if v not in positions]
    _charge(max(len(rows), 1) * idx.n ** len(extra))
    out = set()
    for t in rows:
        base = {v: t[k] for v, k in positions.items()}
        for choice in product(domain, repeat=len(extra)):
            base.update(zip(extra, choice))
            out.add(tuple(base[v] for v in vars_out))
    if len(vars_out) == 1:
        bits = 0
        for (i,) in out:
            bits |= 1 << i
        return _Rel(vars_out, bits)
    return _Rel(vars_out, out)


def _union_positive(
    var_lists: Sequence[Tuple[NVar, ...]], rels: Sequence[_Rel], idx: TreeIndex
) -> _Rel:
    vars_out: Tuple[NVar, ...] = ()
    seen = set()
    for vars in var_lists:
        for v in vars:
            if v not in seen:
                seen.add(v)
                vars_out += (v,)
    conformed = [_conform(r, vars_out, idx) for r in rels]
    if not vars_out:
        return _Rel((), any(r.rows for r in conformed))
    if len(vars_out) == 1:
        bits = 0
        for r in conformed:
            bits |= r.rows
        return _Rel(vars_out, bits)
    rows = set()
    for r in conformed:
        rows |= r.rows
    return _Rel(vars_out, rows)


def _or_all(rels: Sequence[_Rel], idx: TreeIndex) -> _Rel:
    if any(r.neg for r in rels):
        # ¬S ∨ T ∨ … = ¬(S ∧ ¬T ∧ …): route complements through the
        # join/anti-filter machinery instead of materializing them —
        # a lazy ¬S conformed to extra columns costs n^k rows.
        return _negate(_and_all([_negate(r, idx) for r in rels], idx), idx)
    return _union_positive([r.vars for r in rels], rels, idx)


def _project(rel: _Rel, var: NVar, idx: TreeIndex) -> _Rel:
    """∃var — drop one column."""
    if var not in rel.vars:
        return rel  # vacuous: Dom(t) is never empty
    rel = _materialize(rel, idx)
    if len(rel.vars) == 1:
        return _Rel((), rel.rows != 0)
    _charge(len(rel.rows) + 1)
    k = rel.vars.index(var)
    vars_out = rel.vars[:k] + rel.vars[k + 1 :]
    if len(vars_out) == 1:
        bits = 0
        for t in rel.rows:
            bits |= 1 << (t[1 - k])
        return _Rel(vars_out, bits)
    return _Rel(vars_out, {t[:k] + t[k + 1 :] for t in rel.rows})


def _coproject(rel: _Rel, var: NVar, idx: TreeIndex) -> _Rel:
    """∀var — keep the residual assignments true for *every* node."""
    if var not in rel.vars:
        return rel
    if rel.neg:
        # ∀v ¬S ≡ ¬∃v S: project the positive rows, complement after.
        return _negate(_project(_Rel(rel.vars, rel.rows), var, idx), idx)
    if len(rel.vars) == 1:
        return _Rel((), rel.rows == idx.all_mask)
    _charge(len(rel.rows) + 1)
    k = rel.vars.index(var)
    counts: Dict[Tuple[int, ...], int] = {}
    for t in rel.rows:
        key = t[:k] + t[k + 1 :]
        counts[key] = counts.get(key, 0) + 1
    vars_out = rel.vars[:k] + rel.vars[k + 1 :]
    keep = {key for key, c in counts.items() if c == idx.n}
    if len(vars_out) == 1:
        bits = 0
        for (i,) in keep:
            bits |= 1 << i
        return _Rel(vars_out, bits)
    return _Rel(vars_out, keep)


def _restrict(rel: _Rel, var: NVar, value: int, idx: TreeIndex) -> _Rel:
    """Bind one column to a constant and drop it."""
    if var not in rel.vars:
        return rel
    if rel.neg:
        return _negate(_restrict(_Rel(rel.vars, rel.rows), var, value, idx), idx)
    if len(rel.vars) == 1:
        return _Rel((), bool((rel.rows >> value) & 1))
    k = rel.vars.index(var)
    vars_out = rel.vars[:k] + rel.vars[k + 1 :]
    if len(vars_out) == 1:
        bits = 0
        for t in rel.rows:
            if t[k] == value:
                bits |= 1 << t[1 - k]
        return _Rel(vars_out, bits)
    return _Rel(
        vars_out, {t[:k] + t[k + 1 :] for t in rel.rows if t[k] == value}
    )


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


def _value_table(idx: TreeIndex, attr: str) -> Dict:
    if attr not in idx.value_mask:
        # Same error (and message) the reference raises via Tree.val.
        idx.tree.attr_table(attr)
    return idx.value_mask[attr]


def _atom_rel(atom: Atom, idx: TreeIndex) -> _Rel:
    if isinstance(atom, TrueF):
        return _Rel((), True)
    if isinstance(atom, FalseF):
        return _Rel((), False)
    if isinstance(atom, Label):
        return _Rel((atom.var,), idx.labelled(atom.symbol))
    if isinstance(atom, Root):
        return _Rel((atom.var,), idx.root_mask)
    if isinstance(atom, Leaf):
        return _Rel((atom.var,), idx.leaf_mask)
    if isinstance(atom, First):
        return _Rel((atom.var,), idx.first_mask)
    if isinstance(atom, Last):
        return _Rel((atom.var,), idx.last_mask)
    if isinstance(atom, ValConst):
        table = _value_table(idx, atom.attr)
        return _Rel((atom.var,), table.get(atom.value, 0))
    if isinstance(atom, NodeEq):
        if atom.left == atom.right:
            return _Rel((atom.left,), idx.all_mask)
        return _Rel(
            (atom.left, atom.right), {(i, i) for i in range(idx.n)}
        )
    if isinstance(atom, Edge):
        if atom.parent == atom.child:
            return _Rel((atom.parent,), 0)
        parent = idx.parent
        return _Rel(
            (atom.parent, atom.child),
            {(parent[j], j) for j in range(idx.n) if parent[j] >= 0},
        )
    if isinstance(atom, Succ):
        if atom.left == atom.right:
            return _Rel((atom.left,), 0)
        nxt = idx.next_sibling
        return _Rel(
            (atom.left, atom.right),
            {(i, nxt[i]) for i in range(idx.n) if nxt[i] >= 0},
        )
    if isinstance(atom, SibLess):
        if atom.left == atom.right:
            return _Rel((atom.left,), 0)
        rows = set()
        for u in range(idx.n):
            kids = idx.children_of(u)
            for a in range(len(kids)):
                for b in range(a + 1, len(kids)):
                    rows.add((kids[a], kids[b]))
        return _Rel((atom.left, atom.right), rows)
    if isinstance(atom, Desc):
        if atom.ancestor == atom.descendant:
            return _Rel((atom.ancestor,), 0)
        subtree_end = idx.subtree_end
        _charge(idx.n)
        rows = {
            (u, v)
            for u in range(idx.n)
            for v in range(u + 1, subtree_end[u])
        }
        return _Rel((atom.ancestor, atom.descendant), rows)
    if isinstance(atom, ValEq):
        left = _value_table(idx, atom.attr_left)
        right = _value_table(idx, atom.attr_right)
        if atom.left == atom.right:
            bits = 0
            for value, abits in left.items():
                bits |= abits & right.get(value, 0)
            return _Rel((atom.left,), bits)
        rows = set()
        for value, abits in left.items():
            bbits = right.get(value, 0)
            if not bbits:
                continue
            b_ids = list(iter_bits(bbits))
            for i in iter_bits(abits):
                for j in b_ids:
                    rows.add((i, j))
        return _Rel((atom.left, atom.right), rows)
    raise TreeFormulaError(f"unknown atom {atom!r}")


# ---------------------------------------------------------------------------
# The compiler: formula → relation
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, idx: TreeIndex) -> None:
        self.idx = idx
        self.memo: Dict[int, _Rel] = {}

    def rel(self, formula: TreeFormula) -> _Rel:
        cached = self.memo.get(id(formula))
        if cached is not None:
            return cached
        out = self._rel_uncached(formula)
        self.memo[id(formula)] = out
        return out

    def _rel_uncached(self, formula: TreeFormula) -> _Rel:
        _charge(1)
        idx = self.idx
        if tree_fo.is_atom(formula):
            return _atom_rel(formula, idx)  # type: ignore[arg-type]
        if isinstance(formula, Not):
            return _negate(self.rel(formula.inner), idx)
        if isinstance(formula, And):
            return _and_all([self.rel(p) for p in formula.parts], idx)
        if isinstance(formula, Or):
            return _or_all([self.rel(p) for p in formula.parts], idx)
        if isinstance(formula, Implies):
            return _or_all(
                [
                    _negate(self.rel(formula.premise), idx),
                    self.rel(formula.conclusion),
                ],
                idx,
            )
        if isinstance(formula, (Exists, Forall)):
            return self.quant(
                isinstance(formula, Exists), formula.var, formula.inner
            )
        raise TreeFormulaError(f"unknown formula node {formula!r}")

    def quant(self, is_exists: bool, var: NVar, inner: TreeFormula) -> _Rel:
        """∃/∀ with on-the-fly miniscoping, so the quantifier reaches
        its relation while the relation is still narrow."""
        idx = self.idx
        if var not in free_variables(inner):
            return self.rel(inner)  # vacuous: Dom(t) is never empty
        if isinstance(inner, Not):
            return _negate(self.quant(not is_exists, var, inner.inner), idx)
        if isinstance(inner, Implies):
            lowered = Or((Not(inner.premise), inner.conclusion))
            return self.quant(is_exists, var, lowered)
        if isinstance(inner, (And, Or)):
            distributes = isinstance(inner, Or) if is_exists else isinstance(inner, And)
            combine = _or_all if isinstance(inner, Or) else _and_all
            if distributes:
                # ∃x(φ ∨ ψ) = ∃xφ ∨ ∃xψ and ∀x(φ ∧ ψ) = ∀xφ ∧ ∀xψ
                return combine(
                    [self.quant(is_exists, var, p) for p in inner.parts], idx
                )
            bound = [p for p in inner.parts if var in free_variables(p)]
            rest = [p for p in inner.parts if var not in free_variables(p)]
            if rest:
                # ∃x(φ ∧ ψ(x)) = φ ∧ ∃xψ(x) (dually ∀ over ∨)
                core = And(tuple(bound)) if isinstance(inner, And) else Or(tuple(bound))
                merged = bound[0] if len(bound) == 1 else core
                rels = [self.rel(p) for p in rest]
                rels.append(self.quant(is_exists, var, merged))
                return combine(rels, idx)
        rel = self.rel(inner)
        if is_exists:
            return _project(rel, var, idx)
        return _coproject(rel, var, idx)


def relation_of(
    formula: TreeFormula, tree: Tree
) -> Tuple[Tuple[NVar, ...], FrozenSet[Tuple[NodeId, ...]]]:
    """The satisfying-assignment relation over the formula's free
    variables (columns in first-seen order), with ids decoded back to
    node addresses.  Mostly a debugging/inspection helper."""
    idx = index_for(tree)
    rel = _materialize(_Compiler(idx).rel(formula), idx)
    node_of = idx.node_of
    if not rel.vars:
        return (), frozenset({()} if rel.rows else set())
    if len(rel.vars) == 1:
        return rel.vars, frozenset((node_of[i],) for i in iter_bits(rel.rows))
    return rel.vars, frozenset(
        tuple(node_of[i] for i in t) for t in rel.rows
    )


# ---------------------------------------------------------------------------
# Public API — drop-in counterparts of the reference evaluator
# ---------------------------------------------------------------------------


def evaluate(
    formula: TreeFormula,
    tree: Tree,
    assignment: Optional[Dict[NVar, NodeId]] = None,
) -> bool:
    """Set-at-a-time counterpart of :func:`repro.logic.tree_fo.evaluate`."""
    env = dict(assignment or {})
    missing = free_variables(formula) - set(env)
    if missing:
        raise TreeFormulaError(
            f"unbound free variables: {sorted(v.name for v in missing)}"
        )
    idx = index_for(tree)
    if not free_variables(formula):
        plan = tree_plan(formula, "ask", lambda: lower_sentence(formula))
        if plan is not None:
            return bool(evaluate_tree(plan, idx))
    rel = _Compiler(idx).rel(formula)
    if not rel.vars:
        return bool(rel.rows)
    ids = tuple(idx.id_of[tree.require(env[v])] for v in rel.vars)
    if len(rel.vars) == 1:
        return bool((rel.rows >> ids[0]) & 1)
    return (ids in rel.rows) != rel.neg


def satisfying_assignments(
    formula: TreeFormula,
    tree: Tree,
    variables_order: Sequence[NVar],
) -> FrozenSet[Tuple[NodeId, ...]]:
    """Set-at-a-time counterpart of
    :func:`repro.logic.tree_fo.satisfying_assignments`."""
    free = free_variables(formula)
    if free != frozenset(variables_order):
        raise TreeFormulaError(
            f"free variables {sorted(v.name for v in free)} differ from "
            f"requested order {[v.name for v in variables_order]}"
        )
    idx = index_for(tree)
    rel = _conform(
        _Compiler(idx).rel(formula), tuple(variables_order), idx
    )
    node_of = idx.node_of
    if not rel.vars:
        return frozenset({()} if rel.rows else set())
    if len(rel.vars) == 1:
        return frozenset((node_of[i],) for i in iter_bits(rel.rows))
    return frozenset(tuple(node_of[i] for i in t) for t in rel.rows)


def select(
    formula: TreeFormula,
    tree: Tree,
    context: NodeId = (),
    x: NVar = NVar("x"),
    y: NVar = NVar("y"),
) -> Tuple[NodeId, ...]:
    """Set-at-a-time counterpart of ``ExistsStarQuery.select`` — for
    *any* FO selector φ(x, y), not just the FO(∃*) fragment.

    Same conventions: free variables must be within {x, y}; a selector
    not mentioning y returns every node or none.  A selector the plan
    IR can express runs there from any context node; only the rest
    (value atoms, quantifiers linking two variables through more than
    one atom, shadowing) builds relations.
    """
    tree.require(context)
    idx = index_for(tree)
    plan = tree_plan(
        formula, ("select", x.name, y.name),
        lambda: lower_select(formula, x, y, anchor="context"),
    )
    if plan is not None:
        return idx.to_nodes(evaluate_tree(plan, idx, idx.id_of[context]))
    free = free_variables(formula)
    extra = free - {x, y}
    if extra:
        raise TreeFormulaError(
            f"selector may only use {x.name!r} and {y.name!r} free; "
            f"also found {sorted(v.name for v in extra)}"
        )
    rel = _Compiler(idx).rel(formula)
    if y in free:
        if x in free:
            rel = _restrict(rel, x, idx.id_of[context], idx)
        if not rel.vars:  # pragma: no cover - y free implies a column
            return tree.nodes if rel.rows else ()
        return idx.to_nodes(rel.rows)
    if x in free:
        rel = _restrict(rel, x, idx.id_of[context], idx)
    return tuple(tree.nodes) if rel.rows else ()
