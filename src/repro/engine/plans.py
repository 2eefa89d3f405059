"""The process-wide shared plan cache: compile once per query *text*.

Gottlob–Koch–Schulz frame the fixed-query / many-instances regime as
the one where compile-once / run-many separation dominates total cost —
yet until this module, compiled artifacts were cached per
``TreeDatabase``: a workload of one query over 10k documents re-parsed
(or at best re-LRU'd) the same text 10k times, once per database.

Here every compile step is a pure function of the query text, memoised
in **one** process-wide :class:`~repro.caching.KeyedLRU` keyed by
``(kind, text)``:

``compile_xpath_plan``
    text → parsed XPath AST (the fast and reference evaluators both
    take the AST).
``compile_sentence_plan``
    text → closed FO formula (``TreeDatabase.ask`` semantics).
``compile_select_plan``
    text → binary :class:`~repro.logic.exists_star.ExistsStarQuery`
    (``TreeDatabase.select_where`` semantics).
``compile_caterpillar_plan``
    text → caterpillar AST (both walk kinds; the fast walking engine
    compiles its NFA through :func:`repro.engine.walk.compile_walk`).
``compile_ir_plan``
    ``(kind, text)`` → the root-anchored :class:`~repro.engine.ir.Plan`
    the stacked corpus pass runs, or ``None`` outside the IR.

:data:`DIALECTS` is the one dispatch table over query kinds: per kind,
one :class:`Dialect` row holding its cached parse, its root-anchored
lowering, its fast and reference per-tree evaluators and what the
planner prices.  The corpus executor, the planner and the
``TreeDatabase`` facade all read it.

The per-tree evaluators keep their context-anchored plans apart
(:func:`repro.engine.ir.tree_plan`), keyed by the parsed object's
identity so a call renders no query text; :func:`plan_cache_clear`
empties both.

Plans are immutable and tree-independent, so sharing them across
databases, corpus batches and worker processes is always sound.  A
parse error propagates without touching the cache (no poisoned slots —
see :meth:`repro.caching.KeyedLRU.get_or_compute`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..caching import CacheInfo, KeyedLRU
from ..caterpillar import nfa as reference_walk
from ..caterpillar.ast import Caterpillar
from ..caterpillar.parser import parse_caterpillar
from ..logic import tree_fo
from ..logic.exists_star import ExistsStarQuery
from ..logic.parser import parse_query, parse_sentence
from ..logic.tree_fo import TreeFormula
from ..trees.node import NodeId
from ..trees.tree import Tree
from ..xpath import evaluator as reference_xpath
from ..xpath.ast import Expr
from ..xpath.parser import parse_xpath
from . import fo as fast_fo
from . import walk as fast_walk
from . import xpath as fast_xpath
from .ir import (
    Plan,
    lower_caterpillar,
    lower_select,
    lower_sentence,
    lower_xpath,
    tree_plan_clear,
)

__all__ = [
    "PLAN_CACHE_SIZE",
    "Dialect",
    "DIALECTS",
    "dialect_for",
    "compile_xpath_plan",
    "compile_sentence_plan",
    "compile_select_plan",
    "compile_caterpillar_plan",
    "compile_ir_plan",
    "cached_query_plan",
    "plan_cache_info",
    "plan_cache_clear",
]

#: Bound on resident plans across *all* kinds.  Plans are small (ASTs
#: and compiled NFAs), so the bound exists for hygiene, not memory
#: pressure; 512 comfortably covers every workload in the repo.
PLAN_CACHE_SIZE = 512

_PLAN_CACHE: KeyedLRU = KeyedLRU(PLAN_CACHE_SIZE, name="plans")


def compile_xpath_plan(text: str) -> Expr:
    """The parsed XPath AST for ``text``, shared process-wide."""
    return _PLAN_CACHE.get_or_compute(
        ("xpath", text), lambda: parse_xpath(text)
    )


def compile_sentence_plan(text: str) -> TreeFormula:
    """The closed FO formula for ``text``, shared process-wide."""
    return _PLAN_CACHE.get_or_compute(
        ("sentence", text), lambda: parse_sentence(text)
    )


def compile_select_plan(text: str) -> ExistsStarQuery:
    """The binary FO(∃*) selector for ``text``, shared process-wide."""
    return _PLAN_CACHE.get_or_compute(
        ("select", text), lambda: parse_query(text)
    )


def compile_caterpillar_plan(text: str) -> Caterpillar:
    """The parsed caterpillar AST for ``text``, shared process-wide."""
    return _PLAN_CACHE.get_or_compute(
        ("caterpillar", text), lambda: parse_caterpillar(text)
    )


@dataclass(frozen=True)
class Dialect:
    """One query kind's row of the dispatch table.

    ``parse`` maps query text to its parsed form through the shared
    cache.  ``lower(parsed, stats)`` is the root-anchored IR plan the
    stacked corpus pass runs, ``None`` outside the IR.  ``fast`` and
    ``reference`` answer one tree from a context node, both as
    ``(parsed, tree, context)`` → canonical cell: node tuples in
    document order, plain bools, or sorted pair tuples.  ``costed``
    maps the parsed form to what the planner's cost model prices, and
    ``formula`` to the FO formula a budget's ``max_formula_size``
    bounds (``None`` for dialects that have none)."""

    kind: str
    parse: Callable[[str], object]
    lower: Callable[[object, object], Optional[Plan]]
    fast: Callable[[object, Tree, NodeId], object]
    reference: Callable[[object, Tree, NodeId], object]
    costed: Callable[[object], object]
    formula: Callable[[object], Optional[TreeFormula]] = lambda parsed: None


def _itself(parsed):
    return parsed


DIALECTS: Dict[str, Dialect] = {
    dialect.kind: dialect
    for dialect in (
        Dialect(
            "xpath",
            parse=compile_xpath_plan,
            lower=lower_xpath,
            fast=fast_xpath.select,
            reference=reference_xpath.select,
            costed=_itself,
        ),
        Dialect(
            "ask",
            parse=compile_sentence_plan,
            lower=lower_sentence,
            fast=lambda formula, tree, context: fast_fo.evaluate(
                formula, tree
            ),
            reference=lambda formula, tree, context: tree_fo.evaluate(
                formula, tree
            ),
            costed=_itself,
            formula=_itself,
        ),
        Dialect(
            "select",
            parse=compile_select_plan,
            lower=lambda query, stats: lower_select(
                query.formula, query.x, query.y, stats
            ),
            fast=lambda query, tree, context: fast_fo.select(
                query.formula, tree, context, query.x, query.y
            ),
            reference=lambda query, tree, context: query.select(
                tree, context
            ),
            costed=lambda query: query.formula,
            formula=lambda query: query.formula,
        ),
        Dialect(
            "caterpillar",
            parse=compile_caterpillar_plan,
            lower=lambda expr, stats: lower_caterpillar(
                fast_walk.compile_walk(expr), stats
            ),
            fast=fast_walk.walk,
            reference=reference_walk.walk,
            costed=fast_walk.compile_walk,
        ),
        Dialect(
            "caterpillar-relation",
            parse=compile_caterpillar_plan,
            # The all-pairs relation stays on the per-tree engines.
            lower=lambda expr, stats: None,
            fast=lambda expr, tree, context: tuple(
                sorted(fast_walk.relation(expr, tree))
            ),
            reference=lambda expr, tree, context: tuple(
                sorted(reference_walk.relation(expr, tree))
            ),
            costed=fast_walk.compile_walk,
        ),
    )
}


def dialect_for(kind: str) -> Dialect:
    """The :class:`Dialect` row of ``kind``."""
    try:
        return DIALECTS[kind]
    except KeyError:
        raise ValueError(f"unknown query kind {kind!r}") from None


def compile_ir_plan(kind: str, text: str, stats=None, parsed=None):
    """The query's :class:`~repro.engine.ir.Plan` for evaluation from
    the root context, or ``None`` when it falls outside the IR fragment
    — shared process-wide like every other compiled artifact.

    When ``stats`` is given, its fingerprint joins the cache key: the
    lowering orders ``Join`` children by estimated cardinality, so the
    plan is a function of the statistics it was costed against.
    ``parsed`` (the already-compiled AST for ``kind``) skips the parse
    on a cache miss; hits never parse at all.
    """
    fingerprint = None if stats is None else stats.fingerprint

    dialect = dialect_for(kind)

    def build():
        ast = dialect.parse(text) if parsed is None else parsed
        return (dialect.lower(ast, stats),)

    return _PLAN_CACHE.get_or_compute(
        ("ir", kind, text, fingerprint), build
    )[0]


def cached_query_plan(key: Tuple, factory):
    """A planner-produced execution plan, memoised in the same shared
    cache as the compiled artifacts.

    ``key`` must carry the query kind and text *plus* the statistics
    fingerprint (and any planner configuration) the plan depends on —
    see :meth:`repro.engine.planner.Planner.plan` — so a plan built
    against stale statistics is unreachable the moment the corpus (or
    tree) behind it changes."""
    return _PLAN_CACHE.get_or_compute(("auto-plan",) + key, factory)


def plan_cache_info() -> CacheInfo:
    """Hit/miss statistics of the shared plan cache."""
    return _PLAN_CACHE.cache_info()


def plan_cache_clear() -> None:
    """Empty the shared plan cache and the per-tree plans keyed by
    parsed-object identity (cold-start benchmarks, tests)."""
    _PLAN_CACHE.cache_clear()
    tree_plan_clear()
