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
    text → caterpillar AST (parse only — what the reference walker
    needs, and all the facade memoises).
``compile_walk_plan``
    text → ``(ast, CompiledWalk)`` — parse *plus* the ε-closed NFA
    compilation, the fast walking engine's full plan.
``compile_ir_plan``
    ``(kind, text)`` → the root-anchored :class:`~repro.engine.ir.Plan`
    the stacked corpus pass runs, or ``None`` outside the IR.

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

from typing import Tuple

from ..caching import CacheInfo, KeyedLRU
from ..caterpillar.ast import Caterpillar
from ..caterpillar.parser import parse_caterpillar
from ..logic.exists_star import ExistsStarQuery
from ..logic.parser import parse_query, parse_sentence
from ..logic.tree_fo import TreeFormula
from ..xpath.ast import Expr
from ..xpath.parser import parse_xpath
from .ir import lower_query, tree_plan_clear
from .walk import CompiledWalk, compile_walk

__all__ = [
    "PLAN_CACHE_SIZE",
    "compile_xpath_plan",
    "compile_sentence_plan",
    "compile_select_plan",
    "compile_caterpillar_plan",
    "compile_walk_plan",
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


def _walk_plan(text: str) -> Tuple[Caterpillar, CompiledWalk]:
    expr = compile_caterpillar_plan(text)
    return expr, compile_walk(expr)


def compile_walk_plan(text: str) -> Tuple[Caterpillar, CompiledWalk]:
    """``(ast, CompiledWalk)`` for ``text`` — the fast walking engine's
    whole tree-independent plan, shared process-wide."""
    return _PLAN_CACHE.get_or_compute(("walk", text), lambda: _walk_plan(text))


def _parsed_for_ir(kind: str, text: str):
    if kind == "xpath":
        return compile_xpath_plan(text)
    if kind == "ask":
        return compile_sentence_plan(text)
    if kind == "select":
        return compile_select_plan(text)
    if kind in ("caterpillar", "caterpillar-relation"):
        return compile_walk_plan(text)
    raise ValueError(f"unknown query kind {kind!r}")


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

    def build():
        ast = _parsed_for_ir(kind, text) if parsed is None else parsed
        return (lower_query(kind, ast, stats),)

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
