"""``TreeDatabase`` — the one-stop user API.

Wraps an attributed tree (typically parsed from XML or term syntax)
and exposes the paper's query formalisms side by side:

>>> from repro.queries import TreeDatabase
>>> db = TreeDatabase.from_term('catalog(dept(item[cur="EUR"], item[cur="EUR"]))')
>>> db.xpath("catalog//item")
((0, 0), (0, 1))
>>> from repro.automata.examples import all_leaves_same_twrl
>>> db.run_automaton(all_leaves_same_twrl("cur"))
True
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from ..automata.classes import TWClass, classify
from ..automata.machine import TWAutomaton
from ..automata.runner import RunResult, accepts, run
from ..caching import CacheInfo, KeyedLRU
from ..engine.index import TreeIndex, index_for
from ..engine.planner import Plan, Planner, default_planner
from ..engine.plans import (
    DIALECTS,
    compile_caterpillar_plan,
    compile_select_plan,
    compile_sentence_plan,
    compile_xpath_plan,
    dialect_for,
)
from ..logic import tree_fo
from ..logic.exists_star import ExistsStarQuery
from ..mso.hedge import HedgeAutomaton
from ..resilience.budget import Budget, ExecutionContext, activate
from ..resilience.executor import resilient_call
from ..resilience.log import ResilienceLog
from ..simulation.configgraph import evaluate_memo
from ..simulation.ids import ID_ATTR, has_unique_ids, with_ids
from ..trees.delimited import delim
from ..trees.node import NodeId
from ..trees.parser import format_term, parse_term
from ..trees.tree import Tree
from ..trees.xmlio import from_xml, to_xml
from ..xpath.compiler import compile_xpath
from ..xpath.parser import parse_xpath


#: Default bound on the number of parsed XPath expressions kept per database.
XPATH_CACHE_SIZE = 128

#: Default bound on the number of parsed caterpillar expressions kept
#: per database (same LRU discipline as the XPath cache).
CATERPILLAR_CACHE_SIZE = 128

#: Recognised evaluation engines: "fast" is the indexed, set-at-a-time
#: engine (:mod:`repro.engine`); "reference" the node-at-a-time
#: evaluators the engine is differentially tested against;
#: "resilient" runs the fast engine under a budget slice and falls back
#: to the reference evaluator on engine faults (:mod:`repro.resilience`);
#: "auto" lets the cost-based planner (:mod:`repro.engine.planner`)
#: choose per query from the document's statistics, guarding expensive
#: fast attempts with a re-plan budget.
ENGINES = ("fast", "reference", "resilient", "auto")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


class TreeDatabase:
    """An attributed tree with the paper's query engines attached."""

    def __init__(
        self,
        tree: Tree,
        ensure_ids: bool = False,
        xpath_cache_size: int = XPATH_CACHE_SIZE,
        caterpillar_cache_size: int = CATERPILLAR_CACHE_SIZE,
        planner: Optional[Planner] = None,
    ) -> None:
        if ensure_ids and not has_unique_ids(tree):
            tree = with_ids(tree)
        self.tree = tree
        if xpath_cache_size < 0:
            raise ValueError("xpath_cache_size must be >= 0")
        if caterpillar_cache_size < 0:
            raise ValueError("caterpillar_cache_size must be >= 0")
        # Per-database residency and statistics; the parse work itself
        # is delegated to the process-wide shared plan cache
        # (:mod:`repro.engine.plans`), so a plan compiles once per
        # query text regardless of how many databases run it.
        self._xpath_cache: KeyedLRU = KeyedLRU(xpath_cache_size, name="xpath")
        self._caterpillar_cache: KeyedLRU = KeyedLRU(
            caterpillar_cache_size, name="caterpillar"
        )
        self._resilience = ResilienceLog()
        #: Armed by the fault-injection harness
        #: (:mod:`repro.resilience.faults`); consulted by the
        #: ``"resilient"`` engine's fast attempt and by ``"auto"``'s
        #: guarded plans.
        self._fault_injector = None
        #: The cost-based planner behind ``engine="auto"``.  Databases
        #: share the process-wide default (and hence its plan cache
        #: statistics) unless the caller brings their own.
        self._planner = planner if planner is not None else default_planner()
        self._last_plan: Optional[Plan] = None

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_term(cls, text: str, **kwargs) -> "TreeDatabase":
        """From term syntax ``a(b[x=1], c)``."""
        return cls(parse_term(text), **kwargs)

    @classmethod
    def from_xml(cls, text: str, **kwargs) -> "TreeDatabase":
        """From the XML subset."""
        return cls(from_xml(text), **kwargs)

    # -- inspection -----------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.tree.size

    def to_term(self) -> str:
        return format_term(self.tree)

    def to_xml(self) -> str:
        return to_xml(self.tree)

    @property
    def index(self) -> TreeIndex:
        """The compiled :class:`~repro.engine.index.TreeIndex` of the
        document — built lazily on first use, then cached per tree."""
        return index_for(self.tree)

    # -- resilient execution ---------------------------------------------------------

    def _dispatch(
        self,
        operation: str,
        fast: Callable[[], object],
        reference: Callable[[], object],
        engine: str,
        budget: Optional[Budget],
        plan_key=None,
    ):
        """Run one query through the selected engine.

        ``"fast"``/``"reference"`` run the corresponding thunk, under an
        active budget context when one is given; ``"resilient"`` runs
        the fast thunk under a budget slice and falls back to the
        reference evaluator on engine faults, recording incidents on the
        per-database :class:`~repro.resilience.log.ResilienceLog`;
        ``"auto"`` plans first — ``plan_key`` is the ``(kind, text,
        parsed)`` triple the planner caches the decision under."""
        if engine == "auto":
            kind, text, parsed = plan_key
            plan = self._planner.plan_for_tree(
                kind, text, self.tree, parsed=parsed
            )
            self._last_plan = plan
            return self._planner.execute(
                plan,
                operation,
                fast,
                reference,
                budget,
                self._resilience,
                faults=self._fault_injector,
            )
        if engine == "resilient":
            return resilient_call(
                operation,
                fast,
                reference,
                budget,
                self._resilience,
                faults=self._fault_injector,
            )
        thunk = fast if engine == "fast" else reference
        if budget is not None:
            with activate(ExecutionContext(budget)):
                return thunk()
        return thunk()

    def _query(
        self,
        operation: str,
        kind: str,
        text: Optional[str],
        parsed,
        context: NodeId,
        engine: str,
        budget: Optional[Budget],
    ):
        """Run one ``kind`` query through :meth:`_dispatch` on the fast
        and reference evaluators of its dialect row
        (:data:`repro.engine.plans.DIALECTS`), after the budget's
        formula-size limit; ``text`` keys the ``"auto"`` plan."""
        dialect = DIALECTS[kind]
        if budget is not None and budget.max_formula_size is not None:
            formula = dialect.formula(parsed)
            if formula is not None:
                budget.check_formula_size(len(tree_fo.subformulas(formula)))
        return self._dispatch(
            operation,
            lambda: dialect.fast(parsed, self.tree, context),
            lambda: dialect.reference(parsed, self.tree, context),
            engine,
            budget,
            plan_key=(kind, text, parsed),
        )

    def query(
        self,
        kind: str,
        text: str,
        context: NodeId = (),
        engine: str = "fast",
        budget: Optional[Budget] = None,
    ):
        """Answer one query of any kind in
        :data:`repro.engine.plans.DIALECTS` — ``"xpath"``, ``"ask"``,
        ``"select"``, ``"caterpillar"`` or ``"caterpillar-relation"`` —
        given as text, from ``context`` (sentences and relations ignore
        it), e.g. ``db.query("select", "x << y & O_item(y)")``.

        The answer is the one the kind's own method gives
        (:meth:`xpath`, :meth:`ask`, :meth:`select_where`,
        :meth:`caterpillar`, :meth:`caterpillar_relation`), under the
        same engines and budgets; the parse goes through the shared
        plan cache, not this database's LRU caches, and the
        ``"resilient"`` engine logs the call under the kind's name.  A
        kind added to ``DIALECTS`` is answered here with no change."""
        _check_engine(engine)
        parsed = dialect_for(kind).parse(text)
        return self._query(kind, kind, text, parsed, context, engine, budget)

    def resilience_info(self) -> Dict[str, object]:
        """Counters and incident history of the ``"resilient"`` engine —
        calls, fast successes, fallbacks, failures, per-operation stats,
        and the last recorded error (see
        :meth:`repro.resilience.log.ResilienceLog.snapshot`)."""
        return self._resilience.snapshot()

    def resilience_clear(self) -> None:
        """Reset the resilience counters and incident history."""
        self._resilience.clear()

    # -- planning --------------------------------------------------------------

    @property
    def planner(self) -> Planner:
        """The planner serving this database's ``engine="auto"`` calls."""
        return self._planner

    @property
    def last_plan(self) -> Optional[Plan]:
        """The :class:`~repro.engine.planner.Plan` behind the most
        recent ``engine="auto"`` call on this database (None before
        the first one) — chosen engine, per-engine modeled costs,
        estimated cardinality, and whether execution was guarded."""
        return self._last_plan

    # -- XPath ------------------------------------------------------------------------

    def xpath(
        self,
        expression: str,
        context: NodeId = (),
        engine: str = "fast",
        budget: Optional[Budget] = None,
    ) -> Tuple[NodeId, ...]:
        """Evaluate an XPath expression of the paper's fragment.

        Parsed expressions are memoised in a bounded LRU cache (see
        :meth:`cache_info`); cache hits never change results, which the
        differential oracle asserts on every run.  ``engine`` picks the
        indexed bitset evaluator (``"fast"``, the default), the
        node-at-a-time ``"reference"`` one, or ``"resilient"`` execution
        with fallback; all return the same nodes.  A ``budget`` bounds
        the work (see :class:`repro.resilience.Budget`)."""
        _check_engine(engine)
        return self._query(
            "xpath", "xpath", expression, self._parsed(expression), context,
            engine, budget,
        )

    def _parsed(self, expression: str):
        """The parsed AST for ``expression``, via the LRU cache.

        A syntax error propagates without touching statistics or slots
        (the :meth:`~repro.caching.KeyedLRU.get_or_compute` contract)."""
        return self._xpath_cache.get_or_compute(
            expression, lambda: compile_xpath_plan(expression)
        )

    def cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the parsed-XPath LRU cache."""
        return self._xpath_cache.cache_info()

    def cache_clear(self) -> None:
        """Empty the parsed-XPath cache and reset its statistics."""
        self._xpath_cache.cache_clear()

    def xpath_as_fo(self, expression: str) -> ExistsStarQuery:
        """The FO(∃*) abstraction of an XPath expression (§2.3)."""
        return compile_xpath(parse_xpath(expression))

    # -- logic -----------------------------------------------------------------------

    def holds(
        self,
        sentence: tree_fo.TreeFormula,
        engine: str = "fast",
        budget: Optional[Budget] = None,
        plan_text: Optional[str] = None,
    ) -> bool:
        """Model-check an FO sentence over τ_{Σ,A}.

        The default ``"fast"`` engine evaluates bottom-up over
        satisfying-assignment relations; ``"reference"`` is the
        assignment-at-a-time model checker; ``"resilient"`` runs fast
        with reference fallback under ``budget``.  ``plan_text`` names
        the sentence for the ``"auto"`` plan cache; callers that hold
        the source text (:meth:`ask`) pass it so planning never has to
        re-format the AST."""
        _check_engine(engine)
        if engine == "auto" and plan_text is None:
            from ..logic.parser import format_formula

            plan_text = format_formula(sentence)
        return self._query(
            "holds", "ask", plan_text, sentence, (), engine, budget
        )

    def ask(
        self,
        text: str,
        engine: str = "fast",
        budget: Optional[Budget] = None,
    ) -> bool:
        """Model-check an FO sentence given as text, e.g.
        ``db.ask('forall x (leaf(x) -> O_item(x))')``.  The parse is
        shared process-wide, so the fast engine finds the sentence's
        plan again on the next call."""
        return self.holds(
            compile_sentence_plan(text),
            engine=engine,
            budget=budget,
            plan_text=text,
        )

    def select_where(
        self,
        text: str,
        context: NodeId = (),
        engine: str = "fast",
        budget: Optional[Budget] = None,
    ) -> Tuple[NodeId, ...]:
        """Evaluate a textual binary FO(∃*) query φ(x, y), e.g.
        ``db.select_where('x << y & O_item(y)')``.  The parse is shared
        process-wide, like :meth:`ask`'s."""
        return self.select(
            compile_select_plan(text),
            context,
            engine=engine,
            budget=budget,
            plan_text=text,
        )

    def select(
        self,
        query: ExistsStarQuery,
        context: NodeId = (),
        engine: str = "fast",
        budget: Optional[Budget] = None,
        plan_text: Optional[str] = None,
    ) -> Tuple[NodeId, ...]:
        """Evaluate a binary FO(∃*) query from ``context``."""
        _check_engine(engine)
        if engine == "auto" and plan_text is None:
            from ..logic.parser import format_formula

            plan_text = (
                f"{format_formula(query.formula)}"
                f" @ {query.x.name},{query.y.name}"
            )
        return self._query(
            "select", "select", plan_text, query, context, engine, budget
        )

    # -- automata -----------------------------------------------------------------------

    def run_automaton(
        self,
        automaton: TWAutomaton,
        delimited: bool = False,
        memoised: bool = False,
        engine: str = "fast",
        budget: Optional[Budget] = None,
        **kwargs,
    ) -> bool:
        """Run a tree-walking automaton; ``delimited`` runs it on
        ``delim(t)`` (Example 3.2 style); ``memoised`` uses the
        configuration-graph evaluator (Theorem 7.1(2)/(4)).

        ``engine="fast"`` (the default) takes the runner's compiled
        guard-free executor when the automaton is in the Move fragment,
        falling back to the reference executor otherwise;
        ``"resilient"`` additionally falls back on engine faults.
        Verdicts are identical either way."""
        _check_engine(engine)
        if engine == "auto":
            # No textual plan key exists for an automaton object, and
            # the fast runner already self-selects (compiled executor
            # for the Move fragment, reference otherwise).
            engine = "fast"
        tree = delim(self.tree) if delimited else self.tree
        if memoised:
            if budget is not None:
                with activate(ExecutionContext(budget)):
                    return evaluate_memo(automaton, tree).accepted
            return evaluate_memo(automaton, tree).accepted
        return self._dispatch(
            "run_automaton",
            lambda: accepts(automaton, tree, engine="fast", **kwargs),
            lambda: accepts(automaton, tree, engine="reference", **kwargs),
            engine,
            budget,
        )

    def run_with_trace(
        self, automaton: TWAutomaton, delimited: bool = False, **kwargs
    ) -> RunResult:
        """Full run result with a step-by-step trace."""
        tree = delim(self.tree) if delimited else self.tree
        return run(automaton, tree, collect_trace=True, **kwargs)

    def automaton_class(self, automaton: TWAutomaton) -> TWClass:
        """Where the automaton sits in the Definition 5.1 lattice."""
        return classify(automaton)

    # -- regular languages ------------------------------------------------------------------

    def matches_hedge(self, hedge: HedgeAutomaton) -> bool:
        """Membership in a regular (MSO-definable) tree language."""
        return hedge.accepts(self.tree)

    # -- related models -------------------------------------------------------------------------

    def caterpillar(
        self,
        expression: str,
        context: NodeId = (),
        engine: str = "fast",
        budget: Optional[Budget] = None,
    ) -> Tuple[NodeId, ...]:
        """Walk a caterpillar expression ([7]) from ``context``, e.g.
        ``db.caterpillar('(down | right)* isLeaf')``.

        Parsed expressions are memoised in a bounded LRU cache (see
        :meth:`caterpillar_cache_info`).  ``engine="fast"`` (the
        default) evaluates on the compiled product-graph walking engine
        (:mod:`repro.engine.walk`); ``"reference"`` re-walks the
        Thompson NFA node-at-a-time; ``"resilient"`` runs fast with
        reference fallback.  All return the same nodes."""
        _check_engine(engine)
        return self._query(
            "caterpillar", "caterpillar", expression,
            self._parsed_caterpillar(expression), context, engine, budget,
        )

    def caterpillar_relation(
        self,
        expression: str,
        engine: str = "fast",
        budget: Optional[Budget] = None,
    ):
        """The full denoted relation ⟦expression⟧ ⊆ Dom(t)², as a sorted
        tuple of ``(source, target)`` pairs — the fast engine computes
        it as one stacked product BFS over all start nodes
        (:meth:`~repro.engine.walk.WalkEvaluator.all_pairs`)."""
        _check_engine(engine)
        return self._query(
            "caterpillar_relation", "caterpillar-relation", expression,
            self._parsed_caterpillar(expression), (), engine, budget,
        )

    def _parsed_caterpillar(self, expression: str):
        """The parsed caterpillar AST, via the LRU cache.

        A failed parse propagates without touching stats or slots."""
        return self._caterpillar_cache.get_or_compute(
            expression, lambda: compile_caterpillar_plan(expression)
        )

    def caterpillar_cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the parsed-caterpillar LRU cache."""
        return self._caterpillar_cache.cache_info()

    def caterpillar_cache_clear(self) -> None:
        """Empty the parsed-caterpillar cache and reset its statistics."""
        self._caterpillar_cache.cache_clear()

    def transform(self, transducer, **kwargs) -> "TreeDatabase":
        """Apply a tree-walking transducer (§8 extension); returns the
        output document wrapped in a fresh TreeDatabase."""
        from ..transducer import run_transducer

        return TreeDatabase(run_transducer(transducer, self.tree, **kwargs))

    # -- IDs -------------------------------------------------------------------------------------

    def with_ids(self) -> "TreeDatabase":
        """A copy carrying the Section 7 unique-ID attribute."""
        return TreeDatabase(with_ids(self.tree))

    def __repr__(self) -> str:
        return f"TreeDatabase({self.size} nodes, A={list(self.tree.attributes)})"
