"""Engine pairs: one differential check per equivalence in the paper.

Each :class:`EnginePair` knows how to *generate* a random (tree, query)
case, *check* it through two independent evaluation routes, *shrink* the
query part, and *encode*/*decode* the query as JSON for the corpus.

The thirteen pairs and the equivalence each one guards:

==============================  ====================================================
``xpath/fo``                    XPath evaluator vs its FO(∃*) compilation (§2.3),
                                plus LRU-cache determinism of ``TreeDatabase``
``xpath/caterpillar``           walking XPath sub-fragment vs its caterpillar
                                translation ([7]: child = down·right*)
``caterpillar/ntwa``            caterpillar NFA walk vs the compiled NTWA (§6)
``runner/memo``                 direct automaton runner vs the memoised
                                configuration-graph evaluator (Theorem 7.1)
``automaton/spec``              example automata vs their independent FO or
                                Python specifications (Definition 3.1 / Ex. 3.2)
``fo/enum``                     ``ExistsStarQuery.select`` vs a from-scratch
                                enumeration of the existential prefix
``fo/fast-fo``                  the assignment-at-a-time FO model checker vs the
                                indexed set-at-a-time engine (:mod:`repro.engine`),
                                on full FO with ∀/→/¬ freely nested
``auto/fast-fo``                the cost-based planner's ``auto`` route (with
                                guarded execution forced on) vs the fast FO
                                engine run directly
``xpath/fast-xpath``            the node-at-a-time XPath evaluator vs the
                                plan IR from a random context, with a raised
                                variable cap
``caterpillar/fast-caterpillar``  the reference Thompson-NFA walk vs the compiled
                                product-graph walking engine
                                (:mod:`repro.engine.walk`), on the full denoted
                                relation (stacked ``all_pairs``) *and* one
                                IR walk from a random context
``ntwa/fast-caterpillar``       the compiled NTWA (§6) vs the IR walk:
                                per-start acceptance equals per-start
                                nonemptiness of the walk from that node
``corpus/sequential``           the set-at-a-time corpus batch executor
                                (:mod:`repro.corpus`), whose stacked shard pass
                                packs every tree of a chunk into one wide
                                integer per IR op, vs a loop of single-tree
                                facade calls, element-wise, under two chunkings
                                and ``engine="auto"``
``store/sequential``            a disk-backed :class:`~repro.corpus.CorpusStore`
                                batch (segment files, mmap-lazy loading) vs the
                                in-memory per-tree loop, under two chunkings
==============================  ====================================================
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from ..automata.nondet import ntwa_accepts
from ..automata.runner import ExecutionError, run
from ..caterpillar.ast import (
    Alt,
    Caterpillar,
    Concat,
    DOWN,
    Epsilon,
    LabelTest,
    Move,
    RIGHT,
    Star,
    concat,
    star,
)
from ..caterpillar.compile_ntwa import caterpillar_to_ntwa
from ..caterpillar.nfa import relation as caterpillar_relation, walk
from ..caterpillar.parser import format_caterpillar, parse_caterpillar
from ..engine import fo as fast_fo
from ..engine import walk as engine_walk
from ..engine import xpath as fast_xpath
from ..engine.planner import Planner
from ..resilience.log import ResilienceLog
from ..logic import tree_fo
from ..logic.exists_star import ExistsStarQuery, FragmentError
from ..logic.parser import format_formula, parse_formula
from ..logic.tree_fo import NVar, TreeFormula
from ..queries import TreeDatabase
from ..simulation.configgraph import evaluate_memo
from ..trees.delimited import delim
from ..trees.node import NodeId
from ..trees.tree import Tree
from ..xpath.ast import (
    Expr,
    NameTest,
    Path,
    SelfTest,
    Step,
    Union_,
    Wildcard,
)
from ..xpath.compiler import compile_xpath
from ..xpath.evaluator import select as xpath_select
from ..xpath.parser import parse_xpath
from . import generators as gen
from .generators import AutomatonSpecimen

#: Shared fuel for the runner/memo pair — finite so that genuinely
#: diverging tw^{r,l} runs surface as a (matching) FuelExhausted on both
#: sides instead of hanging the fuzzer.
FUEL = 200_000

X = NVar("x")
Y = NVar("y")


@dataclass(frozen=True)
class Case:
    """One differential test input: a tree, a pair-specific query
    payload, and (for node-selecting pairs) a context node."""

    tree: Tree
    query: object
    context: Optional[NodeId] = None


@dataclass(frozen=True)
class Outcome:
    """The two engines' verdicts on one case."""

    agree: bool
    left: str
    right: str
    left_seconds: float = 0.0
    right_seconds: float = 0.0
    left_steps: Optional[int] = None
    right_steps: Optional[int] = None
    error: Optional[str] = None

    @property
    def problem_class(self) -> Optional[str]:
        """What kind of failure this is (used to keep shrinking honest:
        a candidate must reproduce the *same* kind)."""
        if self.agree:
            return None
        if self.error and self.error.startswith("crash:"):
            return "crash"
        return "error" if self.error else "mismatch"


def crash_outcome(exc: BaseException) -> Outcome:
    """An engine exception demoted to a structured ``crash``
    disagreement — the driver persists these to the corpus like value
    mismatches instead of aborting the whole fuzzing run."""
    return Outcome(
        agree=False,
        left="?",
        right="?",
        error=f"crash: {type(exc).__name__}: {exc}",
    )


def _timed(thunk):
    started = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - started


def _summary(nodes: Sequence[NodeId]) -> str:
    return "{" + ", ".join(str(list(u)) for u in nodes) + "}"


class EnginePair:
    """Interface of one differential check."""

    name: str = "?"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        raise NotImplementedError

    def check(self, case: Case) -> Outcome:
        raise NotImplementedError

    def shrink_query(self, query: object) -> Iterable[object]:
        """Strictly simpler query candidates (need not preserve
        semantics — the shrinker re-checks every candidate)."""
        return ()

    def encode_query(self, query: object) -> object:
        raise NotImplementedError

    def decode_query(self, payload: object) -> object:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<EnginePair {self.name}>"


# ---------------------------------------------------------------------------
# xpath/fo
# ---------------------------------------------------------------------------


def _shrink_path(path: Path) -> Iterable[Path]:
    if path.absolute:
        yield replace(path, absolute=False)
    for i in range(len(path.steps)):
        if len(path.steps) > 1:
            steps = path.steps[:i] + path.steps[i + 1 :]
            axes = path.axes[:i] + path.axes[i + 1 :] if i < len(path.axes) \
                else path.axes[: i - 1]
            yield replace(path, steps=steps, axes=axes)
        step = path.steps[i]
        for j in range(len(step.filters)):
            filters = step.filters[:j] + step.filters[j + 1 :]
            yield replace(
                path,
                steps=path.steps[:i]
                + (Step(step.test, filters),)
                + path.steps[i + 1 :],
            )
        for j, filt in enumerate(step.filters):
            for smaller in _shrink_path(filt):
                filters = step.filters[:j] + (smaller,) + step.filters[j + 1 :]
                yield replace(
                    path,
                    steps=path.steps[:i]
                    + (Step(step.test, filters),)
                    + path.steps[i + 1 :],
                )


def _shrink_xpath(expr: Expr) -> Iterable[Expr]:
    if isinstance(expr, Union_):
        yield from expr.alternatives
        if len(expr.alternatives) > 2:
            for i in range(len(expr.alternatives)):
                yield Union_(
                    expr.alternatives[:i] + expr.alternatives[i + 1 :]
                )
        for i, alt_path in enumerate(expr.alternatives):
            for smaller in _shrink_xpath(alt_path):
                yield Union_(
                    expr.alternatives[:i]
                    + (smaller,)
                    + expr.alternatives[i + 1 :]
                )
    else:
        yield from _shrink_path(expr)


class XPathVsFO(EnginePair):
    """XPath evaluator vs ``compile_xpath`` (§2.3), cross-checked at a
    random context node; also asserts that a cached re-evaluation
    through :class:`TreeDatabase` returns the identical answer."""

    name = "xpath/fo"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        expr = gen.random_xpath(rng)
        return Case(tree, expr, gen.random_context(rng, tree))

    def check(self, case: Case) -> Outcome:
        expr: Expr = case.query
        left, left_s = _timed(
            lambda: xpath_select(expr, case.tree, case.context)
        )
        # LRU-cache determinism: the second (cached) evaluation through
        # the facade must return exactly what the first did.
        db = TreeDatabase(case.tree)
        text = repr(expr)
        first = db.xpath(text, case.context)
        second = db.xpath(text, case.context)
        info = db.cache_info()
        if first != second or info.hits < 1:
            return Outcome(
                False, _summary(first), _summary(second),
                error=f"xpath cache changed the answer (cache_info={info})",
            )
        query = compile_xpath(expr)
        right, right_s = _timed(lambda: query.select(case.tree, case.context))
        return Outcome(
            left == right, _summary(left), _summary(right), left_s, right_s
        )

    def shrink_query(self, query: Expr) -> Iterable[Expr]:
        return _shrink_xpath(query)

    def encode_query(self, query: Expr) -> object:
        return repr(query)

    def decode_query(self, payload: object) -> Expr:
        return parse_xpath(payload)


# ---------------------------------------------------------------------------
# xpath/caterpillar
# ---------------------------------------------------------------------------

#: One XPath child step as a caterpillar walk: first child, then any
#: number of right-sibling moves.
_CHILD_WALK = concat(Move(DOWN), star(Move(RIGHT)))
#: Proper descendant: one or more child walks.
_DESCENDANT_WALK = concat(_CHILD_WALK, star(_CHILD_WALK))


def path_to_caterpillar(path: Path) -> Caterpillar:
    """Translate a relative, filter-free path into a caterpillar
    expression denoting the same binary relation ([7], and the §6
    remark that caterpillars subsume such XPath navigation)."""
    if path.absolute:
        raise ValueError("only relative paths translate to walks")
    parts: List[Caterpillar] = []

    def test(step: Step) -> None:
        if step.filters:
            raise ValueError("filters do not translate to walks")
        if isinstance(step.test, NameTest):
            parts.append(LabelTest(step.test.name))
        # Wildcard / SelfTest constrain nothing.

    test(path.steps[0])
    for axis, step in zip(path.axes, path.steps[1:]):
        parts.append(_CHILD_WALK if axis == "child" else _DESCENDANT_WALK)
        test(step)
    return concat(*parts) if parts else Epsilon()


class XPathVsCaterpillar(EnginePair):
    """The walking XPath sub-fragment (relative, filter-free,
    union-free) vs its caterpillar translation."""

    name = "xpath/caterpillar"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        path = gen.random_walking_xpath(rng)
        return Case(tree, path, gen.random_context(rng, tree))

    def check(self, case: Case) -> Outcome:
        path: Path = case.query
        left, left_s = _timed(
            lambda: xpath_select(path, case.tree, case.context)
        )
        expr = path_to_caterpillar(path)
        right, right_s = _timed(lambda: walk(expr, case.tree, case.context))
        return Outcome(
            tuple(left) == tuple(right),
            _summary(left), _summary(right), left_s, right_s,
        )

    def shrink_query(self, query: Path) -> Iterable[Path]:
        return (p for p in _shrink_path(query) if not p.absolute)

    def encode_query(self, query: Path) -> object:
        return repr(query)

    def decode_query(self, payload: object) -> Path:
        return parse_xpath(payload)


# ---------------------------------------------------------------------------
# caterpillar/ntwa
# ---------------------------------------------------------------------------


def _shrink_caterpillar(expr: Caterpillar) -> Iterable[Caterpillar]:
    if isinstance(expr, Star):
        yield expr.inner
        yield Epsilon()
    elif isinstance(expr, Concat):
        yield from expr.parts
        for i in range(len(expr.parts)):
            yield concat(*(expr.parts[:i] + expr.parts[i + 1 :]))
    elif isinstance(expr, Alt):
        yield from expr.options
        for i in range(len(expr.options)):
            yield alt_or_single(expr.options[:i] + expr.options[i + 1 :])
    elif not isinstance(expr, Epsilon):
        yield Epsilon()


def alt_or_single(options: Tuple[Caterpillar, ...]) -> Caterpillar:
    from ..caterpillar.ast import alt

    return alt(*options) if options else Epsilon()


class CaterpillarVsNTWA(EnginePair):
    """Caterpillar NFA semantics vs the compiled nondeterministic
    tree-walking automaton: from every start node, the walk reaches
    *some* node iff the NTWA accepts (§6 simulation)."""

    name = "caterpillar/ntwa"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        expr = gen.random_caterpillar(rng, budget=rng.randint(2, 6))
        return Case(tree, expr)

    def check(self, case: Case) -> Outcome:
        expr: Caterpillar = case.query
        left, left_s = _timed(
            lambda: tuple(
                bool(walk(expr, case.tree, u)) for u in case.tree.nodes
            )
        )
        ntwa = caterpillar_to_ntwa(expr)
        right, right_s = _timed(
            lambda: tuple(
                ntwa_accepts(ntwa, case.tree, start=u)
                for u in case.tree.nodes
            )
        )
        return Outcome(left == right, str(left), str(right), left_s, right_s)

    def shrink_query(self, query: Caterpillar) -> Iterable[Caterpillar]:
        return _shrink_caterpillar(query)

    def encode_query(self, query: Caterpillar) -> object:
        return format_caterpillar(query)

    def decode_query(self, payload: object) -> Caterpillar:
        return parse_caterpillar(payload)


# ---------------------------------------------------------------------------
# runner/memo
# ---------------------------------------------------------------------------


def _verdict(thunk) -> Tuple[str, Optional[int], float, Optional[str]]:
    """(verdict text, steps, seconds, error class) — execution errors
    (nondeterminism, fuel exhaustion) become part of the verdict, so two
    engines agreeing on the *same* error still agree."""
    started = time.perf_counter()
    try:
        verdict, steps = thunk()
    except ExecutionError as exc:
        name = type(exc).__name__
        return name, None, time.perf_counter() - started, name
    return verdict, steps, time.perf_counter() - started, None


class RunnerVsMemo(EnginePair):
    """The direct runner vs the memoised configuration-graph evaluator
    (Theorem 7.1): identical accept/reject on every input, with the
    step counters of both sides recorded for the report."""

    name = "runner/memo"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        return Case(tree, gen.random_automaton_specimen(rng))

    def check(self, case: Case) -> Outcome:
        specimen: AutomatonSpecimen = case.query
        automaton, delimited = specimen.build()
        tree = delim(case.tree) if delimited else case.tree

        def direct():
            result = run(automaton, tree, fuel=FUEL)
            return str(result.accepted), result.steps

        def memo():
            result = evaluate_memo(automaton, tree, fuel=FUEL)
            return str(result.accepted), result.stats.steps

        lv, ls, lt, le = _verdict(direct)
        rv, rs, rt, re_ = _verdict(memo)
        agree = lv == rv
        error = None
        if not agree and (le or re_):
            error = f"runner={le or 'ok'} memo={re_ or 'ok'}"
        return Outcome(agree, lv, rv, lt, rt, ls, rs, error)

    def shrink_query(self, query: AutomatonSpecimen) -> Iterable[AutomatonSpecimen]:
        return _shrink_specimen(query)

    def encode_query(self, query: AutomatonSpecimen) -> object:
        return {"template": query.template, "params": list(query.params)}

    def decode_query(self, payload: object) -> AutomatonSpecimen:
        return AutomatonSpecimen(payload["template"], tuple(payload["params"]))


def _shrink_specimen(specimen: AutomatonSpecimen) -> Iterable[AutomatonSpecimen]:
    pool = gen.TEMPLATES[specimen.template].param_pool
    for params in pool:
        if params != specimen.params:
            yield AutomatonSpecimen(specimen.template, params)


# ---------------------------------------------------------------------------
# automaton/spec
# ---------------------------------------------------------------------------


class AutomatonVsSpec(EnginePair):
    """Each library automaton vs the independent specification shipped
    with it — an FO sentence model-checked by :mod:`repro.logic.tree_fo`
    or a plain-Python reference predicate."""

    name = "automaton/spec"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        return Case(tree, gen.random_automaton_specimen(rng))

    def check(self, case: Case) -> Outcome:
        specimen: AutomatonSpecimen = case.query
        automaton, delimited = specimen.build()
        tree = delim(case.tree) if delimited else case.tree
        kind, spec = specimen.spec()

        def automaton_side():
            result = run(automaton, tree, fuel=FUEL)
            return str(result.accepted), result.steps

        lv, ls, lt, le = _verdict(automaton_side)
        if kind == "fo":
            right_thunk = lambda: tree_fo.evaluate(spec, case.tree)
        else:
            right_thunk = lambda: spec(case.tree)
        right, right_s = _timed(right_thunk)
        rv = str(right)
        if le is not None:
            return Outcome(
                False, lv, rv, lt, right_s, ls, None,
                error=f"automaton raised {le}",
            )
        return Outcome(lv == rv, lv, rv, lt, right_s, ls, None)

    def shrink_query(self, query: AutomatonSpecimen) -> Iterable[AutomatonSpecimen]:
        return _shrink_specimen(query)

    def encode_query(self, query: AutomatonSpecimen) -> object:
        return {"template": query.template, "params": list(query.params)}

    def decode_query(self, payload: object) -> AutomatonSpecimen:
        return AutomatonSpecimen(payload["template"], tuple(payload["params"]))


# ---------------------------------------------------------------------------
# fo/enum
# ---------------------------------------------------------------------------


def _atom_holds(formula: TreeFormula, tree: Tree, env) -> bool:
    """From-scratch atom semantics — deliberately *not* routed through
    :func:`tree_fo.evaluate`, so the two sides share no code."""
    if isinstance(formula, tree_fo.TrueF):
        return True
    if isinstance(formula, tree_fo.FalseF):
        return False
    if isinstance(formula, tree_fo.Edge):
        u, v = env[formula.parent], env[formula.child]
        return len(v) == len(u) + 1 and v[: len(u)] == u
    if isinstance(formula, tree_fo.Desc):
        u, v = env[formula.ancestor], env[formula.descendant]
        return len(v) > len(u) and v[: len(u)] == u
    if isinstance(formula, tree_fo.SibLess):
        u, v = env[formula.left], env[formula.right]
        return bool(u) and bool(v) and u[:-1] == v[:-1] and u[-1] < v[-1]
    if isinstance(formula, tree_fo.Succ):
        u, v = env[formula.left], env[formula.right]
        return bool(u) and bool(v) and u[:-1] == v[:-1] and u[-1] + 1 == v[-1]
    if isinstance(formula, tree_fo.NodeEq):
        return env[formula.left] == env[formula.right]
    if isinstance(formula, tree_fo.Label):
        return tree.label(env[formula.var]) == formula.symbol
    if isinstance(formula, tree_fo.Root):
        return env[formula.var] == ()
    if isinstance(formula, tree_fo.Leaf):
        u = env[formula.var]
        return u + (0,) not in tree
    if isinstance(formula, tree_fo.First):
        u = env[formula.var]
        return len(u) >= 1 and u[-1] == 0
    if isinstance(formula, tree_fo.Last):
        u = env[formula.var]
        return len(u) >= 1 and u[:-1] + (u[-1] + 1,) not in tree
    if isinstance(formula, tree_fo.ValEq):
        left = tree.val(formula.attr_left, env[formula.left])
        right = tree.val(formula.attr_right, env[formula.right])
        return left == right
    if isinstance(formula, tree_fo.ValConst):
        return tree.val(formula.attr, env[formula.var]) == formula.value
    raise TypeError(f"not an atom: {formula!r}")


def _matrix_holds(formula: TreeFormula, tree: Tree, env) -> bool:
    if isinstance(formula, tree_fo.Not):
        return not _matrix_holds(formula.inner, tree, env)
    if isinstance(formula, tree_fo.And):
        return all(_matrix_holds(p, tree, env) for p in formula.parts)
    if isinstance(formula, tree_fo.Or):
        return any(_matrix_holds(p, tree, env) for p in formula.parts)
    if isinstance(formula, tree_fo.Implies):
        return (not _matrix_holds(formula.premise, tree, env)) or _matrix_holds(
            formula.conclusion, tree, env
        )
    return _atom_holds(formula, tree, env)


def enumerate_select(
    formula: TreeFormula, tree: Tree, context: NodeId
) -> Tuple[NodeId, ...]:
    """Reference semantics of a binary FO(∃*) selector: strip the
    ∃-prefix, enumerate all prefix assignments with
    :func:`itertools.product`, and apply matrix semantics written
    against raw node addresses.  Mirrors the documented
    ``ExistsStarQuery`` convention that a selector not mentioning y
    returns every node or none."""
    prefix: List[NVar] = []
    matrix = formula
    while isinstance(matrix, tree_fo.Exists):
        prefix.append(matrix.var)
        matrix = matrix.inner
    free = tree_fo.free_variables(formula)
    selected = []
    for candidate in tree.nodes:
        env = {X: context, Y: candidate}
        if any(
            _matrix_holds(matrix, tree, {**env, **dict(zip(prefix, choice))})
            for choice in itertools.product(tree.nodes, repeat=len(prefix))
        ):
            selected.append(candidate)
    if Y not in free:
        return tuple(tree.nodes) if selected else ()
    return tuple(selected)


class FOVsEnumeration(EnginePair):
    """``ExistsStarQuery.select`` vs the brute-force reference above."""

    name = "fo/enum"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        # Cap the tree size: the reference enumeration is O(n^{2+prefix}).
        tree = gen.random_attributed_tree(rng, min(max_size, 8))
        formula = gen.random_exists_star(rng)
        return Case(tree, formula, gen.random_context(rng, tree))

    def check(self, case: Case) -> Outcome:
        formula: TreeFormula = case.query
        query = ExistsStarQuery(formula, X, Y)
        left, left_s = _timed(lambda: query.select(case.tree, case.context))
        right, right_s = _timed(
            lambda: enumerate_select(formula, case.tree, case.context)
        )
        return Outcome(
            left == right, _summary(left), _summary(right), left_s, right_s
        )

    def shrink_query(self, query: TreeFormula) -> Iterable[TreeFormula]:
        prefix: List[NVar] = []
        matrix = query
        while isinstance(matrix, tree_fo.Exists):
            prefix.append(matrix.var)
            matrix = matrix.inner
        candidates: List[TreeFormula] = []
        if isinstance(matrix, (tree_fo.And, tree_fo.Or)):
            candidates.extend(matrix.parts)
            if len(matrix.parts) > 2:
                ctor = tree_fo.conj if isinstance(matrix, tree_fo.And) else tree_fo.disj
                for i in range(len(matrix.parts)):
                    candidates.append(
                        ctor(*(matrix.parts[:i] + matrix.parts[i + 1 :]))
                    )
        if isinstance(matrix, tree_fo.Implies):
            candidates += [matrix.premise, matrix.conclusion]
        if isinstance(matrix, tree_fo.Not):
            candidates.append(matrix.inner)
        if prefix:
            candidates.append(matrix)  # drop the whole ∃-prefix
        for candidate in candidates:
            wrapped = tree_fo.exists(prefix, candidate) if candidate is not matrix \
                else candidate
            if tree_fo.free_variables(wrapped) <= {X, Y}:
                yield wrapped

    def encode_query(self, query: TreeFormula) -> object:
        return format_formula(query)

    def decode_query(self, payload: object) -> TreeFormula:
        return parse_formula(payload)


# ---------------------------------------------------------------------------
# fo/fast-fo
# ---------------------------------------------------------------------------


def _shrink_formula(formula: TreeFormula) -> Iterable[TreeFormula]:
    """Strictly smaller FO formulas: drop connective parts, strip
    quantifiers/negations, and recurse into every child position."""
    if isinstance(formula, (tree_fo.And, tree_fo.Or)):
        ctor = tree_fo.conj if isinstance(formula, tree_fo.And) else tree_fo.disj
        yield from formula.parts
        if len(formula.parts) > 2:
            for i in range(len(formula.parts)):
                yield ctor(*(formula.parts[:i] + formula.parts[i + 1 :]))
        for i, part in enumerate(formula.parts):
            for smaller in _shrink_formula(part):
                yield ctor(
                    *(formula.parts[:i] + (smaller,) + formula.parts[i + 1 :])
                )
    elif isinstance(formula, tree_fo.Implies):
        yield formula.premise
        yield formula.conclusion
        for smaller in _shrink_formula(formula.premise):
            yield tree_fo.implies(smaller, formula.conclusion)
        for smaller in _shrink_formula(formula.conclusion):
            yield tree_fo.implies(formula.premise, smaller)
    elif isinstance(formula, tree_fo.Not):
        yield formula.inner
        for smaller in _shrink_formula(formula.inner):
            yield tree_fo.Not(smaller)
    elif isinstance(formula, (tree_fo.Exists, tree_fo.Forall)):
        yield formula.inner
        ctor = type(formula)
        for smaller in _shrink_formula(formula.inner):
            yield ctor(formula.var, smaller)
    elif not isinstance(formula, tree_fo.TrueF):
        yield tree_fo.TrueF()


def _relation_summary(relation: Sequence[Tuple[NodeId, ...]]) -> str:
    return (
        "{"
        + ", ".join(str([list(u) for u in row]) for row in sorted(relation))
        + "}"
    )


class FOVsFastFO(EnginePair):
    """The reference assignment-at-a-time model checker vs the indexed
    set-at-a-time engine, compared on the *entire relation* of
    satisfying assignments — full FO, so the universal, implication and
    nested-quantifier paths of the fast engine are all on the line."""

    name = "fo/fast-fo"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        formula = gen.random_fo_formula(rng)
        return Case(tree, formula)

    def check(self, case: Case) -> Outcome:
        formula: TreeFormula = case.query
        order = sorted(
            tree_fo.free_variables(formula), key=lambda v: v.name
        )
        left, left_s = _timed(
            lambda: tree_fo.satisfying_assignments(formula, case.tree, order)
        )
        right, right_s = _timed(
            lambda: fast_fo.satisfying_assignments(formula, case.tree, order)
        )
        return Outcome(
            left == right,
            _relation_summary(left), _relation_summary(right),
            left_s, right_s,
        )

    def shrink_query(self, query: TreeFormula) -> Iterable[TreeFormula]:
        return _shrink_formula(query)

    def encode_query(self, query: TreeFormula) -> object:
        return format_formula(query)

    def decode_query(self, payload: object) -> TreeFormula:
        return parse_formula(payload)


# ---------------------------------------------------------------------------
# auto/fast-fo
# ---------------------------------------------------------------------------


class AutoVsFastFO(EnginePair):
    """The cost-based planner's ``auto`` route vs the fast FO engine
    run directly.

    Each case is planned from sampled statistics by a fresh
    :class:`~repro.engine.planner.Planner` with ``guard_threshold=0``,
    so every planner route is on the line: a reference pick runs the
    assignment-at-a-time model checker, a fast pick always goes through
    the guarded re-plan machinery, and a case that overshoots its
    budget mid-flight re-plans onto the reference engine — all of which
    must reproduce the direct fast engine's relation exactly."""

    name = "auto/fast-fo"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        formula = gen.random_fo_formula(rng)
        return Case(tree, formula)

    def check(self, case: Case) -> Outcome:
        formula: TreeFormula = case.query
        order = sorted(
            tree_fo.free_variables(formula), key=lambda v: v.name
        )
        planner = Planner(guard_threshold=0.0)
        log = ResilienceLog()

        def auto():
            plan = planner.plan_formula(formula, case.tree)
            return planner.execute(
                plan,
                "oracle-formula",
                lambda: fast_fo.satisfying_assignments(
                    formula, case.tree, order
                ),
                lambda: tree_fo.satisfying_assignments(
                    formula, case.tree, order
                ),
                None,
                log,
            )

        left, left_s = _timed(auto)
        right, right_s = _timed(
            lambda: fast_fo.satisfying_assignments(formula, case.tree, order)
        )
        return Outcome(
            left == right,
            _relation_summary(left), _relation_summary(right),
            left_s, right_s,
        )

    def shrink_query(self, query: TreeFormula) -> Iterable[TreeFormula]:
        return _shrink_formula(query)

    def encode_query(self, query: TreeFormula) -> object:
        return format_formula(query)

    def decode_query(self, payload: object) -> TreeFormula:
        return parse_formula(payload)


# ---------------------------------------------------------------------------
# xpath/fast-xpath
# ---------------------------------------------------------------------------


class XPathVsFastXPath(EnginePair):
    """The node-at-a-time XPath evaluator vs the fast engine: the plan
    IR anchored at a random context node.

    Generated with the raised :data:`~repro.oracle.generators.
    FAST_ENGINE_MAX_VARIABLES` cap: neither side compiles to FO, so
    deeper filter nesting is affordable here and exercises exactly the
    paths (descendant range masks, filters as backward keep-masks,
    relative paths seeded at a non-root context) that the ``xpath/fo``
    pair's conservative cap rarely reaches."""

    name = "xpath/fast-xpath"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        expr = gen.random_xpath(
            rng, max_variables=gen.FAST_ENGINE_MAX_VARIABLES
        )
        return Case(tree, expr, gen.random_context(rng, tree))

    def check(self, case: Case) -> Outcome:
        expr: Expr = case.query
        left, left_s = _timed(
            lambda: xpath_select(expr, case.tree, case.context)
        )
        right, right_s = _timed(
            lambda: fast_xpath.select(expr, case.tree, case.context)
        )
        return Outcome(
            left == right, _summary(left), _summary(right), left_s, right_s
        )

    def shrink_query(self, query: Expr) -> Iterable[Expr]:
        return _shrink_xpath(query)

    def encode_query(self, query: Expr) -> object:
        return repr(query)

    def decode_query(self, payload: object) -> Expr:
        return parse_xpath(payload)


# ---------------------------------------------------------------------------
# caterpillar/fast-caterpillar
# ---------------------------------------------------------------------------


def _pairs_summary(relation) -> str:
    return (
        "{"
        + ", ".join(
            f"({list(u)}→{list(v)})" for u, v in sorted(relation)
        )
        + "}"
    )


class CaterpillarVsFastCaterpillar(EnginePair):
    """The reference node-at-a-time caterpillar walk vs the compiled
    product-graph walking engine (:mod:`repro.engine.walk`).

    Checked on the *full denoted relation* — the reference loops
    ``walk`` over every context while the fast engine answers with one
    stacked ``all_pairs`` BFS — and, when the relations agree, on the
    document-ordered walk from one random context, so the IR's
    context-anchored ``Closure`` is exercised too."""

    name = "caterpillar/fast-caterpillar"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        expr = gen.random_caterpillar(rng, budget=rng.randint(2, 8))
        return Case(tree, expr, gen.random_context(rng, tree))

    def check(self, case: Case) -> Outcome:
        expr: Caterpillar = case.query
        left, left_s = _timed(lambda: caterpillar_relation(expr, case.tree))
        right, right_s = _timed(lambda: engine_walk.relation(expr, case.tree))
        if left != right:
            return Outcome(
                False, _pairs_summary(left), _pairs_summary(right),
                left_s, right_s,
            )
        ref_nodes = walk(expr, case.tree, case.context)
        fast_nodes = engine_walk.walk(expr, case.tree, case.context)
        return Outcome(
            tuple(ref_nodes) == tuple(fast_nodes),
            _summary(ref_nodes), _summary(fast_nodes), left_s, right_s,
        )

    def shrink_query(self, query: Caterpillar) -> Iterable[Caterpillar]:
        return _shrink_caterpillar(query)

    def encode_query(self, query: Caterpillar) -> object:
        return format_caterpillar(query)

    def decode_query(self, payload: object) -> Caterpillar:
        return parse_caterpillar(payload)


# ---------------------------------------------------------------------------
# ntwa/fast-caterpillar
# ---------------------------------------------------------------------------


class NTWAVsFastCaterpillar(EnginePair):
    """The compiled nondeterministic tree-walking automaton (§6) vs the
    walking engine: from every start node, the NTWA accepts iff the IR
    walk anchored at that node reaches an accepting state — the
    nonemptiness view of ``caterpillar/ntwa``, with the bitset engine
    on the other side and no code shared between the two routes."""

    name = "ntwa/fast-caterpillar"

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        expr = gen.random_caterpillar(rng, budget=rng.randint(2, 6))
        return Case(tree, expr)

    def check(self, case: Case) -> Outcome:
        expr: Caterpillar = case.query
        ntwa = caterpillar_to_ntwa(expr)
        left, left_s = _timed(
            lambda: tuple(
                ntwa_accepts(ntwa, case.tree, start=u)
                for u in case.tree.nodes
            )
        )
        right, right_s = _timed(
            lambda: tuple(
                bool(engine_walk.walk(expr, case.tree, u))
                for u in case.tree.nodes
            )
        )
        return Outcome(left == right, str(left), str(right), left_s, right_s)

    def shrink_query(self, query: Caterpillar) -> Iterable[Caterpillar]:
        return _shrink_caterpillar(query)

    def encode_query(self, query: Caterpillar) -> object:
        return format_caterpillar(query)

    def decode_query(self, payload: object) -> Caterpillar:
        return parse_caterpillar(payload)


# ---------------------------------------------------------------------------
# corpus/sequential
# ---------------------------------------------------------------------------


def _corpus_members(tree: Tree) -> List[Tree]:
    """The member trees a case's tree stands for: one corpus tree per
    root child (so members differ in shape and size), or the tree
    itself when the root is a leaf."""
    children = tree.children(())
    if not children:
        return [tree]
    return [tree.subtree(child) for child in children]


def _sequential_answers(
    members: Sequence[Tree], query: "CorpusQuery"
) -> Tuple[object, ...]:
    """The status-quo loop: one facade call per member tree."""
    return tuple(
        TreeDatabase(tree).query(query.kind, query.text, query.context)
        for tree in members
    )


class _BatchVsSequential(EnginePair):
    """The shared half of the batch pairs: a generated tree is split at
    the root into member trees, and one random query of any of the five
    kinds is answered by a per-tree loop through the
    :class:`TreeDatabase` facade on one side and by a batch on the
    other; the batch must be element-wise identical to the loop."""

    KINDS = ("xpath", "ask", "select", "caterpillar", "caterpillar-relation")

    def generate(self, rng: random.Random, max_size: int) -> Case:
        tree = gen.random_attributed_tree(rng, max_size)
        kind = rng.choice(self.KINDS)
        if kind == "xpath":
            text = repr(gen.random_xpath(rng))
        elif kind == "ask":
            text = format_formula(gen.random_fo_sentence(rng))
        elif kind == "select":
            text = format_formula(gen.random_exists_star(rng))
        else:
            text = format_caterpillar(
                gen.random_caterpillar(rng, budget=rng.randint(2, 6))
            )
        from ..corpus.query import CorpusQuery

        return Case(tree, CorpusQuery(kind, text))

    def shrink_query(self, query) -> Iterable[object]:
        from ..corpus.query import CorpusQuery

        if query.kind == "xpath":
            for smaller in _shrink_xpath(parse_xpath(query.text)):
                yield CorpusQuery("xpath", repr(smaller))
        elif query.kind == "ask":
            for smaller in _shrink_formula(parse_formula(query.text)):
                if not tree_fo.free_variables(smaller):  # ask needs a sentence
                    yield CorpusQuery("ask", format_formula(smaller))
        elif query.kind == "select":
            for smaller in _shrink_formula(parse_formula(query.text)):
                try:  # selection needs the FO(∃*) fragment to survive
                    ExistsStarQuery(smaller)
                except FragmentError:
                    continue
                yield CorpusQuery("select", format_formula(smaller))
        else:
            for smaller in _shrink_caterpillar(parse_caterpillar(query.text)):
                yield CorpusQuery(query.kind, format_caterpillar(smaller))

    def encode_query(self, query) -> object:
        return {"kind": query.kind, "text": query.text}

    def decode_query(self, payload: object):
        from ..corpus.query import CorpusQuery

        return CorpusQuery(payload["kind"], payload["text"])


class CorpusVsSequential(_BatchVsSequential):
    """The set-at-a-time corpus batch vs a loop of single-tree calls.

    The batch side is one :func:`repro.corpus.run_batch` call over the
    member trees, under single-tree chunks (every stacked lane width
    degenerate) and the default chunking, so chunk reassembly is on the
    line as well as evaluation, and once more under ``engine="auto"``,
    whose picks decide only queries without an IR plan.  Every query
    with a root-anchored IR plan rides the stacked shard pass — every
    member tree packed into its own bit lane of one wide integer — and
    the rest, the all-pairs relation kind included, run per tree and
    splice into the stacked columns."""

    name = "corpus/sequential"

    def check(self, case: Case) -> Outcome:
        from ..corpus.executor import run_batch

        query = case.query
        members = _corpus_members(case.tree)
        left, left_s = _timed(lambda: _sequential_answers(members, query))
        right, right_s = _timed(
            lambda: run_batch(members, [query], chunk_size=1).for_query(0)
        )
        if left != right:
            return Outcome(False, str(left), str(right), left_s, right_s)
        for options in ({}, {"engine": "auto"}):
            again = run_batch(members, [query], **options).for_query(0)
            if left != again:
                break
        return Outcome(left == again, str(left), str(again), left_s, right_s)


# ---------------------------------------------------------------------------
# store/sequential
# ---------------------------------------------------------------------------


class StoreVsSequential(_BatchVsSequential):
    """A disk-backed store batch vs a loop of single-tree calls.

    Same corpus splitting as ``corpus/sequential``, but the batch side
    first round-trips every member through a
    :class:`~repro.corpus.CorpusStore` — serialized into segment files
    (a tiny segment size forces several) and read back memory-mapped —
    and then queries the *store*.  All five query kinds are on the
    line, under both single-tree chunks and the store's default
    segment-aligned chunking, and once more under ``engine="auto"``,
    whose picks — reference ones included — a chunk with a valid
    sidecar answers from its lanes.  Any divergence in the record
    format, the lazy segment loading, the sidecar lanes, or the
    shard-aligned reassembly shows up as an element-wise mismatch
    against the in-memory loop."""

    name = "store/sequential"

    def check(self, case: Case) -> Outcome:
        import shutil
        import tempfile

        from ..corpus.store import CorpusStore

        query = case.query
        members = _corpus_members(case.tree)
        left, left_s = _timed(lambda: _sequential_answers(members, query))
        tmp = tempfile.mkdtemp(prefix="repro-oracle-store-")
        try:
            with CorpusStore.create(
                f"{tmp}/store", segment_size=3
            ) as store:
                store.ingest(iter(members))
                right, right_s = _timed(
                    lambda: store.run([query], chunk_size=1).for_query(0)
                )
                if left != right:
                    return Outcome(
                        False, str(left), str(right), left_s, right_s
                    )
                rechunked = store.run([query]).for_query(0)
                if left != rechunked:
                    return Outcome(
                        False, str(left), str(rechunked), left_s, right_s
                    )
                planned = store.run([query], engine="auto").for_query(0)
            return Outcome(
                left == planned, str(left), str(planned), left_s, right_s
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
