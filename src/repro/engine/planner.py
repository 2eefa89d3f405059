"""The cost-based adaptive planner behind ``engine="auto"``.

Every query in the repo has (at least) two implementations: the
node-at-a-time reference evaluators and the indexed set-at-a-time
engines.  Which one wins depends on the *instance*: on a three-node
tree the reference evaluator answers an XPath step in a handful of
dict lookups while the fast engine pays its bitset machinery for
nothing; on a thousand-node document the set-at-a-time engine is two
orders of magnitude ahead.  The planner makes that call per
(query, statistics) pair:

1. **estimate** — query features (steps, axes, quantifier structure,
   NFA states) are combined with tree statistics
   (:mod:`repro.engine.stats`) and wander-join-sampled join
   selectivities into per-engine cost formulas and an estimated result
   cardinality;
2. **choose** — the cheapest engine wins; the decision, the losing
   costs, the cardinality estimate and the statistics fingerprint are
   frozen into a :class:`Plan`, memoised in the process-wide plan
   cache keyed by ``(kind, text, fingerprint, planner config)``;
3. **guard & re-plan** — when the modeled cost is large enough to
   matter (``guard_threshold``), the fast attempt runs under a
   threaded :class:`~repro.resilience.Budget` of
   ``replan_factor × estimated cost`` steps through the ``"resilient"``
   machinery: an engine whose *actual* work overshoots its estimate by
   the configured factor is cut off mid-execution and the query is
   re-planned onto the reference engine (recorded as a re-plan).

Plans are deterministic per seed — same statistics, same text, same
plan — which the planner property tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..logic import tree_fo
from ..logic.parser import format_formula
from ..logic.tree_fo import (
    And,
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
    Or,
    Root,
    SibLess,
    Succ,
    TreeFormula,
    TrueF,
    ValConst,
    ValEq,
    free_variables,
)
from ..resilience.budget import Budget, ExecutionContext, activate
from ..resilience.executor import resilient_call
from ..resilience.log import ResilienceLog
from ..trees.tree import Tree
from ..xpath import ast as xp
from .index import index_for
from .plans import cached_query_plan, dialect_for
from .stats import (
    DEFAULT_SAMPLE_SIZE,
    CardinalityEstimator,
    CorpusStatistics,
    TreeStatistics,
    closure_reach_estimate,
    corpus_statistics,
    tree_statistics,
)

__all__ = [
    "Plan",
    "Planner",
    "default_planner",
    "GUARD_THRESHOLD",
    "REPLAN_FACTOR",
    "MIN_REPLAN_STEPS",
]

# -- cost model constants ----------------------------------------------------
#
# Units are abstract "node touches".  The reference evaluators pay one
# unit per visited node/assignment; the set-at-a-time engines pay one
# unit per big-int word (n/64 bits) per operation plus a fixed setup
# for the bitset machinery.  The absolute scale is irrelevant — only
# the crossover matters, and it is calibrated against the measured
# BENCH trajectories: fast wins from a few dozen nodes up, reference
# wins on tiny documents where setup dominates.

#: Fixed overhead of the set-at-a-time machinery per query.
FAST_SETUP = 24.0
#: Fixed overhead of the reference evaluators per query.
REF_SETUP = 4.0
#: One assignment-at-a-time FO evaluation step (checkpointed dict
#: bindings, interpreter recursion) costs about this many fast-engine
#: row touches — the two sides of the cost model run at different
#: speeds per unit and the comparison has to account for it.
REF_EVAL = 6.0
#: Bits per big-int word — the fast engines' set-at-a-time divisor.
WORD = 64.0

#: Modeled fast cost below which auto runs unguarded: re-planning only
#: pays for itself when the query is expensive enough that a runaway
#: fast attempt would dwarf the budget bookkeeping.
GUARD_THRESHOLD = 100_000.0
#: The re-plan trigger: the guarded fast attempt may spend this many
#: times its estimated cost before it is cut off and re-planned.
REPLAN_FACTOR = 8.0
#: Floor on the guarded budget, so estimate noise on cheap queries can
#: never starve a healthy fast attempt.
MIN_REPLAN_STEPS = 20_000


@dataclass(frozen=True)
class Plan:
    """One frozen planning decision for a (query, statistics) pair."""

    kind: str
    text: str
    #: The chosen engine: ``"fast"`` or ``"reference"``.
    engine: str
    #: Modeled cost per candidate engine, sorted cheapest first.
    costs: Tuple[Tuple[str, float], ...]
    #: Estimated result cardinality (rows / selected nodes; 0 or 1 for
    #: boolean queries) — compared against actuals in BENCH_planner.
    estimated_rows: int
    #: Statistics fingerprint the plan was built against.
    fingerprint: str
    #: Whether execution runs under the re-plan budget.
    guarded: bool
    #: Budget (in checkpoint steps) for the guarded fast attempt.
    replan_steps: int

    @property
    def estimated_cost(self) -> float:
        """Modeled cost of the chosen engine."""
        return dict(self.costs)[self.engine]


class Planner:
    """Builds, caches and executes :class:`Plan` objects.

    One planner may serve many databases and corpora: plans live in
    the process-wide shared cache, keyed by query text, statistics
    fingerprint and this planner's configuration.  The instance only
    carries counters (``planned``, ``replans``) and the sampling seed.
    """

    def __init__(
        self,
        seed: int = 0,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        replan_factor: float = REPLAN_FACTOR,
        guard_threshold: float = GUARD_THRESHOLD,
    ) -> None:
        self.seed = seed
        self.sample_size = sample_size
        self.replan_factor = replan_factor
        self.guard_threshold = guard_threshold
        #: Plans actually built (cache misses).
        self.planned = 0
        #: Plan requests answered (hits + misses).
        self.requests = 0
        #: Mid-execution re-plans: guarded fast attempts that overshot
        #: their budget and were re-routed to the reference engine.
        self.replans = 0

    # -- planning ----------------------------------------------------------

    def _config_key(self) -> Tuple:
        return (
            self.seed,
            self.sample_size,
            self.replan_factor,
            self.guard_threshold,
        )

    def plan_for_tree(
        self,
        kind: str,
        text: str,
        tree: Tree,
        parsed: Optional[object] = None,
    ) -> Plan:
        """Plan ``(kind, text)`` against one tree: exact popcounts and
        sampled join selectivities off the tree's index.  ``parsed`` is
        the query's parsed form as its dialect's ``parse`` returns it
        (:data:`repro.engine.plans.DIALECTS`), parsed here when
        ``None``."""
        stats = tree_statistics(tree)
        return self._plan(
            kind,
            text,
            stats,
            lambda: CardinalityEstimator(
                index_for(tree), seed=self.seed, sample_size=self.sample_size
            ),
            parsed,
        )

    def plan_for_stats(
        self,
        kind: str,
        text: str,
        stats: CorpusStatistics,
        parsed: Optional[object] = None,
    ) -> Plan:
        """Plan ``(kind, text)`` against aggregate corpus statistics —
        one decision for a whole batch, no per-tree index work."""
        return self._plan(kind, text, stats, None, parsed)

    def plan_formula(self, formula: TreeFormula, tree: Tree) -> Plan:
        """Plan a raw FO formula (full satisfying-assignment relation)
        against one tree — the oracle pair's entry point."""
        return self.plan_for_tree(
            "formula", format_formula(formula), tree, parsed=formula
        )

    def _plan(
        self,
        kind: str,
        text: str,
        profile,
        estimator_factory: Optional[Callable[[], CardinalityEstimator]],
        parsed: Optional[object],
    ) -> Plan:
        self.requests += 1
        key = (kind, text, profile.fingerprint) + self._config_key()

        def build() -> Plan:
            self.planned += 1
            est = estimator_factory() if estimator_factory else None
            fast, ref, rows = _model_costs(kind, text, profile, est, parsed)
            costs = tuple(
                sorted([("fast", fast), ("reference", ref)], key=lambda c: c[1])
            )
            engine = costs[0][0]
            guarded = engine == "fast" and fast >= self.guard_threshold
            replan_steps = int(
                max(fast * self.replan_factor, MIN_REPLAN_STEPS)
            )
            return Plan(
                kind=kind,
                text=text,
                engine=engine,
                costs=costs,
                estimated_rows=max(0, round(rows)),
                fingerprint=profile.fingerprint,
                guarded=guarded,
                replan_steps=replan_steps,
            )

        return cached_query_plan(key, build)

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        operation: str,
        fast: Callable[[], object],
        reference: Callable[[], object],
        budget: Optional[Budget],
        log: ResilienceLog,
        faults=None,
    ):
        """Run one query per its plan.

        Unguarded plans run the chosen engine directly (under the
        caller's budget, when given).  Guarded plans route the fast
        attempt through :func:`~repro.resilience.executor.resilient_call`
        under the re-plan budget: overshooting it (or any engine fault)
        re-plans the query onto the reference engine, recorded both on
        the resilience log and on this planner's ``replans`` counter."""
        if plan.engine == "reference" or not plan.guarded:
            thunk = fast if plan.engine == "fast" else reference
            if budget is not None:
                with activate(ExecutionContext(budget)):
                    return thunk()
            return thunk()
        # The guarded fast path.  With a caller budget the ordinary
        # resilient contract applies (the caller's limit wins); without
        # one, the synthesized guard gives the fast attempt exactly
        # ``replan_steps`` (resilient_call slices budgets in half) and
        # banks as much again for the reference re-plan.
        guard = budget if budget is not None else Budget(
            steps=2 * plan.replan_steps
        )
        before = log.snapshot()["fallbacks"]
        try:
            return resilient_call(
                operation, fast, reference, guard, log, faults=faults
            )
        finally:
            if log.snapshot()["fallbacks"] > before:
                self.replans += 1


#: The process-wide default planner — what ``engine="auto"`` uses when
#: the caller does not supply one.  Sharing it keeps the counters
#: meaningful across facade databases and corpus batches alike.
_DEFAULT_PLANNER = Planner()


def default_planner() -> Planner:
    return _DEFAULT_PLANNER


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------


def _model_costs(
    kind: str,
    text: str,
    profile,
    est: Optional[CardinalityEstimator],
    parsed: Optional[object],
) -> Tuple[float, float, float]:
    """``(fast_cost, reference_cost, estimated_rows)`` for one query.
    ``parsed`` is the query's parsed form (parsed from ``text`` through
    its dialect when ``None``), or the raw formula of kind
    ``"formula"``."""
    if kind == "formula":
        if parsed is None:
            raise ValueError("kind='formula' requires the parsed formula")
        return _fo_costs(parsed, profile, est, result_arity=None)
    dialect = dialect_for(kind)
    costed = dialect.costed(dialect.parse(text) if parsed is None else parsed)
    if kind == "xpath":
        return _xpath_costs(costed, profile, est)
    if kind in ("ask", "select"):
        return _fo_costs(
            costed, profile, est, result_arity=0 if kind == "ask" else 1
        )
    return _walk_costs(costed, profile, kind == "caterpillar-relation")


# -- XPath -------------------------------------------------------------------


def _test_selectivity(test, profile, est) -> float:
    if isinstance(test, xp.NameTest):
        if est is not None:
            n = max(est.index.n, 1)
            return est.label_count(test.name) / n
        return profile.label_fraction(test.name)
    return 1.0  # wildcard / self


def _avg_subtree(profile, est) -> float:
    if est is not None:
        return est.avg_subtree_size()
    return profile.avg_subtree


def _xpath_costs(expr, profile, est) -> Tuple[float, float, float]:
    fast, ref, rows = _xpath_work(expr, profile, est)
    return FAST_SETUP + fast, REF_SETUP + ref, rows


def _xpath_work(expr, profile, est) -> Tuple[float, float, float]:
    """Setup-free work estimate; filters recurse here so a filter run
    does not re-pay the machinery setup per candidate."""
    n = max(profile.n, 1.0)
    if isinstance(expr, xp.Union_):
        fast = ref = rows = 0.0
        for alt in expr.alternatives:
            f, r, c = _xpath_work(alt, profile, est)
            fast, ref, rows = fast + f, ref + r, rows + c
        return fast, ref, min(rows, n)
    subtree = max(_avg_subtree(profile, est), 1.0)
    fanout = max(profile.avg_fanout, 1.0)
    frontier = 1.0
    fast = ref = 0.0
    for position, step in enumerate(expr.steps):
        if position == 0:
            # The first test applies to the anchor (root or context).
            candidates = frontier
        elif expr.axes[position - 1] == xp.DESCENDANT:
            if position == 1 and getattr(expr, "absolute", False):
                # An absolute path's anchor is the root, whose subtree
                # is the whole tree — the first descendant expansion
                # touches every node, not an average-sized subtree.
                candidates = n
            else:
                candidates = min(frontier * subtree, n)
        else:
            candidates = min(frontier * fanout, n)
        # Reference: walk every candidate; fast: one interval/bitset
        # pass over the whole id space per step.
        ref += candidates
        fast += n / WORD + 1.0
        frontier = max(candidates * _test_selectivity(step.test, profile, est), 0.0)
        for filt in step.filters:
            f_fast, f_ref, f_rows = _xpath_work(filt, profile, est)
            # The reference walker re-runs the filter from every
            # surviving candidate; the fast engine computes the filter
            # once with bitsets and then checks each candidate's
            # interval against it.
            ref += frontier * f_ref
            fast += f_fast + frontier
            # A filter keeps a candidate iff it selects anything.
            frontier *= min(1.0, f_rows + 0.1)
    return fast, ref, frontier


# -- FO ----------------------------------------------------------------------


def _fo_costs(
    formula: TreeFormula,
    profile,
    est: Optional[CardinalityEstimator],
    result_arity: Optional[int],
) -> Tuple[float, float, float]:
    n = max(profile.n, 1.0)
    free = free_variables(formula)
    rows, fast_work = _fo_relation(formula, profile, est)
    depth = _quantifier_depth(formula)
    atoms = _atom_count(formula)
    # The reference evaluator re-walks the formula once per assignment
    # of the free variables, and each walk expands every quantifier
    # block over the full domain.
    ref = REF_SETUP + atoms * REF_EVAL * (n ** min(len(free) + depth, 6))
    fast = FAST_SETUP + fast_work
    if result_arity == 0:
        tries = _sentence_tries(formula, profile, est, n)
        ref = REF_SETUP + atoms * REF_EVAL * tries
        rows = min(rows, 1.0)
    elif result_arity == 1 and len(free) > 1:
        # select: x is bound to the context, y remains.
        rows = min(rows / n, n)
    return fast, ref, rows


def _fo_relation(
    formula: TreeFormula, profile, est: Optional[CardinalityEstimator]
) -> Tuple[float, float]:
    """``(estimated rows, fast-engine work)`` of the satisfying
    -assignment relation, by structural recursion with independence
    assumptions (the classic System-R shape, with the join atoms fed by
    the wander-join sampler)."""
    _, rows, work = _relation_shape(formula, profile, est)
    return rows, work


def _touches(arity: int, rows: float, n: float) -> float:
    """Cost of materialising a relation of ``arity`` with ``rows``
    tuples: the fast engine stores nullary/unary relations as bitsets
    (one machine word per 64 nodes regardless of cardinality), wider
    relations as tuple sets it must touch row by row."""
    if arity <= 1:
        return n / WORD + 1.0
    return rows


def _relation_shape(
    f: TreeFormula, profile, est: Optional[CardinalityEstimator]
) -> Tuple[int, float, float]:
    """``(arity, rows, work)`` of a subformula's satisfying
    -assignment relation under the fast engine's cost model."""
    n = max(profile.n, 1.0)
    if tree_fo.is_atom(f):
        vars_ = free_variables(f)
        rows = _atom_rows(f, profile, est)
        return len(vars_), rows, _touches(len(vars_), rows, n)
    if isinstance(f, Not):
        a, rows, work = _relation_shape(f.inner, profile, est)
        rows = max(n**a - rows, 0.0)
        return a, rows, work + _touches(a, rows, n)
    if isinstance(f, (And, Or)):
        parts = [_relation_shape(p, profile, est) for p in f.parts]
        vars_ = free_variables(f)
        a = len(vars_)
        work = sum(p[2] for p in parts)
        if isinstance(f, And):
            sel = 1.0
            for pa, prows, _ in parts:
                sel *= min(prows / (n**pa), 1.0) if pa else min(prows, 1.0)
            rows = (n**a) * sel
        else:
            rows = 0.0
            for pa, prows, _ in parts:
                rows += prows * (n ** (a - pa))
            rows = min(rows, n**a)
        # Intermediate relations are materialised pairwise.
        work += _touches(a, rows, n) + sum(
            _touches(pa, prows, n) for pa, prows, _ in parts
        )
        return a, rows, work
    if isinstance(f, Implies):
        return _relation_shape(Or((Not(f.premise), f.conclusion)), profile, est)
    if isinstance(f, (Exists, Forall)):
        a, rows, work = _relation_shape(f.inner, profile, est)
        out = max(a - (1 if f.var in free_variables(f.inner) else 0), 0)
        if isinstance(f, Exists):
            projected = min(rows, n**out)
        else:
            projected = min(rows / n, n**out)
        return out, projected, work + _touches(a, rows, n) + 1.0
    raise tree_fo.TreeFormulaError(f"unknown formula node {f!r}")


def _sentence_tries(
    formula: TreeFormula, profile, est: Optional[CardinalityEstimator], n: float
) -> float:
    """Expected assignment scans for the reference model checker on a
    sentence.

    The reference evaluator exits an existential loop at the first
    witness, but the exit is only cheap for the *outermost* variable:
    every outer value that fails still pays a full scan of the
    remaining chain before the loop moves on.  Witnesses project to
    roughly ``min(rows, n)`` outermost values, so the scan tries about
    ``n / min(rows, n)`` outer settings, each costing the rest of the
    space.  Universal (and mixed) prefixes keep the full ``n**depth``
    pessimism: their early exit hinges on where in document order the
    first counterexample sits, which cardinality statistics cannot
    see."""
    peeled = 0
    matrix = formula
    while isinstance(matrix, Exists):
        peeled += 1
        matrix = matrix.inner
    full = n ** min(_quantifier_depth(formula), 6)
    if not peeled:
        return full
    _, rows, _ = _relation_shape(matrix, profile, est)
    if rows <= 0.0:
        return full
    misses = min(n / min(rows, n), n)
    inner_space = n ** min(peeled - 1 + _quantifier_depth(matrix), 6)
    return min(misses * inner_space, full)


def _atom_rows(atom, profile, est: Optional[CardinalityEstimator]) -> float:
    n = max(profile.n, 1.0)
    internal = max(n - getattr(profile, "leaf_count", n / 2), 0.0)
    if isinstance(atom, TrueF):
        return 1.0
    if isinstance(atom, FalseF):
        return 0.0
    if isinstance(atom, Label):
        if est is not None:
            return float(est.label_count(atom.symbol))
        return profile.label_fraction(atom.symbol) * n
    if isinstance(atom, Root):
        return 1.0
    if isinstance(atom, Leaf):
        return float(getattr(profile, "leaf_count", n / 2))
    if isinstance(atom, (First, Last)):
        return internal  # one first (last) child per internal node
    if isinstance(atom, ValConst):
        if est is not None:
            return float(est.count(est.index.valued(atom.attr, atom.value)))
        return n / 3.0
    if isinstance(atom, NodeEq):
        return n
    if isinstance(atom, Edge):
        return 0.0 if atom.parent == atom.child else n - 1.0
    if isinstance(atom, Succ):
        return 0.0 if atom.left == atom.right else max(n - 1.0 - internal, 0.0)
    if isinstance(atom, SibLess):
        if atom.left == atom.right:
            return 0.0
        fanout = max(profile.avg_fanout, 1.0)
        return internal * fanout * (fanout - 1.0) / 2.0
    if isinstance(atom, Desc):
        if atom.ancestor == atom.descendant:
            return 0.0
        if est is not None:
            all_mask = est.index.all_mask
            return float(est.descendant_pairs(all_mask, all_mask))
        return n * profile.avg_subtree
    if isinstance(atom, ValEq):
        if atom.left == atom.right:
            return n / 3.0
        if est is not None:
            return float(est.value_join(atom.attr_left, atom.attr_right))
        return n * n / 9.0
    return n  # unknown atom: assume nothing


def _quantifier_depth(formula: TreeFormula) -> int:
    if tree_fo.is_atom(formula):
        return 0
    if isinstance(formula, Not):
        return _quantifier_depth(formula.inner)
    if isinstance(formula, (And, Or)):
        return max(_quantifier_depth(p) for p in formula.parts)
    if isinstance(formula, Implies):
        return max(
            _quantifier_depth(formula.premise),
            _quantifier_depth(formula.conclusion),
        )
    if isinstance(formula, (Exists, Forall)):
        return 1 + _quantifier_depth(formula.inner)
    return 0


def _atom_count(formula: TreeFormula) -> int:
    if tree_fo.is_atom(formula):
        return 1
    if isinstance(formula, Not):
        return _atom_count(formula.inner)
    if isinstance(formula, (And, Or)):
        return sum(_atom_count(p) for p in formula.parts)
    if isinstance(formula, Implies):
        return _atom_count(formula.premise) + _atom_count(formula.conclusion)
    if isinstance(formula, (Exists, Forall)):
        return _atom_count(formula.inner)
    return 1


# -- walking -----------------------------------------------------------------


def _walk_directions(compiled) -> frozenset:
    """The move directions the compiled walk can take — what its
    closures can reach, hence what its answers can span."""
    return frozenset(
        atom[1]
        for state in compiled.edges
        for atom, _targets in state
        if atom[0] == "move"
    )


def _walk_costs(
    compiled, profile, relation: bool
) -> Tuple[float, float, float]:
    states = compiled.state_count
    n = max(profile.n, 1.0)
    height = max(getattr(profile, "height", 1.0), 1.0) + 1.0
    words = n / WORD + 1.0
    # How far one start node's closure travels, from the profile's
    # height/mean-subtree statistics — a ``down*`` spine is bounded by
    # the height, a ``(down|right)*`` sweep by the mean subtree, an
    # ``up*`` chain by the mean depth (see closure_reach_estimate).
    reach = closure_reach_estimate(profile, _walk_directions(compiled))
    if relation:
        # Stacked all-pairs BFS: n frontiers of n-bit sets per state
        # sweep vs one per-context NFA search per start node.
        fast = FAST_SETUP + states * height * words * words * WORD / 4.0
        ref = REF_SETUP + states * n * n
        rows = n * min(reach, n) / 2.0
    else:
        fast = FAST_SETUP + states * height * words
        ref = REF_SETUP + states * n
        rows = min(n, reach) / 2.0 + 0.5
    return fast, ref, rows
