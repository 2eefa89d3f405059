"""Context-anchored plan IR: the per-tree fast evaluators — XPath
selection, FO(∃*) selection and caterpillar walks — each run one plan
from any context node, and the root plans the stacked corpus pass runs
stay exactly what they were before plans had an anchor.

The differential tests use every node of small trees as the context
and compare with the reference evaluators, so the cases where a
context-anchored plan differs from a root-anchored one are all covered:
absolute paths from inner nodes, relative paths whose first test fails
at the context, self-headed paths, selectors that leave ``y`` (or both
variables) unbound, and walks that climb out of deep nodes.
"""

import pytest

from tests.conftest import tree_family
from repro.caterpillar import nfa as reference_walk
from repro.caterpillar.parser import parse_caterpillar
from repro.engine import fo as fast_fo
from repro.engine import walk as fast_walk
from repro.engine import xpath as fast_xpath
from repro.engine import ir as ir_module
from repro.engine.ir import ConstScan, lower_select, lower_xpath
from repro.engine.plans import compile_ir_plan, plan_cache_clear
from repro.logic.parser import parse_query
from repro.queries import TreeDatabase
from repro.resilience import Budget, Fault, FaultInjector, ResourceExhausted
from repro.trees import parse_term
from repro.xpath.evaluator import select as reference_xpath
from repro.xpath.parser import parse_xpath

#: Small random trees plus a deep one, so that ``up`` walks and
#: absolute paths start several levels below the root.
DEEP = parse_term("σ(δ(σ(δ(σ(δ, σ)), σ)), δ(σ, δ(δ)))")
TREES = tree_family(count=10, max_size=12) + [DEEP]


def _contexts():
    for tree in TREES:
        for context in tree.nodes:
            yield tree, context


# ---------------------------------------------------------------------------
# XPath
# ---------------------------------------------------------------------------

XPATH_CASES = {
    "absolute from any node": ["/σ", "/δ/σ", "/*//δ", "/σ[δ]//σ"],
    "relative, first test may fail": ["δ", "δ/σ", "σ//δ", "δ[σ]//σ[δ]"],
    "self-headed": [".", "./δ", ".//σ", ".[σ]/δ"],
}


@pytest.mark.parametrize(
    "text", [text for texts in XPATH_CASES.values() for text in texts]
)
def test_xpath_from_every_context_matches_reference(text):
    expr = parse_xpath(text)
    for tree, context in _contexts():
        assert fast_xpath.select(expr, tree, context) == reference_xpath(
            expr, tree, context
        ), (text, tree, context)


def test_xpath_seeds_relative_paths_at_the_context_and_absolute_at_root():
    relative = lower_xpath(parse_xpath("δ/σ"), anchor="context")
    absolute = lower_xpath(parse_xpath("/δ/σ"), anchor="context")
    assert ConstScan("context") in relative.ops
    assert ConstScan("root") not in relative.ops
    assert ConstScan("root") in absolute.ops
    assert ConstScan("context") not in absolute.ops
    # Anchored at the root, the anchor is the root.
    assert lower_xpath(parse_xpath("δ/σ")).ops[0] == ConstScan("root")


# ---------------------------------------------------------------------------
# FO(∃*) selection
# ---------------------------------------------------------------------------

#: Selectors the IR lowers, by which variables they leave free.
SELECTORS = {
    "x and y free": [
        "x << y & O_δ(y)",
        "y << x",
        "E(x, y)",
        "E(y, x) & O_σ(y)",
        "x < y",
        "succ(y, x)",
        "x = y",
        "exists z (x << z & E(z, y))",
    ],
    "only x free": [
        "O_σ(x)",
        "root(x)",
        "leaf(x) | first(x)",
        "exists z (E(x, z) & O_δ(z))",
    ],
    "neither free": [
        "exists z O_δ(z)",
        "exists z w (z << w & O_σ(z) & O_δ(w))",
    ],
    "only y free": ["O_δ(y) & leaf(y)"],
}


@pytest.mark.parametrize(
    "text", [text for texts in SELECTORS.values() for text in texts]
)
def test_fo_selection_from_every_context_runs_on_the_ir(text):
    query = parse_query(text)
    plan = lower_select(query.formula, query.x, query.y, anchor="context")
    assert plan is not None  # the IR answers, not the relational engine
    for tree, context in _contexts():
        assert fast_fo.select(
            query.formula, tree, context, query.x, query.y
        ) == query.select(tree, context), (text, tree, context)


def test_fo_selection_outside_the_ir_still_matches_reference():
    query = parse_query("x << y & val_a(y) = 1")
    assert lower_select(
        query.formula, query.x, query.y, anchor="context"
    ) is None
    for tree in TREES[:-1]:  # the attributed ones
        for context in tree.nodes:
            assert fast_fo.select(
                query.formula, tree, context, query.x, query.y
            ) == query.select(tree, context)


# ---------------------------------------------------------------------------
# caterpillar walks
# ---------------------------------------------------------------------------

WALKS = [
    "up",
    "up up <σ>",
    "up* <σ>",
    "(up | left)* isRoot",
    "up right <δ>",
    "up up* isFirst",
    "(up | down | left | right)* isLeaf",
    "isLeaf (up isLast)* (up right | right) (down isFirst)* isLeaf",
]


@pytest.mark.parametrize("text", WALKS)
def test_walk_from_every_context_matches_reference(text):
    expr = parse_caterpillar(text)
    for tree, context in _contexts():
        assert fast_walk.walk(expr, tree, context) == tuple(
            reference_walk.walk(expr, tree, context)
        ), (text, tree, context)


def test_walks_climb_out_of_the_deepest_node():
    deepest = max(DEEP.nodes, key=len)
    assert len(deepest) == 5
    expr = parse_caterpillar("up* isRoot")
    assert fast_walk.walk(expr, DEEP, deepest) == ((),)
    assert fast_walk.walk(parse_caterpillar("up up <δ>"), DEEP, deepest) == (
        deepest[:-2],
    )


# ---------------------------------------------------------------------------
# budgets and fallback at a non-root context
# ---------------------------------------------------------------------------


@pytest.fixture
def db():
    return TreeDatabase(DEEP)


def test_budget_stops_a_non_root_xpath_query_with_filters(db):
    text = "δ[σ]//σ[δ]"
    expected = db.xpath(text, (0,), engine="reference")
    assert expected  # the query has answers from this context
    assert db.xpath(text, (0,), budget=Budget(steps=10**6)) == expected
    with pytest.raises(ResourceExhausted):
        db.xpath(text, (0,), budget=Budget(steps=3))


def test_budget_stops_a_non_root_selection(db):
    text = "x << y & O_δ(y)"
    expected = db.select_where(text, (0,), engine="reference")
    assert expected
    assert db.select_where(text, (0,), budget=Budget(steps=10**6)) == expected
    with pytest.raises(ResourceExhausted):
        db.select_where(text, (0,), budget=Budget(steps=1))


def test_resilient_falls_back_under_a_fault_at_a_non_root_context(db):
    calls = {
        "xpath": lambda engine: db.xpath("δ[σ]//σ", (0,), engine=engine),
        "select": lambda engine: db.select_where(
            "x << y & O_δ(y)", (0,), engine=engine
        ),
        "caterpillar": lambda engine: db.caterpillar(
            "up* <σ>", (0, 0, 0), engine=engine
        ),
    }
    for name, call in calls.items():
        expected = call("reference")
        db._fault_injector = FaultInjector(Fault(at_checkpoint=1, kind="error"))
        try:
            assert call("resilient") == expected, name
        finally:
            db._fault_injector = None
    info = db.resilience_info()
    assert info["fallbacks"] == len(calls)
    assert "InjectedFault" in info["last_error"]


def test_facade_text_calls_reuse_one_per_tree_plan(db):
    """Per-tree plans are found by the parsed object's identity, so the
    facade's text methods share one parse per text."""
    plan_cache_clear()
    for context in ((), (0,), (1,)):
        db.select_where("x << y & O_δ(y)", context)
        db.ask("exists x O_δ(x)")
        db.xpath("δ/σ", context)
        db.caterpillar("up* <σ>", context)
    assert len(ir_module._TREE_PLANS) == 4


# ---------------------------------------------------------------------------
# root plans are unchanged
# ---------------------------------------------------------------------------

#: ``repr(compile_ir_plan(kind, text))`` of every query text the
#: repository benchmark and ``repro.bench`` run, recorded before plans
#: had an anchor.  A root-anchored plan must stay the same op for op:
#: lane-served chunks then keep their ``ChunkReport.steps``, and the
#: stacked path does the same work.
ROOT_PLANS = {
    ('ask', 'exists x (O_δ(x) & exists y (x < y & O_δ(y)))'): (
        "Plan<boolean>[r0=LabelScan(name='δ'); "
        "r1=ClosurePlus(src=0, direction='left'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=AnyLane(src=2) -> r3]'
    ),
    ('ask', 'exists x O_σ(x)'): (
        "Plan<boolean>[r0=LabelScan(name='σ'); "
        'r1=AnyLane(src=0) -> r1]'
    ),
    ('ask', 'exists x exists y (x << y & O_σ(x) & O_δ(y))'): (
        "Plan<boolean>[r0=LabelScan(name='σ'); "
        "r1=LabelScan(name='δ'); "
        "r2=ClosurePlus(src=1, direction='up'); "
        'r3=Join(srcs=(0, 2)); '
        'r4=AnyLane(src=3) -> r4]'
    ),
    ('ask', 'forall x (O_σ(x) | O_δ(x))'): (
        "Plan<boolean>[r0=LabelScan(name='σ'); "
        "r1=LabelScan(name='δ'); "
        'r2=Union(srcs=(0, 1)); '
        'r3=Complement(src=2); '
        'r4=AnyLane(src=3); '
        'r5=Complement(src=4) -> r5]'
    ),
    ('ask', 'forall x (leaf(x) -> O_δ(x))'): (
        "Plan<boolean>[r0=ConstScan(kind='leaf'); "
        "r1=LabelScan(name='δ'); "
        'r2=Complement(src=0); '
        'r3=Union(srcs=(2, 1)); '
        'r4=Complement(src=3); '
        'r5=AnyLane(src=4); '
        'r6=Complement(src=5) -> r6]'
    ),
    ('caterpillar', '(down <δ>)* <σ>'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=Closure(src=0, edges=(((('move', 'down'), (1,)), (('label"
        "', 'σ'), (2,))), ((('label', 'δ'), (0,)),), ()), start=0, ac"
        'cepting=(2,)) -> r1]'
    ),
    ('caterpillar', '(down | right)* <δ>'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=Closure(src=0, edges=(((('move', 'down'), (0,)), (('move'"
        ", 'right'), (0,)), (('label', 'δ'), (1,))), ()), start=0, ac"
        'cepting=(1,)) -> r1]'
    ),
    ('caterpillar', 'down <σ> down <δ>'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=Closure(src=0, edges=(((('move', 'down'), (1,)),), ((('la"
        "bel', 'σ'), (2,)),), ((('move', 'down'), (3,)),), ((('label'"
        ", 'δ'), (4,)),), ()), start=0, accepting=(4,)) -> r1]"
    ),
    ('caterpillar', 'down*'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=Closure(src=0, edges=(((('move', 'down'), (0,)),),), star"
        't=0, accepting=(0,)) -> r1]'
    ),
    ('caterpillar', 'right right <δ>'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=Closure(src=0, edges=(((('move', 'right'), (1,)),), ((('m"
        "ove', 'right'), (2,)),), ((('label', 'δ'), (3,)),), ()), sta"
        'rt=0, accepting=(3,)) -> r1]'
    ),
    ('caterpillar', 'up* <σ>'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=Closure(src=0, edges=(((('move', 'up'), (0,)), (('label',"
        " 'σ'), (1,))), ()), start=0, accepting=(1,)) -> r1]"
    ),
    ('caterpillar-relation', 'down <σ>'): (
        None
    ),
    ('select', 'O_σ(x) & x < y & O_σ(y)'): (
        "Plan<nodes>[r0=LabelScan(name='σ'); "
        "r1=ConstScan(kind='root'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=AnyLane(src=2); '
        "r4=ClosurePlus(src=1, direction='right'); "
        'r5=Join(srcs=(3, 4, 0)) -> r5]'
    ),
    ('select', 'x << y & O_δ(y)'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        'r1=Descendants(src=0); '
        "r2=LabelScan(name='δ'); "
        'r3=Join(srcs=(1, 2)) -> r3]'
    ),
    ('xpath', '//δ'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=ConstScan(kind='all'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=Descendants(src=2); '
        "r4=LabelScan(name='δ'); "
        'r5=Join(srcs=(3, 4)) -> r5]'
    ),
    ('xpath', '//δ/σ'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=ConstScan(kind='all'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=Descendants(src=2); '
        "r4=LabelScan(name='δ'); "
        'r5=Join(srcs=(3, 4)); '
        'r6=Children(src=5); '
        "r7=LabelScan(name='σ'); "
        'r8=Join(srcs=(6, 7)) -> r8]'
    ),
    ('xpath', '//δ[σ]/δ'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=ConstScan(kind='all'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=Descendants(src=2); '
        "r4=LabelScan(name='δ'); "
        "r5=LabelScan(name='σ'); "
        "r6=Shift(src=5, direction='up'); "
        'r7=Join(srcs=(4, 6)); '
        'r8=Join(srcs=(3, 7)); '
        'r9=Children(src=8); '
        'r10=Join(srcs=(9, 4)) -> r10]'
    ),
    ('xpath', '//σ//δ'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=ConstScan(kind='all'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=Descendants(src=2); '
        "r4=LabelScan(name='σ'); "
        'r5=Join(srcs=(3, 4)); '
        'r6=Descendants(src=5); '
        "r7=LabelScan(name='δ'); "
        'r8=Join(srcs=(6, 7)) -> r8]'
    ),
    ('xpath', '//σ[.//δ]//σ'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=ConstScan(kind='all'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=Descendants(src=2); '
        "r4=LabelScan(name='σ'); "
        "r5=LabelScan(name='δ'); "
        "r6=ClosurePlus(src=5, direction='up'); "
        'r7=Join(srcs=(1, 6)); '
        'r8=Join(srcs=(4, 7)); '
        'r9=Join(srcs=(3, 8)); '
        'r10=Descendants(src=9); '
        'r11=Join(srcs=(10, 4)) -> r11]'
    ),
    ('xpath', '//σ[δ]'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=ConstScan(kind='all'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=Descendants(src=2); '
        "r4=LabelScan(name='σ'); "
        "r5=LabelScan(name='δ'); "
        "r6=Shift(src=5, direction='up'); "
        'r7=Join(srcs=(4, 6)); '
        'r8=Join(srcs=(3, 7)) -> r8]'
    ),
    ('xpath', '/δ/*'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=LabelScan(name='δ'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=Children(src=2); '
        "r4=ConstScan(kind='all'); "
        'r5=Join(srcs=(3, 4)) -> r5]'
    ),
    ('xpath', '/σ/*'): (
        "Plan<nodes>[r0=ConstScan(kind='root'); "
        "r1=LabelScan(name='σ'); "
        'r2=Join(srcs=(0, 1)); '
        'r3=Children(src=2); '
        "r4=ConstScan(kind='all'); "
        'r5=Join(srcs=(3, 4)) -> r5]'
    ),
}


@pytest.mark.parametrize("kind, text", sorted(ROOT_PLANS))
def test_root_plans_are_unchanged(kind, text):
    expected = ROOT_PLANS[(kind, text)]
    assert repr(compile_ir_plan(kind, text)) == (
        repr(None) if expected is None else expected
    )
