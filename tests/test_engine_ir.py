"""The plan IR (:mod:`repro.engine.ir`) against the reference
evaluators, per tree and stacked.

Three families of properties:

* **dialect round-trips** — every XPath / FO sentence / FO(∃*)
  selector / caterpillar query that lowers into the IR must evaluate,
  through :func:`evaluate_tree`, to exactly what the reference
  evaluator answers on the same tree; and through
  :func:`evaluate_shard` — every seed tree packed into one wide
  integer — to exactly the per-tree results, lane by lane.
* **one-pass structural ops** — a stacked shard answers
  ``Descendants``, ``Children``, ``ClosurePlus(·, up)`` and a walk's
  ``(down | right)*`` loop with size-bucket arithmetic instead of move
  saturation; a Hypothesis property holds each, split per lane, to the
  per-tree evaluator over ``TreeIndex`` and ``PackedIndex`` lanes, and
  a chunk's budget steps no longer follow tree depth;
* **statistics-informed join ordering** — with corpus statistics in
  hand, the lowering orders ``Join`` children cheapest-first by
  estimated cardinality; without them, syntactic order is preserved
  (the satellite the planner's estimator feeds).
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.caterpillar.parser import parse_caterpillar
from repro.corpus.executor import evaluate_cell, run_batch
from repro.corpus.query import CorpusQuery
from repro.engine.index import (
    PackedIndex,
    TreeIndex,
    index_for,
    serialize_index,
)
from repro.engine.ir import (
    Children,
    Closure,
    ClosurePlus,
    ConstScan,
    Descendants,
    Join,
    LabelScan,
    Plan,
    StackedShard,
    evaluate_shard,
    evaluate_tree,
    lower_sentence,
)
from repro.engine.plans import compile_ir_plan
from repro.engine.stats import corpus_statistics
from repro.engine.walk import compile_walk
from repro.logic.parser import parse_sentence
from repro.trees.generators import random_tree
from repro.trees.parser import parse_term

SEED_TREES = [
    parse_term("σ"),
    parse_term("σ(δ)"),
    parse_term("σ(δ, σ(δ, δ), σ)"),
    parse_term("δ(σ(σ(δ)), δ)"),
]
SEED_TREES += [
    random_tree(
        size, alphabet=("σ", "δ"), max_children=3,
        seed=random.Random(seed), value_pool=(1, 2),
    )
    for seed, size in ((1, 9), (2, 17), (3, 30), (4, 44))
]

QUERIES = [
    CorpusQuery("xpath", "//δ"),
    CorpusQuery("xpath", "//σ//δ"),
    CorpusQuery("xpath", "//σ[.//δ]//σ"),
    CorpusQuery("xpath", "/σ/*"),
    CorpusQuery("ask", "exists x O_σ(x)"),
    CorpusQuery("ask", "forall x (leaf(x) -> O_δ(x))"),
    CorpusQuery("ask", "exists x exists y (x << y & O_σ(x) & O_δ(y))"),
    CorpusQuery("select", "x << y & O_δ(y)"),
    CorpusQuery("select", "exists z (y << z & leaf(z) & O_σ(y))"),
    CorpusQuery("caterpillar", "down*"),
    CorpusQuery("caterpillar", "(down | right)* <δ>"),
    CorpusQuery("caterpillar", "(up | down | left | right)* (<σ> isLeaf)"),
]


def _ir_answer(query, tree):
    plan = compile_ir_plan(query.kind, query.text)
    assert plan is not None, f"{query.kind} {query.text!r} should lower"
    idx = index_for(tree)
    bits = evaluate_tree(plan, idx)
    if plan.mode == "boolean":
        return bool(bits)
    return idx.to_nodes(bits)


# -- dialect round-trips ------------------------------------------------------


@pytest.mark.parametrize(
    "query", QUERIES, ids=[f"{q.kind}:{q.text}" for q in QUERIES]
)
def test_ir_matches_reference_per_tree(query):
    for tree in SEED_TREES:
        assert _ir_answer(query, tree) == evaluate_cell(
            query, tree, "reference"
        )


@pytest.mark.parametrize(
    "query", QUERIES, ids=[f"{q.kind}:{q.text}" for q in QUERIES]
)
def test_ir_stacked_shard_matches_per_tree(query):
    """One evaluation of the plan over all seed trees at once — each in
    its own lane — splits back into exactly the per-tree bitsets."""
    plan = compile_ir_plan(query.kind, query.text)
    indexes = [index_for(tree) for tree in SEED_TREES]
    shard = StackedShard(indexes)
    lanes = shard.split(evaluate_shard(plan, shard))
    for idx, lane in zip(indexes, lanes):
        assert lane == evaluate_tree(plan, idx)


# -- one-pass structural ops -------------------------------------------------


def _chain(n):
    """An ``n``-node path, labels alternating σ, δ from the root."""
    labels = ["σ" if depth % 2 == 0 else "δ" for depth in range(n)]
    return parse_term("(".join(labels) + ")" * (n - 1))


def _star(n):
    """A root with ``n - 1`` leaf children, labels alternating."""
    kids = ", ".join("σ" if i % 2 else "δ" for i in range(n - 1))
    return parse_term(f"σ({kids})" if kids else "σ")


def _walk_op(text, src):
    compiled = compile_walk(parse_caterpillar(text))
    return Closure(
        src, compiled.edges, compiled.start, tuple(compiled.accepting),
        compiled.loops,
    )


#: Source sets the ops start from: arbitrary label sets, the roots and
#: every node.
SOURCES = (
    LabelScan("σ"), LabelScan("δ"), ConstScan("root"), ConstScan("all"),
)

#: Each rewritten op — and walks whose ``(down | right)*`` loop the
#: shard closes in one pass, entered from inner nodes, next to one
#: whose loop carries a label test and keeps the wave path — as a
#: one-op plan over register 0.
STRUCTURAL_OPS = (
    Descendants(0),
    Children(0),
    ClosurePlus(0, "up"),
    _walk_op("(down | right)*", 0),
    _walk_op("down <σ> (down | right)* <δ>", 0),
    _walk_op("(right | down)* <δ> up", 0),
    _walk_op("(down | right | <δ>)* <σ>", 0),
)


def _assert_lanes_match(trees):
    indexes = [TreeIndex(tree) for tree in trees]
    packed = [PackedIndex(serialize_index(index)) for index in indexes]
    for lanes in (indexes, packed):
        shard = StackedShard(lanes)
        for source in SOURCES:
            for op in STRUCTURAL_OPS:
                plan = Plan((source, op), 1, "nodes")
                stacked = shard.split(evaluate_shard(plan, shard))
                assert stacked == [
                    evaluate_tree(plan, index) for index in indexes
                ], (type(lanes[0]).__name__, source, op)


@st.composite
def tree_lists(draw):
    trees = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        size = draw(st.integers(min_value=1, max_value=64))
        trees.append(
            random_tree(
                size,
                alphabet=("σ", "δ"),
                max_children=draw(st.integers(min_value=1, max_value=6)),
                seed=random.Random(draw(st.integers(0, 2**32))),
            )
        )
    return trees


@given(tree_lists())
@settings(max_examples=60, deadline=None)
def test_one_pass_ops_split_per_lane_equal_the_per_tree_evaluator(trees):
    _assert_lanes_match(trees)


@pytest.mark.parametrize(
    "trees",
    [
        [parse_term("σ")],
        [parse_term("δ"), parse_term("σ"), parse_term("σ(δ)")],
        # A 64-node tree fills its 64-bit lane: the ancestor carry out
        # of its root's range lands on the next lane's root bit.
        [random_tree(64, max_children=3, seed=1), parse_term("σ(δ)")],
        [_chain(64), _star(64), _chain(64)],
        [_star(64), parse_term("σ"), _chain(63)],
    ],
    ids=["one-node", "tiny", "full-lane", "chain-star", "star-chain"],
)
def test_one_pass_ops_on_edge_shapes(trees):
    _assert_lanes_match(trees)


def test_subtree_loops_are_decided_per_compiled_walk():
    def loops(text):
        return compile_walk(parse_caterpillar(text)).loops

    down_right = frozenset(("down", "right"))
    assert loops("(down | right)* <δ>") == (down_right, None)
    assert loops("(right | down)* <δ> up")[0] == down_right
    # A label test riding the loop keeps the wave path.
    assert loops("(down | right | <δ>)* <σ>") == (None, None)
    assert loops("down <σ> down <δ>") == (None,) * 5


def test_chunk_steps_follow_plan_length_not_tree_depth():
    """A ``//σ//δ`` chunk spends the same budget steps on a 64-node
    chain as on a shallow 64-node tree: each structural op is one
    checkpoint, not one per saturation round."""
    shallow = parse_term(
        "σ(" + ", ".join("σ(δ, δ)" for _ in range(21)) + ")"
    )
    assert shallow.size == _chain(64).size == 64
    query = CorpusQuery("xpath", "//σ//δ")

    def steps(tree):
        result = run_batch([tree], [query], budget_steps=10**6)
        (chunk,) = result.chunks
        assert not chunk.fell_back and result.rows[0][0]
        return chunk.steps

    assert steps(_chain(64)) == steps(shallow) > 0


def test_lowering_is_partial_where_documented():
    # The all-pairs relation kind has no single-result register shape.
    assert compile_ir_plan("caterpillar-relation", "down <σ>") is None
    # Value atoms live outside the IR's label/structure vocabulary.
    assert (
        compile_ir_plan("ask", "exists x (val_a(x) = 1)")
        is None
    )


def test_ir_plans_are_cached_by_text_and_stats():
    first = compile_ir_plan("xpath", "//δ")
    assert compile_ir_plan("xpath", "//δ") is first
    stats = corpus_statistics(SEED_TREES[:3])
    informed = compile_ir_plan("xpath", "//δ", stats=stats)
    assert compile_ir_plan("xpath", "//δ", stats=stats) is informed
    assert informed is not first  # fingerprint joins the key


# -- statistics-informed join ordering ---------------------------------------


def _join_scan_labels(plan):
    """The label names of a plan's first Join over LabelScans, in
    execution order."""
    for op in plan.ops:
        if isinstance(op, Join):
            labels = [
                plan.ops[src].name
                for src in op.srcs
                if isinstance(plan.ops[src], LabelScan)
            ]
            if labels:
                return labels
    raise AssertionError("no Join over LabelScans in plan")


@pytest.mark.planner
def test_join_children_reorder_under_skewed_statistics():
    """``common & rare`` joins rare-first once the estimator knows the
    label histogram — and keeps syntactic order without statistics."""
    formula = parse_sentence("exists x (O_b(x) & O_a(x))")
    skewed = corpus_statistics(
        [parse_term("b(b, b, b(b, b), b, a)") for _ in range(3)]
    )
    uninformed = lower_sentence(formula)
    informed = lower_sentence(formula, stats=skewed)
    assert _join_scan_labels(uninformed) == ["b", "a"]  # syntactic
    assert _join_scan_labels(informed) == ["a", "b"]  # cheapest first


@pytest.mark.planner
def test_join_order_is_stable_under_uniform_statistics():
    formula = parse_sentence("exists x (O_b(x) & O_a(x))")
    uniform = corpus_statistics(
        [parse_term("b(a, b(a), a)") for _ in range(3)]
    )
    plan = lower_sentence(formula, stats=uniform)
    # Equal estimates tie-break on register order = syntactic order.
    assert _join_scan_labels(plan) == ["b", "a"]
