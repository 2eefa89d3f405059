"""The compiled walking engine (:mod:`repro.engine.walk`) agrees with
the reference caterpillar NFA, and its building blocks — the index's
shift-decomposed move graphs and the ε-closed compiled edge tables —
behave as documented.

These complement the ``caterpillar/fast-caterpillar`` and
``ntwa/fast-caterpillar`` oracle pairs: the oracle fuzzes broadly with
shrinking and corpus persistence; these run on every test invocation
and pin the agreement into tier 1.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.caterpillar import nfa as reference
from repro.caterpillar.parser import parse_caterpillar
from repro.engine import walk as fast
from repro.engine.index import index_for, iter_bits
from repro.engine.ir import evaluate_tree, lower_caterpillar
from repro.engine.nodeset import apply_shift_groups
from repro.oracle import generators as gen
from repro.trees import parse_term

seeds = st.integers(min_value=0, max_value=10_000)


# ---------------------------------------------------------------------------
# hypothesis differential: reference NFA vs compiled product graph
# ---------------------------------------------------------------------------


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_fast_walk_matches_reference(seed):
    """Per-context walks: identical answer node tuples."""
    rng = random.Random(seed)
    tree = gen.random_attributed_tree(rng, 10)
    expr = gen.random_caterpillar(rng, budget=rng.randint(2, 8))
    context = gen.random_context(rng, tree)
    assert fast.walk(expr, tree, context) == tuple(
        reference.walk(expr, tree, context)
    )


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_fast_relation_matches_reference(seed):
    """Full walk relations: the stacked all-pairs BFS agrees with the
    reference relation (which itself walks once per context)."""
    rng = random.Random(seed)
    tree = gen.random_attributed_tree(rng, 9)
    expr = gen.random_caterpillar(rng, budget=rng.randint(2, 7))
    assert fast.relation(expr, tree) == reference.relation(expr, tree)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_all_pairs_consistent_with_per_context(seed):
    """The stacked evaluation is just n per-context evaluations at once:
    slicing the all-pairs relation at a context must equal walking it."""
    rng = random.Random(seed)
    tree = gen.random_attributed_tree(rng, 9)
    expr = gen.random_caterpillar(rng, budget=rng.randint(2, 7))
    pairs = fast.relation(expr, tree)
    for context in tree.nodes:
        expected = {v for u, v in pairs if u == context}
        assert set(fast.walk(expr, tree, context)) == expected


# ---------------------------------------------------------------------------
# move-graph arrays
# ---------------------------------------------------------------------------


@pytest.fixture
def index(sigma_delta_tree):
    return index_for(sigma_delta_tree)


def _bits_to_nodes(index, bits):
    return {index.node_of[i] for i in iter_bits(bits)}


def _move(index, direction, bits):
    """Image of ``bits`` under one move, as every engine applies it."""
    return apply_shift_groups(index.move_groups[direction], bits)


def test_move_groups_down_is_one_preorder_shift(index):
    """First children sit at preorder id + 1, so DOWN to first children
    is a single shift group over the non-leaf mask."""
    groups = index.move_groups["down"]
    assert len(groups) == 1
    shift, mask = groups[0]
    assert shift == 1
    assert mask == index.all_mask & ~index.leaf_mask


def test_move_masks_match_tree_structure(index):
    root_bit = 1 << index.id_of[()]
    # DOWN is the caterpillar move: first child only (down right* spans all).
    assert _bits_to_nodes(index, _move(index, "down", root_bit)) == {(0,)}
    child_bit = 1 << index.id_of[(0,)]
    assert _bits_to_nodes(index, _move(index, "up", child_bit)) == {()}
    assert _bits_to_nodes(index, _move(index, "right", child_bit)) == {(1,)}
    assert _bits_to_nodes(index, _move(index, "left", child_bit)) == set()
    assert _move(index, "up", root_bit) == 0


def test_move_groups_shifts_agree_with_parent_map(index):
    """Every (shift, mask) group moves each masked source to exactly
    the node the tree relation says it should reach."""
    for direction in ("up", "down", "left", "right"):
        for u, node in enumerate(index.node_of):
            image = _move(index, direction, 1 << u)
            neighbours = _bits_to_nodes(index, image)
            if direction == "up":
                expected = {node[:-1]} if node else set()
            elif direction == "down":
                expected = {node + (0,)} if index.children_of(u) else set()
            elif direction == "right":
                sib = node[:-1] + (node[-1] + 1,) if node else None
                expected = {sib} if sib in index.id_of else set()
            else:  # left
                sib = (
                    node[:-1] + (node[-1] - 1,)
                    if node and node[-1] > 0
                    else None
                )
                expected = {sib} if sib is not None else set()
            assert neighbours == expected, (direction, node)


def test_position_masks(index):
    assert _bits_to_nodes(index, index.root_mask) == {()}
    leaves = _bits_to_nodes(index, index.leaf_mask)
    assert leaves == {(0, 0), (0, 1), (1, 0)}
    firsts = _bits_to_nodes(index, index.first_mask)
    assert firsts == {(0,), (0, 0), (1, 0)}  # first siblings; root is not


# ---------------------------------------------------------------------------
# compiled edge tables
# ---------------------------------------------------------------------------


def test_compiled_walk_collapses_star_plumbing():
    """``(down | right)*`` is behaviourally a single accepting state
    with two move self-loops; compilation must find that."""
    compiled = fast.compile_walk(parse_caterpillar("(down | right)*"))
    assert compiled.state_count == 1
    assert compiled.start == 0
    assert compiled.accepting == (0,)
    atoms = {atom for atom, _ in compiled.edges[0]}
    assert atoms == {("move", "down"), ("move", "right")}
    assert all(targets == (0,) for _, targets in compiled.edges[0])


def test_compiled_walk_epsilon_closure_folds_sequencing():
    """In ``down isLeaf`` the ε-glue between the two atoms disappears:
    the start state steps on DOWN into a state whose only edge is the
    leaf test into the accepting state."""
    compiled = fast.compile_walk(parse_caterpillar("down isLeaf"))
    assert compiled.start == 0
    assert 0 not in compiled.accepting  # must actually move first
    (atom, targets) = compiled.edges[0][0]
    assert atom == ("move", "down")
    (mid,) = targets
    test_edges = dict(compiled.edges[mid])
    (target,) = test_edges[("test", "isLeaf")]
    assert target in compiled.accepting


def test_compiled_walk_label_atoms():
    compiled = fast.compile_walk(parse_caterpillar("<σ> down"))
    atoms = [atom for state_edges in compiled.edges for atom, _ in state_edges]
    assert ("label", "σ") in atoms
    assert ("move", "down") in atoms


def test_walk_plan_marks_answers_from_any_context(sigma_delta_tree):
    """A walk's per-tree plan is one ``Closure`` op seeded at the
    context node; its result bitset marks the nodes the walk reaches."""
    expr = parse_caterpillar("(down | right)* isLeaf")
    plan = lower_caterpillar(fast.compile_walk(expr), anchor="context")
    assert [type(op).__name__ for op in plan.ops] == ["ConstScan", "Closure"]
    assert plan.ops[0].kind == "context"
    index = index_for(sigma_delta_tree)
    answers = _bits_to_nodes(index, evaluate_tree(plan, index))
    assert answers == {(0, 0), (0, 1), (1, 0)}
    from_first = evaluate_tree(plan, index, index.id_of[(0,)])
    assert _bits_to_nodes(index, from_first) == {(0, 0), (0, 1), (1, 0)}
    from_last = evaluate_tree(plan, index, index.id_of[(1,)])
    assert _bits_to_nodes(index, from_last) == {(1, 0)}


# ---------------------------------------------------------------------------
# the compile cache
# ---------------------------------------------------------------------------


def test_compile_cache_reuses_compiled_form():
    fast.compile_cache_clear()
    expr = parse_caterpillar("(up | down)* isRoot")
    first = fast.compile_walk(expr)
    again = fast.compile_walk(parse_caterpillar("(up | down)* isRoot"))
    assert first is again
    hits, misses, maxsize, currsize = fast.compile_cache_info()
    assert (hits, misses) == (1, 1)
    assert currsize == 1 and maxsize >= currsize
    fast.compile_cache_clear()
    assert fast.compile_cache_info() == (0, 0, maxsize, 0)


def test_evaluator_cache_reuses_bound_tables(sigma_delta_tree):
    fast.compile_cache_clear()
    expr = parse_caterpillar("(down | right)*")
    first = fast.evaluator_for(expr, sigma_delta_tree)
    again = fast.evaluator_for(expr, sigma_delta_tree)
    assert first is again
    other = fast.evaluator_for(expr, parse_term("a(b)"))
    assert other is not first


# ---------------------------------------------------------------------------
# fixed end-to-end cases (no randomness, readable answers)
# ---------------------------------------------------------------------------


def test_walk_next_leaf_caterpillar(sigma_delta_tree):
    """The paper's next-leaf caterpillar, from the first leaf."""
    expr = parse_caterpillar(
        "isLeaf (up isLast)* (up right | right) (down isFirst)* isLeaf"
    )
    # From (0, 0) the `up right` alternative also jumps a level, so the
    # answer set holds both following leaves; from the last leaf, none.
    assert fast.walk(expr, sigma_delta_tree, (0, 0)) == ((0, 1), (1, 0))
    assert fast.walk(expr, sigma_delta_tree, (0, 1)) == ((1, 0),)
    assert fast.walk(expr, sigma_delta_tree, (1, 0)) == ()


def test_relation_reaches_all_from_everywhere(sigma_delta_tree):
    expr = parse_caterpillar("(up | down | left | right)*")
    nodes = set(sigma_delta_tree.nodes)
    assert fast.relation(expr, sigma_delta_tree) == frozenset(
        (u, v) for u in nodes for v in nodes
    )


def test_matches(sigma_delta_tree):
    assert fast.matches(
        parse_caterpillar("(down | right)* <δ>"), sigma_delta_tree
    )
    assert not fast.matches(parse_caterpillar("up"), sigma_delta_tree)
