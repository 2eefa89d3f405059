"""Property battery for the planner's statistics and the wander-join
cardinality estimator (:mod:`repro.engine.stats`).

The load-bearing properties, pinned with Hypothesis on seeded random
trees and exactly on degenerate shapes (chains, stars, single-label
documents):

* unary counts are exact popcounts — never sampled;
* join estimates are **exact whenever the source population fits in
  the sample** (the wander join degenerates to full enumeration);
* estimates are deterministic under a seed — two estimators with the
  same seed and call sequence return identical numbers;
* fingerprints follow content: equal-content trees share one, any
  profile-visible change (relabel, growth) moves it, and the corpus
  fingerprint is order-sensitive.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.index import bit_count, index_for
from repro.engine.stats import (
    CardinalityEstimator,
    TreeStatistics,
    closure_reach_estimate,
    corpus_statistics,
    tree_statistics,
)
from repro.trees.generators import random_tree
from repro.trees.parser import parse_term

pytestmark = pytest.mark.planner

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=1, max_value=60)


def _tree(seed, size):
    return random_tree(
        size=size,
        alphabet=("σ", "δ"),
        max_children=3,
        seed=random.Random(seed),
        value_pool=(1, 2),
    )


def _descendant_pairs_exact(tree):
    nodes = tree.nodes
    return sum(
        1
        for u in nodes
        for v in nodes
        if v != u and v[: len(u)] == u
    )


def _chain(length):
    text = "σ"
    for _ in range(length - 1):
        text = f"σ({text})"
    return parse_term(text)


def _star(arms):
    return parse_term("σ(" + ", ".join(["δ"] * arms) + ")")


# -- exact unary statistics --------------------------------------------------


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_label_counts_are_exact_popcounts(seed, size):
    tree = _tree(seed, size)
    est = CardinalityEstimator(index_for(tree))
    for label in ("σ", "δ", "missing"):
        expected = sum(1 for u in tree.nodes if tree.label(u) == label)
        assert est.label_count(label) == expected
        assert bit_count(index_for(tree).labelled(label)) == expected


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_profile_statistics_match_definitions(seed, size):
    tree = _tree(seed, size)
    stats = tree_statistics(tree)
    nodes = tree.nodes
    assert stats.n == len(nodes)
    assert stats.height == max(len(u) for u in nodes)
    assert stats.leaf_count == sum(1 for u in nodes if not tree.children(u))
    # Σ|proper descendants| = Σ depth — the one-pass identity.
    assert stats.avg_subtree * stats.n == pytest.approx(
        _descendant_pairs_exact(tree)
    )
    assert stats.avg_subtree * stats.n == pytest.approx(
        sum(len(u) for u in nodes)
    )
    for label in ("σ", "δ"):
        expected = sum(1 for u in nodes if tree.label(u) == label)
        assert stats.label_fraction(label) == pytest.approx(
            expected / stats.n
        )


# -- exactness when the sample covers the population -------------------------


@given(seeds, st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_join_estimates_exact_when_sample_covers_population(seed, size):
    """With ``sample_size >= n`` the wander join enumerates every
    source, so the "estimate" must equal the brute-force pair count on
    *any* tree."""
    tree = _tree(seed, size)
    index = index_for(tree)
    est = CardinalityEstimator(index, seed=seed, sample_size=max(size, 1))
    assert est.descendant_pairs(
        index.all_mask, index.all_mask
    ) == _descendant_pairs_exact(tree)


@pytest.mark.parametrize("length", [1, 2, 7, 33, 64])
def test_chain_descendant_pairs_closed_form(length):
    """A chain of k nodes has exactly k(k-1)/2 descendant pairs, with
    no sampling variance while the population fits the default
    sample."""
    tree = _chain(length)
    index = index_for(tree)
    est = CardinalityEstimator(index, sample_size=64)
    assert est.descendant_pairs(index.all_mask, index.all_mask) == (
        length * (length - 1) // 2
    )
    stats = tree_statistics(tree)
    assert stats.avg_subtree == pytest.approx((length - 1) / 2)
    assert stats.label_fraction("σ") == 1.0  # single-label document


@pytest.mark.parametrize("arms", [1, 5, 64, 200])
def test_star_pairs_closed_form(arms):
    """A root with m leaf children: m descendant pairs, all rooted at
    the (population-1, hence exactly counted) root source."""
    tree = _star(arms)
    index = index_for(tree)
    est = CardinalityEstimator(index, sample_size=8)
    root_mask = index.all_mask & ~index.labelled("δ")
    assert est.descendant_pairs(root_mask, index.all_mask) == arms
    assert est.label_count("δ") == arms


# -- sampled estimates stay sane and deterministic ---------------------------


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_undersampled_estimates_are_bounded_and_deterministic(seed):
    """With a tiny sample the estimate may wobble, but it can never
    leave [0, n * (n-1)] (each sampled source contributes at most its
    proper-subtree size, counted exactly) and must be bit-identical
    under the same seed."""
    tree = _tree(seed, 120)
    index = index_for(tree)
    stats = tree_statistics(tree)
    a = CardinalityEstimator(index, seed=seed, sample_size=4)
    b = CardinalityEstimator(index, seed=seed, sample_size=4)
    exact_bound = stats.n * (stats.n - 1)
    for est in (a, b):
        pairs = est.descendant_pairs(index.all_mask, index.all_mask)
        assert 0 <= pairs <= exact_bound
    assert a.descendant_pairs(
        index.all_mask, index.all_mask
    ) == b.descendant_pairs(index.all_mask, index.all_mask)


def test_sample_size_must_be_positive():
    tree = _chain(3)
    with pytest.raises(ValueError):
        CardinalityEstimator(index_for(tree), sample_size=0)


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_follows_content_not_identity():
    left = parse_term("σ(δ, σ(δ))")
    right = parse_term("σ(δ, σ(δ))")
    assert left is not right
    assert tree_statistics(left).fingerprint == tree_statistics(
        right
    ).fingerprint
    relabelled = parse_term("σ(δ, σ(σ))")
    assert (
        tree_statistics(relabelled).fingerprint
        != tree_statistics(left).fingerprint
    )


@given(seeds, sizes)
@settings(max_examples=40, deadline=None)
def test_fingerprint_is_pure_and_cached(seed, size):
    tree = _tree(seed, size)
    once = tree_statistics(tree)
    again = tree_statistics(tree)
    assert once is again  # id-keyed cache hit
    assert once == TreeStatistics.from_tree(tree)


def test_corpus_fingerprint_is_order_sensitive():
    a, b = parse_term("σ(δ)"), parse_term("δ(σ, σ)")
    forward = corpus_statistics([a, b])
    backward = corpus_statistics([b, a])
    assert forward.fingerprint != backward.fingerprint
    assert forward.total_nodes == backward.total_nodes == 5
    grown = corpus_statistics([a, b, parse_term("σ")])
    assert grown.fingerprint != forward.fingerprint


# -- closure reachability (caterpillar-style direction stars) -----------------


_DIRECTION_SETS = [
    frozenset(c)
    for r in range(1, 5)
    for c in __import__("itertools").combinations(
        ("up", "down", "left", "right"), r
    )
]


@pytest.mark.parametrize("length", [1, 2, 7, 33])
def test_chain_closure_closed_forms(length):
    """On a k-chain the profile estimate of the spine closures stays
    within the spine, from height and mean depth alone."""
    stats = tree_statistics(_chain(length))
    # down* on a chain is the worst case for the height/2 heuristic,
    # but it must stay within the spine bound.
    assert 1.0 <= closure_reach_estimate(stats, {"down"}) <= length
    # up* expected length is the mean depth + 1 — exact on any tree.
    assert closure_reach_estimate(stats, {"up"}) == pytest.approx(
        stats.avg_subtree + 1.0
    )


@given(seeds, sizes)
@settings(max_examples=40, deadline=None)
def test_closure_reach_estimate_is_bounded(seed, size):
    """The profile estimate always lands in [1, n] — it is a mean image
    size, never a pair count."""
    stats = tree_statistics(_tree(seed, size))
    for dirs in _DIRECTION_SETS:
        estimate = closure_reach_estimate(stats, dirs)
        assert 1.0 <= estimate <= stats.n
    assert closure_reach_estimate(stats, ()) == 1.0
