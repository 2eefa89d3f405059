"""Unit tests for :mod:`repro.engine.index` — interval labels,
navigation arrays, inverted indexes and the bitset helpers."""

from tests.conftest import tree_family
from repro.engine.index import TreeIndex, bit_count, index_for, iter_bits
from repro.trees import format_term, parse_term
from repro.trees.values import BOTTOM


def test_iter_bits_ascending_and_bit_count():
    bits = (1 << 0) | (1 << 3) | (1 << 17)
    assert list(iter_bits(bits)) == [0, 3, 17]
    assert bit_count(bits) == 3
    assert list(iter_bits(0)) == []
    assert bit_count(0) == 0


def test_ids_are_document_order(sigma_delta_tree):
    idx = TreeIndex(sigma_delta_tree)
    assert idx.node_of == sigma_delta_tree.nodes
    for i, u in enumerate(sigma_delta_tree.nodes):
        assert idx.id_of[u] == i
        assert sigma_delta_tree.document_index(u) == i
    assert idx.to_nodes(idx.all_mask) == sigma_delta_tree.nodes


def test_descendant_interval_containment_matches_tree():
    for tree in tree_family():
        idx = TreeIndex(tree)
        for u in tree.nodes:
            for v in tree.nodes:
                assert idx.descendant(idx.id_of[u], idx.id_of[v]) == \
                    tree.descendant(u, v)


def test_pre_post_numbering_is_the_classic_descendant_test():
    # u ≺ v  ⇔  pre(u) < pre(v) and post(v) < post(u)
    for tree in tree_family(count=6):
        idx = TreeIndex(tree)
        post = [0] * idx.n
        for rank, u in enumerate(tree.nodes_postorder):
            post[idx.id_of[u]] = rank
        for i in range(idx.n):
            for j in range(idx.n):
                classic = i < j and post[j] < post[i]
                assert idx.descendant(i, j) == classic


def test_navigation_arrays_match_tree():
    for tree in tree_family(count=8):
        idx = TreeIndex(tree)
        for u in tree.nodes:
            i = idx.id_of[u]
            kids = [idx.node_of[j] for j in idx.children_of(i)]
            assert tuple(kids) == tree.children(u)
            assert idx.to_nodes(idx.children_mask[i]) == tree.children(u)
            if u == ():
                assert idx.parent[i] == -1
            else:
                assert idx.node_of[idx.parent[i]] == tree.parent(u)


def test_sibling_links(sigma_delta_tree):
    idx = TreeIndex(sigma_delta_tree)
    for u in sigma_delta_tree.nodes:
        i = idx.id_of[u]
        right = sigma_delta_tree.right_sibling(u)
        if right is None:
            assert idx.next_sibling[i] == -1
        else:
            assert idx.node_of[idx.next_sibling[i]] == right
            assert idx.prev_sibling[idx.id_of[right]] == i


def test_unary_masks(sigma_delta_tree):
    idx = TreeIndex(sigma_delta_tree)
    tree = sigma_delta_tree
    assert idx.to_nodes(idx.root_mask) == ((),)
    assert idx.to_nodes(idx.leaf_mask) == tuple(
        u for u in tree.nodes if tree.is_leaf(u)
    )
    assert idx.to_nodes(idx.first_mask) == tuple(
        u for u in tree.nodes if tree.is_first_child(u)
    )
    assert idx.to_nodes(idx.last_mask) == tuple(
        u for u in tree.nodes if tree.is_last_child(u)
    )


def test_inverted_indexes(sigma_delta_tree):
    idx = TreeIndex(sigma_delta_tree)
    tree = sigma_delta_tree
    for label in ("σ", "δ"):
        assert idx.to_nodes(idx.labelled(label)) == tuple(
            u for u in tree.nodes if tree.label(u) == label
        )
    assert idx.labelled("missing") == 0
    for value in (1, 2, 3, 4, 5):
        assert idx.to_nodes(idx.valued("a", value)) == tuple(
            u for u in tree.nodes if tree.val("a", u) == value
        )
    assert idx.valued("a", 99) == 0
    assert idx.valued("nope", 1) == 0


def test_value_mask_totalizes_with_bottom():
    tree = parse_term("σ[a=1](δ, σ[a=1])")
    idx = TreeIndex(tree)
    assert idx.to_nodes(idx.valued("a", BOTTOM)) == ((0,),)
    assert bit_count(idx.valued("a", 1)) == 2


def test_subtree_mask_is_proper_descendant_range(sigma_delta_tree):
    idx = TreeIndex(sigma_delta_tree)
    for u in sigma_delta_tree.nodes:
        i = idx.id_of[u]
        assert idx.to_nodes(idx.subtree_mask(i)) == \
            sigma_delta_tree.descendants(u)


def test_descendants_mask_merges_overlapping_subtrees(sigma_delta_tree):
    idx = TreeIndex(sigma_delta_tree)
    # Root plus an inner node: the inner subtree is swallowed by the
    # root's interval, so the merged result is just "everything below
    # the root".
    sources = idx.root_mask | (1 << idx.id_of[(0,)])
    assert idx.descendants_mask(sources) == idx.subtree_mask(0)
    # Disjoint subtrees union cleanly.
    a, b = idx.id_of[(0,)], idx.id_of[(1,)]
    assert idx.descendants_mask((1 << a) | (1 << b)) == \
        idx.subtree_mask(a) | idx.subtree_mask(b)


def test_children_of_mask(sigma_delta_tree):
    idx = TreeIndex(sigma_delta_tree)
    sources = idx.root_mask | (1 << idx.id_of[(0,)])
    expected = set(sigma_delta_tree.children(())) | set(
        sigma_delta_tree.children((0,))
    )
    assert set(idx.to_nodes(idx.children_of_mask(sources))) == expected


def test_index_for_caches_per_tree_object(sigma_delta_tree, small_tree):
    first = index_for(sigma_delta_tree)
    assert index_for(sigma_delta_tree) is first
    assert index_for(small_tree) is not first
    # An equal but distinct tree object gets its own index.
    clone = parse_term(format_term(sigma_delta_tree))
    assert clone == sigma_delta_tree
    assert index_for(clone) is not first
