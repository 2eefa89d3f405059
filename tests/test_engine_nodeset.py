"""Property battery for the shared node-set kernel
(:mod:`repro.engine.nodeset`).

Everything downstream — the walking engine, the plan IR, the stacked
shard executor — leans on a handful of algebraic identities of these
primitives.  This battery pins them down with Hypothesis directly on
random bit patterns and random partial injections, independently of any
tree:

* ``iter_bits``/``bit_count``/``pick_bits`` agree with the naive binary
  expansion;
* a shift-decomposed move equals the naive per-edge image, and
  decomposition round-trips through application edge by edge;
* interval masks are exactly the half-open id ranges they claim;
* lane stacking is lossless (``split ∘ stack = id``), lane widths are
  powers of two large enough for their trees, and the SWAR broadcast
  maps "lane non-empty" to "lane full" without ever leaking bits
  across lanes.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.nodeset import (
    apply_atom,
    apply_shift_groups,
    bit_count,
    broadcast_lanes,
    interval_mask,
    iter_bits,
    lane_tiler,
    lane_width_for,
    pick_bits,
    shift_groups,
    split_lanes,
    stack_masks,
)

bitsets = st.integers(min_value=0, max_value=2**96 - 1)
small = st.integers(min_value=0, max_value=63)


# -- bit iteration / popcount -------------------------------------------------


@given(bitsets)
@settings(max_examples=100, deadline=None)
def test_iter_bits_matches_binary_expansion(bits):
    expected = [i for i in range(bits.bit_length()) if bits >> i & 1]
    assert list(iter_bits(bits)) == expected
    assert bit_count(bits) == len(expected)
    assert bit_count(bits) == bin(bits).count("1")
    table = [(i,) for i in range(96)]
    assert pick_bits(table, bits) == tuple(table[i] for i in expected)


def test_iter_bits_ascending_is_document_order():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b1010011)) == [0, 1, 4, 6]
    assert pick_bits("abcdefg", 0b1010011) == ("a", "b", "e", "g")
    assert pick_bits("abc", 0) == ()


# -- shift decomposition ------------------------------------------------------


@st.composite
def partial_injections(draw):
    """A partial injective map on [0, 64) as an edge list — the shape of
    every move graph (parent, sibling, first-child links)."""
    n = draw(st.integers(min_value=1, max_value=64))
    sources = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            unique=True,
            max_size=n,
        )
    )
    targets = draw(
        st.permutations(list(range(n))).map(lambda p: p[: len(sources)])
    )
    return n, list(zip(sources, targets))


@given(partial_injections(), bitsets)
@settings(max_examples=100, deadline=None)
def test_shift_groups_equal_naive_edge_image(edges_spec, frontier_bits):
    n, edges = edges_spec
    frontier = frontier_bits & ((1 << n) - 1)
    groups = shift_groups(edges)
    expected = 0
    for source, target in edges:
        if frontier >> source & 1:
            expected |= 1 << target
    assert apply_shift_groups(groups, frontier) == expected
    # apply_atom with groups behaves identically; with None it is the
    # test-mask intersection instead.
    assert apply_atom(groups, 0, frontier) == expected
    assert apply_atom(None, frontier, (1 << n) - 1) == frontier


@given(partial_injections())
@settings(max_examples=60, deadline=None)
def test_shift_groups_partition_sources(edges_spec):
    """Every source lands in exactly one group, with the shift equal to
    its target distance — the decomposition loses nothing."""
    _, edges = edges_spec
    groups = shift_groups(edges)
    seen = 0
    for shift, mask in groups:
        assert mask  # no empty buckets
        assert not (seen & mask)  # disjoint
        seen |= mask
        for source in iter_bits(mask):
            assert (source, source + shift) in edges
    assert bit_count(seen) == len(edges)


# -- intervals ----------------------------------------------------------------


@given(small, small)
@settings(max_examples=100, deadline=None)
def test_interval_mask_is_half_open_range(a, b):
    start, stop = min(a, b), max(a, b)
    mask = interval_mask(start, stop)
    assert list(iter_bits(mask)) == list(range(start, stop))
    assert interval_mask(start, start) == 0


# -- lane stacking ------------------------------------------------------------


@given(st.integers(min_value=1, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_lane_width_is_smallest_sufficient_power_of_two(n):
    width = lane_width_for(n)
    assert width >= n
    assert width & (width - 1) == 0  # power of two
    assert width == 1 or width // 2 < n  # smallest such


@given(
    st.lists(
        st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=12
    )
)
@settings(max_examples=100, deadline=None)
def test_stack_then_split_roundtrips(masks):
    width = lane_width_for(16)
    packed = stack_masks(masks, width)
    assert split_lanes(packed, width, len(masks)) == masks
    # Popcount distributes over lanes.
    assert bit_count(packed) == sum(bit_count(m) for m in masks)


@given(
    st.lists(
        st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=12
    )
)
@settings(max_examples=100, deadline=None)
def test_broadcast_maps_nonempty_lanes_to_full(masks):
    """The SWAR OR-fold turns each non-empty lane into an all-ones lane
    and leaves empty lanes empty — no cross-lane leakage, the property
    the power-of-two padding exists for."""
    width = lane_width_for(16)
    packed = stack_masks(masks, width)
    spread = broadcast_lanes(packed, width, len(masks))
    full = (1 << width) - 1
    assert split_lanes(spread, width, len(masks)) == [
        full if m else 0 for m in masks
    ]


def test_broadcast_requires_power_of_two_width():
    with pytest.raises(ValueError):
        broadcast_lanes(1, 48, 2)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_lane_tiler_places_one_bit_per_lane(width, lanes):
    tiler = lane_tiler(width, lanes)
    assert list(iter_bits(tiler)) == [lane * width for lane in range(lanes)]
    assert lane_tiler(width, 0) == 0
