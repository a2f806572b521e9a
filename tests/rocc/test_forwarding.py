"""Tests for the binary-tree forwarding topology helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rocc import children_indices, parent_index


def test_parent_of_root_rejected():
    with pytest.raises(ValueError):
        parent_index(0)


def test_parent_child_relation_small_tree():
    assert parent_index(1) == 0
    assert parent_index(2) == 0
    assert parent_index(3) == 1
    assert parent_index(4) == 1
    assert parent_index(5) == 2


def test_children_indices():
    assert children_indices(0, 7) == [1, 2]
    assert children_indices(2, 7) == [5, 6]
    assert children_indices(3, 7) == []
    assert children_indices(1, 4) == [3]


def test_children_bounds_checked():
    with pytest.raises(ValueError):
        children_indices(7, 7)
    with pytest.raises(ValueError):
        children_indices(-1, 7)


@given(st.integers(min_value=1, max_value=500))
def test_parent_child_consistency(n):
    """Every non-root node is a child of its parent, and depth(child) =
    depth(parent) + 1."""
    for i in range(1, n):
        p = parent_index(i)
        assert 0 <= p < i
        assert i in children_indices(p, n)


@given(st.integers(min_value=2, max_value=500))
def test_every_node_reaches_root(n):
    for i in range(n):
        j = i
        hops = 0
        while j > 0:
            j = parent_index(j)
            hops += 1
            assert hops <= (n - 1).bit_length()
        # Node i sits at heap depth floor(log2(i + 1)).
        assert hops == (i + 1).bit_length() - 1
