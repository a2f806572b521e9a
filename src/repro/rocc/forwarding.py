"""Forwarding topologies: direct and binary-tree (Figure 4).

Under **direct** forwarding every daemon sends straight to the main
Paradyn process.  Under **binary-tree** forwarding the nodes are
logically arranged as a binary heap: node *i*'s parent is
``(i - 1) // 2``; node 0's daemon forwards to the main process, and
every non-leaf daemon receives, merges, and relays its children's
batches (§2.1, §3.3).
"""

from __future__ import annotations

from typing import List

__all__ = [
    "parent_index",
    "children_indices",
    "is_leaf",
    "tree_depth",
    "expected_hops",
]


def parent_index(i: int) -> int:
    """Heap parent of node *i* (node 0 forwards to the main process)."""
    if i <= 0:
        raise ValueError("node 0 has no parent daemon (it sends to Paradyn)")
    return (i - 1) // 2


def children_indices(i: int, n: int) -> List[int]:
    """Heap children of node *i* that exist in an *n*-node system."""
    if i < 0 or i >= n:
        raise ValueError(f"node {i} outside system of {n} nodes")
    return [c for c in (2 * i + 1, 2 * i + 2) if c < n]


def is_leaf(i: int, n: int) -> bool:
    """Whether node *i* has no children in an *n*-node system."""
    return 2 * i + 1 >= n


def tree_depth(n: int) -> int:
    """Depth of the binary tree over *n* nodes (root at depth 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    depth, span = 0, 1
    total = 1
    while total < n:
        depth += 1
        span *= 2
        total += span
    return depth


def expected_hops(n: int) -> float:
    """Mean number of relay hops a node-local batch takes to the root.

    Node *i* at heap depth d(i) is relayed d(i) times before node 0's
    link to the main process; used to sanity-check tree latency.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for i in range(n):
        d = 0
        j = i
        while j > 0:
            j = (j - 1) // 2
            d += 1
        total += d
    return total / n
