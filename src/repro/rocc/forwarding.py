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

