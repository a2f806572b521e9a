"""Topology partitioning for the parallel in-cell kernel.

:func:`partition_topology` splits one :class:`SimulationConfig` topology
into ``k`` *logical processes* (LPs): contiguous node ranges, each run
as an independent kernel instance, plus one extra LP for the main
Paradyn process (and its host workstation).  Edges of the ROCC
forwarding graph that connect nodes in different LPs — daemon uplinks
to the main process, and child→parent hops under tree forwarding —
become :class:`CutEdge` records carrying *lookahead*: a conservative
lower bound on the link's forwarding latency, derived from the
``support_min`` of the workload's network-cost distribution.  Pipes are
never cut: an application's sample pipe and its draining daemon always
share a node, so the only latency on a cut edge is the network hop.

Contiguous ranges make the LP graph **acyclic**: under tree forwarding
``parent_index(i) < i``, so every cut edge points from a
higher-indexed LP to a lower-indexed one (and every LP forwards to the
main LP).  A feed-forward DAG needs no deadlock avoidance — even with
zero lookahead (the paper's exponential network costs have support
infimum 0), horizon messages alone guarantee progress.

:func:`parallel_ineligibility` is the execution gate: configurations
whose dynamics couple nodes globally (a shared FIFO network, barriers,
adaptive regulation, SMP CPU pooling) fall back to the
sequential kernel.  The partitioner itself handles any NOW/MPP
topology, including tree forwarding; the executor currently runs only
direct (flat) forwarding in parallel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import inf
from typing import List, Optional, Tuple

from .config import (
    Architecture,
    ForwardingTopology,
    NetworkMode,
    SimulationConfig,
)
from .forwarding import parent_index
from .network import ContentionFreeNetwork

__all__ = [
    "MAIN_NODE",
    "CutEdge",
    "PartitionPlan",
    "LPRole",
    "RemoteSink",
    "LPBoundaryNetwork",
    "partition_topology",
    "parallel_ineligibility",
    "lp_workers_from_env",
]

#: Pseudo node id of the main Paradyn process (its host workstation).
MAIN_NODE = -1


@dataclass(frozen=True)
class CutEdge:
    """One forwarding edge crossing an LP boundary."""

    src_node: int
    dst_node: int  #: receiving node, or :data:`MAIN_NODE`
    src_lp: int
    dst_lp: int
    #: Conservative lower bound on the edge's forwarding latency, µs:
    #: a batch sent at time *t* cannot be delivered before
    #: ``t + lookahead``.
    lookahead: float


@dataclass(frozen=True)
class PartitionPlan:
    """K contiguous node LPs plus the main LP, with their cut edges."""

    nodes: int
    lp_count: int  #: number of *node* LPs (the main LP is one more)
    ranges: Tuple[Tuple[int, int], ...]  #: LP i owns nodes ``[lo, hi)``
    cut_edges: Tuple[CutEdge, ...]

    @property
    def main_lp(self) -> int:
        """Index of the LP running the main Paradyn process."""
        return self.lp_count

    def lp_of(self, node: int) -> int:
        """The LP owning *node* (:data:`MAIN_NODE` maps to the main LP)."""
        if node == MAIN_NODE:
            return self.main_lp
        for lp, (lo, hi) in enumerate(self.ranges):
            if lo <= node < hi:
                return lp
        raise ValueError(f"node {node} outside topology of {self.nodes}")

    def lookahead_into(self, lp: int) -> dict:
        """Per-source-LP lookahead of the cut edges entering *lp*.

        When several edges share a source LP, the safe bound is set by
        the *smallest* lookahead among them.
        """
        out: dict = {}
        for e in self.cut_edges:
            if e.dst_lp == lp:
                cur = out.get(e.src_lp)
                if cur is None or e.lookahead < cur:
                    out[e.src_lp] = e.lookahead
        return out

    @property
    def min_lookahead(self) -> float:
        """Smallest cut-edge lookahead (``inf`` with no cut edges)."""
        return min((e.lookahead for e in self.cut_edges), default=inf)


@dataclass
class LPRole:
    """What one kernel instance simulates in a partitioned run.

    Handed to :class:`~repro.rocc.system.ParadynISSystem` to build a
    *subset* of the topology: the nodes in ``[node_lo, node_hi)`` and,
    for the main LP, the host workstation with the main process.
    Stream names and metric node ids stay *global*, which is what makes
    per-node variate draws bit-identical to the sequential kernel.
    """

    lp_index: int
    node_lo: int
    node_hi: int
    include_main: bool
    plan: PartitionPlan
    #: Cut-edge sends recorded by :class:`LPBoundaryNetwork`:
    #: ``(deliver_at, dst_lp, dst_node, payload, seq)``.
    outbox: List[tuple] = field(default_factory=list)

    @property
    def node_ids(self) -> range:
        return range(self.node_lo, self.node_hi)


class RemoteSink:
    """Marker delivery target for a cut edge.

    Wherever the sequential builder would wire a deliver callback into
    another LP's territory, the partitioned builder wires a
    ``RemoteSink`` naming the remote destination instead.
    :class:`LPBoundaryNetwork` recognises it at ``transfer()`` time and
    records the delivery into the LP outbox; the sink itself is never
    invoked.
    """

    __slots__ = ("dst_lp", "dst_node")

    def __init__(self, dst_lp: int, dst_node: int = MAIN_NODE):
        self.dst_lp = dst_lp
        self.dst_node = dst_node

    def __call__(self, payload) -> None:  # pragma: no cover - guard
        raise RuntimeError(
            "cut-edge delivery must be intercepted at send time by "
            "LPBoundaryNetwork, not invoked"
        )


class LPBoundaryNetwork(ContentionFreeNetwork):
    """Contention-free network that exports cut-edge sends at *send* time.

    Recording at send time — not completion time — is what makes the
    conservative window protocol sound.  Under the contention-free
    model the completion time ``now + amount`` is known the moment
    ``transfer()`` is called, so the delivery can be emitted
    immediately with its final timestamp.  Were deliveries emitted at
    completion instead, a transfer sent at ``h - lookahead + ε`` would
    still be in flight when the LP reports horizon ``h`` and would
    later complete at ``h + ε`` — *inside* the receiver's supposedly
    safe window ``(h, h + lookahead]``.  With send-time recording,
    every delivery not yet reported at horizon ``h`` has send time
    ``> h`` and therefore delivery time ``> h + lookahead``, which is
    exactly the bound the receiver advances on.

    The underlying transfer still runs locally with ``deliver=None``,
    so sender blocking, occupancy accounting, and ``in_flight`` match
    the sequential kernel exactly.
    """

    def __init__(self, env, outbox: List[tuple], name: str = "cf-net"):
        super().__init__(env, name=name)
        self._outbox = outbox

    def transfer(self, amount, owner, payload=None, deliver=None):
        if type(deliver) is RemoteSink:
            outbox = self._outbox
            outbox.append((
                self.env.now + (float(amount) if amount > 0.0 else 0.0),
                deliver.dst_lp,
                deliver.dst_node,
                payload,
                len(outbox),
            ))
            deliver = None
        return super().transfer(amount, owner, payload, deliver)


def _edge_lookahead(config: SimulationConfig) -> float:
    """Lower bound on one daemon uplink's network cost, µs.

    The daemon's forwarding cost is ``pd_network() + per_sample_network
    · (n−1)`` with ``n ≥ 1`` samples per batch, so the distribution's
    support infimum bounds every possible draw.  Clamped at zero:
    lookahead may be loose, never optimistic.
    """
    return max(0.0, config.workload.pd_network.support_min)


def partition_topology(config: SimulationConfig, k: int) -> PartitionPlan:
    """Split *config*'s topology into *k* node LPs plus the main LP.

    Nodes are assigned as contiguous, maximally balanced ranges (the
    first ``nodes % k`` LPs take one extra node); *k* is clamped to the
    node count so no LP is empty.  Every forwarding edge whose
    endpoints land in different LPs becomes a :class:`CutEdge` with
    conservative lookahead (see :func:`_edge_lookahead`).
    """
    if k < 1:
        raise ValueError(f"lp count must be >= 1, got {k}")
    nodes = config.nodes
    k = min(k, nodes)
    base, extra = divmod(nodes, k)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for lp in range(k):
        hi = lo + base + (1 if lp < extra else 0)
        ranges.append((lo, hi))
        lo = hi

    def lp_of(node: int) -> int:
        for lp, (rlo, rhi) in enumerate(ranges):
            if rlo <= node < rhi:
                return lp
        return k  # MAIN_NODE

    tree = config.forwarding is ForwardingTopology.TREE
    la = _edge_lookahead(config)
    edges: List[CutEdge] = []
    for i in range(nodes):
        dst = parent_index(i) if tree and i > 0 else MAIN_NODE
        src_lp = lp_of(i)
        dst_lp = k if dst == MAIN_NODE else lp_of(dst)
        if src_lp != dst_lp:
            edges.append(CutEdge(
                src_node=i, dst_node=dst,
                src_lp=src_lp, dst_lp=dst_lp, lookahead=la,
            ))
    return PartitionPlan(
        nodes=nodes, lp_count=k,
        ranges=tuple(ranges), cut_edges=tuple(edges),
    )


def parallel_ineligibility(config: SimulationConfig) -> Optional[str]:
    """Why *config* cannot run on the partitioned kernel (``None`` = can).

    The gate admits exactly the configurations whose cross-node
    dynamics are feed-forward: NOW/MPP topologies on a contention-free
    network with direct forwarding and no global couplers.  Everything
    else falls back to the sequential kernel, which remains the
    calibration reference (`differential.parallel_kernel` exercises
    both the parallel path and this fallback).
    """
    if config.architecture is Architecture.SMP:
        return "SMP pools every process on one CPU set (no cut exists)"
    if config.effective_network_mode is not NetworkMode.CONTENTION_FREE:
        return (
            "shared network: one FIFO server couples all nodes "
            "(zero lookahead on every edge)"
        )
    if config.forwarding is ForwardingTopology.TREE:
        return "tree forwarding: daemon-to-daemon cut edges not yet run in parallel"
    if config.barrier_period is not None:
        return "synchronization barrier couples all application processes"
    if config.adaptive is not None:
        return "adaptive overhead regulation is a global control loop"
    return None


def lp_workers_from_env() -> Optional[int]:
    """Parse ``REPRO_DES_PARALLEL`` (unset / empty / ``1`` → ``None``).

    A zero or negative LP count is a configuration error, not a
    request for the sequential kernel, and raises :class:`ValueError`
    instead of silently falling back.
    """
    raw = os.environ.get("REPRO_DES_PARALLEL", "").strip()
    if not raw:
        return None
    try:
        k = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_DES_PARALLEL={raw!r} is not an integer LP count"
        ) from None
    if k < 1:
        raise ValueError(
            f"REPRO_DES_PARALLEL={raw!r}: LP count must be >= 1"
        )
    return k if k >= 2 else None
