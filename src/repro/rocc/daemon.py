"""The Paradyn daemon: collection, CF/BF scheduling, forwarding, merging.

One daemon runs per node (NOW/MPP) or serves a share of the application
processes (SMP).  Its life is the §2.1 loop:

1. **Collect** a sample from the pipe (per-sample collection CPU work).
2. Under **CF** (batch size 1) forward it immediately; under **BF**
   buffer it until ``batch_size`` samples accumulated (or the optional
   flush timeout expires), then forward the batch with *one* forwarding
   CPU request (the amortized system call) and one network occupancy.
3. Under **binary-tree forwarding** (MPP), also drain an inbox of
   batches arriving from child daemons: each costs a merge CPU request
   and is forwarded up with the same network occupancy as a local batch
   (§3.3).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..des.stores import Store
from ..workload.records import ProcessType
from .node import NodeContext
from .pipes import SamplePipe
from .requests import Batch, Sample

__all__ = ["ParadynDaemon"]

#: A delivery sink: invoked with a Batch at network-delivery time.
DeliverFn = Callable[[Batch], None]


class ParadynDaemon:
    """A Paradyn daemon process (Pd)."""

    def __init__(
        self,
        ctx: NodeContext,
        pipe: SamplePipe,
        deliver_up: DeliverFn,
        name: str = "",
    ):
        self.ctx = ctx
        self.pipe = pipe
        #: Called with each outgoing batch at delivery time (the main
        #: process's inbox for direct forwarding, the parent daemon's
        #: inbox under tree forwarding).
        self.deliver_up = deliver_up
        #: Delivery sink for *relayed* (merged) batches; defaults to the
        #: same uplink, overridden by the aggregated large-n mode to
        #: avoid double-counting phantom traffic at the main process.
        self.merge_deliver = deliver_up
        costs = ctx.config.daemon_costs
        wl = ctx.config.workload
        prefix = name or f"node{ctx.node_id}/pd"
        self.name = prefix
        self._collect_cpu = ctx.streams.variates(
            f"{prefix}/collect_cpu", costs.collection_cpu
        )
        self._forward_cpu = ctx.streams.variates(
            f"{prefix}/forward_cpu", costs.forward_cpu
        )
        merge_dist = costs.merge_cpu if costs.merge_cpu is not None else costs.forward_cpu
        self._merge_cpu = ctx.streams.variates(f"{prefix}/merge_cpu", merge_dist)
        self._net = ctx.streams.variates(f"{prefix}/network", wl.pd_network)

        #: Current batch size; mutable so adaptive management can change
        #: the policy mid-run (1 = CF).
        self.batch_size = ctx.config.batch_size
        self._batch: List[Sample] = []
        self._batch_started: float = 0.0
        #: Inbox of en-route batches from children (tree forwarding).
        self.inbox: Optional[Store] = None
        #: Samples forwarded by this daemon (local throughput numerator).
        self.samples_forwarded = 0
        self.forward_calls = 0

        ctx.env.process(self._collect_loop(), name=f"{prefix}/collect")
        if ctx.config.batch_flush_timeout is not None:
            ctx.env.process(self._flush_loop(), name=f"{prefix}/flush")

    def enable_tree_inbox(self) -> None:
        """Attach a child-batch inbox and start the merge loop."""
        if self.inbox is None:
            self.inbox = Store(self.ctx.env)
            self.ctx.env.process(self._merge_loop(), name=f"{self.name}/merge")

    def deliver(self, batch: Batch) -> None:
        """Delivery sink for child daemons (tree forwarding)."""
        assert self.inbox is not None, "tree inbox not enabled"
        self.inbox.put(batch)  # unbounded: triggers immediately

    # ------------------------------------------------------------------
    # Worker loops
    # ------------------------------------------------------------------
    def _collect_loop(self):
        env = self.ctx.env
        cpu = self.ctx.cpu
        pipe = self.pipe
        burst = max(1, self.ctx.config.daemon_costs.collection_burst)
        # At most ``burst`` samples, emptied every round: a list, not a deque.
        pending: List[Sample] = []
        while True:
            pending.append((yield pipe.get()))
            # Drain everything already waiting (up to the burst limit) so
            # one CPU acquisition covers the whole backlog — the real
            # daemon reads all available samples per wakeup.  Without
            # this, strict round-robin starves the daemon behind
            # CPU-bound applications (one scheduling round per sample).
            while len(pipe) > 0 and len(pending) < burst:
                pending.append(pipe.get().value)
            cost = self._collect_cpu.take_sum(len(pending))
            yield cpu.execute(cost, ProcessType.PARADYN_DAEMON)
            while pending:
                s = pending.pop(0)
                if not self._batch:
                    self._batch_started = env.now
                self._batch.append(s)
                if len(self._batch) >= self.batch_size:
                    yield from self._forward(self._take_batch())

    def _flush_loop(self):
        """Forward a stale partial batch (BF extension, off by default)."""
        env = self.ctx.env
        timeout = self.ctx.config.batch_flush_timeout
        while True:
            yield env.hold(timeout)
            if self._batch and env.now - self._batch_started >= timeout:
                yield from self._forward(self._take_batch())

    def _merge_loop(self):
        """Tree forwarding: merge child batches and send them upward."""
        env = self.ctx.env
        cpu = self.ctx.cpu
        network = self.ctx.network
        metrics = self.ctx.metrics
        node = self.ctx.node_id
        while True:
            batch = yield self.inbox.get()
            yield cpu.execute(self._merge_cpu(), ProcessType.PARADYN_DAEMON)
            metrics.note_merge(node)
            for s in batch.samples:
                s.hops += 1
            batch.origin = node
            batch.sent_at = env.now
            # "The network occupancy needed for forwarding a merged
            # sample is the same as for forwarding a local sample"
            # (§3.3).
            yield network.transfer(
                self._net(), ProcessType.PARADYN_DAEMON,
                payload=batch, deliver=self.merge_deliver,
            )

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _take_batch(self) -> Batch:
        env = self.ctx.env
        samples, self._batch = self._batch, []
        batch = Batch(samples=samples, origin=self.ctx.node_id)
        # Forwarding-unit ready time: under CF the single sample's
        # creation; under BF the moment the batch completed (see
        # metrics module docs for the two latency definitions).
        if len(samples) == 1:
            batch.sent_at = samples[0].created_at
        else:
            batch.sent_at = env.now
        return batch

    def _forward(self, batch: Batch):
        """CPU (system call) + network occupancy for one forwarding."""
        ctx = self.ctx
        costs = ctx.config.daemon_costs
        n = len(batch.samples)
        cpu_cost = self._forward_cpu() + costs.per_sample_batch_cpu * n
        yield ctx.cpu.execute(cpu_cost, ProcessType.PARADYN_DAEMON)
        self.samples_forwarded += n
        self.forward_calls += 1
        ctx.metrics.note_forward(ctx.node_id, n)
        net_cost = self._net() + costs.per_sample_network * max(0, n - 1)
        yield ctx.network.transfer(
            net_cost, ProcessType.PARADYN_DAEMON,
            payload=batch, deliver=self.deliver_up,
        )
