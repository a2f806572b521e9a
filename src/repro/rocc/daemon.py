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

Each loop (collect, the optional flush timer, merge) is a
:class:`~repro.rocc.node.LoadActor`; the three share the daemon's
partial batch.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..des.stores import Store
from ..workload.records import ProcessType
from .node import LoadActor, NodeContext
from .pipes import SamplePipe
from .requests import Batch, Sample

__all__ = ["ParadynDaemon"]

#: A delivery sink: invoked with a Batch at network-delivery time.
DeliverFn = Callable[[Batch], None]

#: Maximum samples the daemon drains from the pipe per CPU acquisition.
#: The real daemon reads every available sample per wakeup; 1 would
#: degenerate to one scheduling round per sample, which starves the
#: daemon behind CPU-bound applications under strict RR.
COLLECTION_BURST = 64


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

        _Collector(self)
        if ctx.config.batch_flush_timeout is not None:
            _Flusher(self)

    def enable_tree_inbox(self) -> None:
        """Attach a child-batch inbox and start the merge loop."""
        if self.inbox is None:
            self.inbox = Store(self.ctx.env)
            _Merger(self)

    def deliver(self, batch: Batch) -> None:
        """Delivery sink for child daemons (tree forwarding)."""
        assert self.inbox is not None, "tree inbox not enabled"
        self.inbox.put(batch)  # unbounded: triggers immediately

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


class _DaemonLoop(LoadActor):
    """One loop of a daemon, named ``<daemon>/<loop>``."""

    __slots__ = ("pd", "_out", "_then")

    def __init__(self, pd: ParadynDaemon, loop: str, step: Callable):
        super().__init__(pd.ctx, ProcessType.PARADYN_DAEMON, f"{pd.name}/{loop}")
        self.pd = pd
        #: The batch between its CPU work and its network send.
        self._out: Optional[Batch] = None
        #: The step after the forwarding in progress.
        self._then: Optional[Callable] = None
        self.start(step)

    def forward(self, batch: Batch, step: Callable) -> None:
        """CPU (system call) + network occupancy for one forwarding,
        then *step*."""
        self._out = batch
        self._then = step
        self.compute(self.pd._forward_cpu(), _DaemonLoop._forwarded)

    def _forwarded(self) -> None:
        pd = self.pd
        ctx = pd.ctx
        batch, self._out = self._out, None
        n = len(batch.samples)
        pd.samples_forwarded += n
        pd.forward_calls += 1
        ctx.metrics.note_forward(ctx.node_id, n)
        # Network occupancy per forward is constant: "the network
        # occupancy needed for forwarding a merged sample is the same as
        # for forwarding a local sample" (§3.3).
        self.send(pd._net(), batch, pd.deliver_up, self._then)


class _Collector(_DaemonLoop):
    """Drain the pipe, pay the collection CPU work, batch and forward."""

    __slots__ = ("pipe", "_samples")

    def __init__(self, pd: ParadynDaemon):
        super().__init__(pd, "collect", _Collector._wait)
        self.pipe = pd.pipe
        # At most COLLECTION_BURST samples, emptied every round: a list,
        # not a deque.
        self._samples: List[Sample] = []

    def _wait(self) -> None:
        self.get(self.pipe, _Collector._collect)

    def _collect(self, sample: Sample) -> None:
        samples = self._samples
        samples.append(sample)
        # Drain everything already waiting (up to the burst limit) so
        # one CPU acquisition covers the whole backlog — the real
        # daemon reads all available samples per wakeup.  Without
        # this, strict round-robin starves the daemon behind
        # CPU-bound applications (one scheduling round per sample).
        pipe = self.pipe
        while len(pipe) > 0 and len(samples) < COLLECTION_BURST:
            samples.append(pipe.get().value)
        self.compute(self.pd._collect_cpu.take_sum(len(samples)),
                     _Collector._batch)

    def _batch(self) -> None:
        """Add the collected samples to the batch, forwarding each
        batch that fills, then read the pipe again."""
        pd = self.pd
        samples = self._samples
        while samples:
            s = samples.pop(0)
            if not pd._batch:
                pd._batch_started = self.env._now
            pd._batch.append(s)
            if len(pd._batch) >= pd.batch_size:
                self.forward(pd._take_batch(), _Collector._batch)
                return
        self._wait()


class _Flusher(_DaemonLoop):
    """Forward a stale partial batch (BF extension, off by default)."""

    __slots__ = ("_timeout",)

    def __init__(self, pd: ParadynDaemon):
        super().__init__(pd, "flush", _Flusher._wait)
        self._timeout = pd.ctx.config.batch_flush_timeout

    def _wait(self) -> None:
        self.sleep(self._timeout, _Flusher._check)

    def _check(self) -> None:
        pd = self.pd
        if pd._batch and self.env._now - pd._batch_started >= self._timeout:
            self.forward(pd._take_batch(), _Flusher._wait)
        else:
            self._wait()


class _Merger(_DaemonLoop):
    """Tree forwarding: merge child batches and send them upward."""

    __slots__ = ()

    def __init__(self, pd: ParadynDaemon):
        super().__init__(pd, "merge", _Merger._wait)

    def _wait(self) -> None:
        self.get(self.pd.inbox, _Merger._merge)

    def _merge(self, batch: Batch) -> None:
        self._out = batch
        self.compute(self.pd._merge_cpu(), _Merger._merged)

    def _merged(self) -> None:
        pd = self.pd
        node = pd.ctx.node_id
        batch, self._out = self._out, None
        pd.ctx.metrics.note_merge(node)
        for s in batch.samples:
            s.hops += 1
        batch.origin = node
        batch.sent_at = self.env._now
        # "The network occupancy needed for forwarding a merged sample
        # is the same as for forwarding a local sample" (§3.3).
        self.send(pd._net(), batch, pd.merge_deliver, _Merger._wait)
