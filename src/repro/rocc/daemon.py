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

Fault tolerance (``repro.faults``): the daemon can **crash** — its
processes are interrupted, buffered and in-flight samples are dropped
with accounting, and samples already in the kernel pipe survive until a
**restart** respawns the loops.  Lost or timed-out forwards go through
the configured :class:`~repro.faults.recovery.RecoveryPolicy`: a
bounded resend queue drained by a retry process with exponential
backoff and jitter, falling back to drop-with-accounting when retries
or queue space run out.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..des.events import Event, Process
from ..des.exceptions import Interrupt
from ..faults.spec import MessageLost
from ..obs.metrics import registry as obs_registry
from ..des.stores import Store
from ..workload.records import ProcessType
from .node import NodeContext
from .pipes import SamplePipe
from .requests import Batch, Sample

__all__ = ["ParadynDaemon"]

#: A delivery sink: invoked with a Batch at network-delivery time.
DeliverFn = Callable[[Batch], None]


class _SendAttempt:
    """Bookkeeping for one in-progress transfer (crash cleanup)."""

    __slots__ = ("batch", "ev", "cond")

    def __init__(self, batch: Batch):
        self.batch = batch
        self.ev: Optional[Event] = None
        self.cond: Optional[Event] = None


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

        # -- failure / recovery state -----------------------------------
        self._policy = ctx.config.recovery
        self._backoff_rng = (
            ctx.streams.generator(f"{prefix}/backoff")
            if self._policy is not None
            else None
        )
        #: Whether the daemon is currently crashed.
        self.down = False
        self._down_since: Optional[float] = None
        self._crashed_at: Optional[float] = None
        self._await_recovery = False
        #: Batches awaiting retransmission with their delivery sinks
        #: (at most ``resend_queue_limit``, so a list, not a deque).
        self._resend: List[Tuple[Batch, DeliverFn]] = []
        self._resend_wake: Optional[Event] = None
        #: Batch mid-forward-CPU (lost if the daemon crashes there).
        self._inflight: Optional[Batch] = None
        self._pending_get = None
        self._pending_inbox_get = None
        #: Live kernel processes of this daemon (interrupted on crash).
        self._procs: List[Process] = []

        self._spawn_loops()

    # ------------------------------------------------------------------
    def _spawn_loops(self) -> None:
        ctx = self.ctx
        self._procs = [
            ctx.env.process(self._collect_loop(), name=f"{self.name}/collect")
        ]
        if ctx.config.batch_flush_timeout is not None:
            self._procs.append(
                ctx.env.process(self._flush_loop(), name=f"{self.name}/flush")
            )
        if self.inbox is not None:
            self._procs.append(
                ctx.env.process(self._merge_loop(), name=f"{self.name}/merge")
            )
        if self._policy is not None and self._policy.max_retries > 0:
            self._procs.append(
                ctx.env.process(self._retry_loop(), name=f"{self.name}/retry")
            )

    def enable_tree_inbox(self) -> None:
        """Attach a child-batch inbox and start the merge loop."""
        if self.inbox is None:
            self.inbox = Store(self.ctx.env)
            proc = self.ctx.env.process(
                self._merge_loop(), name=f"{self.name}/merge"
            )
            self._procs.append(proc)

    def deliver(self, batch: Batch) -> None:
        """Delivery sink for child daemons (tree forwarding)."""
        assert self.inbox is not None, "tree inbox not enabled"
        self.inbox.put(batch)  # unbounded: triggers immediately

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------
    def crash(self, cause: object = None) -> None:
        """Kill the daemon: interrupt its loops, lose buffered samples.

        Samples already written to the kernel pipe survive (the pipe
        outlives the process); everything the daemon held in user space
        — the partial batch, the resend queue, in-flight transfers — is
        dropped with accounting.
        """
        if self.down:
            return
        env = self.ctx.env
        self.down = True
        self._down_since = env.now
        self._crashed_at = env.now
        metrics = self.ctx.metrics
        metrics.daemon_crashes += 1
        obs_registry().counter("daemon.crashes").inc()
        if self._batch:
            self._drop(self._batch, "crash")
            self._batch = []
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.is_alive and proc is not env.active_process:
                proc.interrupt(cause if cause is not None else "daemon crash")

    def restart(self) -> None:
        """Bring a crashed daemon back up with fresh (empty) state."""
        if not self.down:
            return
        env = self.ctx.env
        self.ctx.metrics.daemon_downtime += env.now - self._down_since
        self.down = False
        self._down_since = None
        self._await_recovery = True
        self._spawn_loops()

    def _drop(self, samples, reason: str) -> None:
        self.ctx.metrics.note_drop_samples(self.ctx.node_id, samples, reason)

    # ------------------------------------------------------------------
    # Worker loops
    # ------------------------------------------------------------------
    def _collect_loop(self):
        env = self.ctx.env
        cpu = self.ctx.cpu
        burst = max(1, self.ctx.config.daemon_costs.collection_burst)
        pending: Deque[Sample] = deque()
        try:
            while True:
                self._pending_get = get_ev = self.pipe.get()
                sample = yield get_ev
                self._pending_get = None
                pending.append(sample)
                # Drain everything already waiting (up to the burst limit)
                # so one CPU acquisition covers the whole backlog — the
                # real daemon reads all available samples per wakeup.
                # Without this, strict round-robin starves the daemon
                # behind CPU-bound applications (one scheduling round per
                # sample).
                while len(self.pipe) > 0 and len(pending) < burst:
                    ready = self.pipe.get()
                    pending.append(ready.value)
                cost = self._collect_cpu.take_sum(len(pending))
                yield cpu.execute(cost, ProcessType.PARADYN_DAEMON)
                while pending:
                    s = pending.popleft()
                    if not self._batch:
                        self._batch_started = env.now
                    self._batch.append(s)
                    if len(self._batch) >= self.batch_size:
                        yield from self._forward(self._take_batch())
        except Interrupt:
            # Crash: abandon the pending read so no sample is consumed
            # by a dead reader; samples drained but not yet batched die
            # with the process.
            ev = self._pending_get
            self._pending_get = None
            if ev is not None and not ev.triggered and hasattr(ev, "cancel"):
                ev.cancel()
            if pending:
                self._drop(pending, "crash")
            return

    def _flush_loop(self):
        """Forward a stale partial batch (BF extension, off by default)."""
        env = self.ctx.env
        timeout = self.ctx.config.batch_flush_timeout
        try:
            while True:
                yield env.hold(timeout)
                if self._batch and env.now - self._batch_started >= timeout:
                    yield from self._forward(self._take_batch())
        except Interrupt:
            return

    def _merge_loop(self):
        """Tree forwarding: merge child batches and send them upward."""
        env = self.ctx.env
        cpu = self.ctx.cpu
        metrics = self.ctx.metrics
        node = self.ctx.node_id
        current: Optional[Batch] = None
        try:
            while True:
                self._pending_inbox_get = get_ev = self.inbox.get()
                batch = yield get_ev
                self._pending_inbox_get = None
                current = batch
                yield cpu.execute(self._merge_cpu(), ProcessType.PARADYN_DAEMON)
                metrics.note_merge(node)
                for s in batch.samples:
                    s.hops += 1
                batch.origin = node
                batch.sent_at = env.now
                # "The network occupancy needed for forwarding a merged
                # sample is the same as for forwarding a local sample"
                # (§3.3).
                current = None
                delivered = yield from self._send_once(
                    batch, self._net(), self.merge_deliver
                )
                if not delivered:
                    self._handle_send_failure(batch, self.merge_deliver)
        except Interrupt:
            ev = self._pending_inbox_get
            self._pending_inbox_get = None
            if ev is not None and not ev.triggered and hasattr(ev, "cancel"):
                ev.cancel()
            if current is not None:
                self._drop(current.samples, "crash")
            return

    def _retry_loop(self):
        """Drain the resend queue with exponential backoff and jitter."""
        env = self.ctx.env
        cpu = self.ctx.cpu
        metrics = self.ctx.metrics
        current: Optional[Batch] = None
        try:
            while True:
                if not self._resend:
                    self._resend_wake = Event(env)
                    yield self._resend_wake
                    self._resend_wake = None
                    continue
                current, deliver = self._resend.pop(0)
                current.attempts += 1
                delay = self._policy.backoff_delay(
                    current.attempts, self._backoff_rng
                )
                yield env.hold(delay)
                current.cancelled = False
                metrics.retransmissions += 1
                obs_registry().counter("daemon.retransmissions").inc()
                # A retransmission repeats the forwarding system call.
                yield cpu.execute(
                    self._forward_cpu(), ProcessType.PARADYN_DAEMON
                )
                batch, current = current, None
                delivered = yield from self._send_once(
                    batch, self._net(), deliver
                )
                if not delivered:
                    self._handle_send_failure(batch, deliver)
        except Interrupt:
            if current is not None:
                self._drop(current.samples, "crash")
            for batch, _deliver in self._resend:
                self._drop(batch.samples, "crash")
            self._resend.clear()
            self._resend_wake = None
            return

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
        self._inflight = batch
        try:
            yield ctx.cpu.execute(cpu_cost, ProcessType.PARADYN_DAEMON)
        except Interrupt:
            self._drop(batch.samples, "crash")
            self._inflight = None
            raise
        self._inflight = None
        self.samples_forwarded += n
        self.forward_calls += 1
        ctx.metrics.note_forward(ctx.node_id, n)
        net_cost = self._net() + costs.per_sample_network * max(0, n - 1)
        delivered = yield from self._send_once(batch, net_cost, self.deliver_up)
        if not delivered:
            self._handle_send_failure(batch, self.deliver_up)

    def _send_once(self, batch: Batch, net_cost: float, deliver: DeliverFn):
        """One transfer attempt; returns whether the batch was delivered.

        Applies the policy's forwarding timeout and translates a
        network-failed transfer (:class:`MessageLost`) into ``False``.
        On a crash mid-send the attempt is cleaned up so a late
        completion can neither duplicate samples nor crash the kernel
        with an unhandled failure.
        """
        ctx = self.ctx
        policy = self._policy
        att = _SendAttempt(batch)
        try:
            att.ev = ev = ctx.network.transfer(
                net_cost,
                ProcessType.PARADYN_DAEMON,
                payload=batch,
                deliver=deliver,
            )
            timeout = policy.forward_timeout if policy is not None else None
            if timeout is None:
                try:
                    yield ev
                    delivered = True
                except MessageLost:
                    delivered = False
            else:
                att.cond = cond = ev | ctx.env.timeout(timeout)
                try:
                    yield cond
                except MessageLost:
                    delivered = False
                else:
                    if ev.triggered and ev._ok:
                        delivered = True
                    else:
                        # Give up: suppress the late delivery so a
                        # retransmission cannot duplicate the samples.
                        batch.cancelled = True
                        ctx.metrics.forward_timeouts += 1
                        obs_registry().counter("daemon.forward_timeouts").inc()
                        delivered = False
            if delivered and self._await_recovery:
                latency = ctx.env.now - self._crashed_at
                ctx.metrics.recovery_latency.observe(latency)
                obs_registry().histogram(
                    "daemon.recovery_latency_ms"
                ).observe(latency / 1e3)
                self._await_recovery = False
            return delivered
        except Interrupt:
            self._abandon_send(att)
            raise

    def _abandon_send(self, att: _SendAttempt) -> None:
        """Crash cleanup for an attempt the sender will never observe."""
        ev, batch = att.ev, att.batch
        delivered = ev is not None and ev.triggered and ev._ok
        if delivered:
            return  # the batch made it out before the crash
        batch.cancelled = True  # suppress any future delivery
        if ev is not None and ev.triggered and not ev._ok:
            # The failure is already scheduled; nobody will wait for it.
            ev.defused = True
            if (
                att.cond is not None
                and not att.cond.triggered
                and ev.callbacks is not None
            ):
                try:
                    ev.callbacks.remove(att.cond._check)
                except ValueError:  # pragma: no cover - already detached
                    pass
        self._drop(batch.samples, "crash")

    def _handle_send_failure(self, batch: Batch, deliver: DeliverFn) -> None:
        """Route a failed forward through the recovery policy."""
        policy = self._policy
        if policy is None or policy.max_retries == 0:
            self._drop(batch.samples, "loss")
            return
        if batch.attempts >= policy.max_retries:
            self._drop(batch.samples, "loss")
            return
        if len(self._resend) >= policy.resend_queue_limit:
            self._drop(batch.samples, "overflow")
            return
        self._resend.append((batch, deliver))
        if self._resend_wake is not None and not self._resend_wake.triggered:
            self._resend_wake.succeed()
