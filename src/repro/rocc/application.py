"""The instrumented application process of the ROCC model.

Implements the simplified two-state behaviour of Figure 7 — alternating
Computation (CPU occupancy) and Communication (network occupancy)
bursts — augmented with:

* the **sampling timer**: every ``sampling_period`` a performance-data
  sample is created and written into the daemon pipe; a full pipe
  blocks the application, the effect §4.3.3 analyzes;
* optional **global barriers** every ``barrier_period`` µs of CPU work
  (Figure 28): a burst never crosses a barrier point, and the process
  waits until every application process in the system arrives.

The main cycle and the sampling timer are each a
:class:`~repro.rocc.node.LoadActor`: the application is background load
to the instrumentation system and nothing interrupts it, so it runs as
direct kernel events.  Each is a state machine: its ``_fire`` runs the
completion half of the pending request (a burst, a transfer, a timer
sleep) and goes on to the loop's next request without a step.  A
blocked pipe write or a barrier wait hooks the cycle's continuation on
the store's or the barrier's event.
"""

from __future__ import annotations

from typing import List, Optional

from ..des.events import Event
from ..workload.records import ProcessType
from .node import _CPU, _NET, _SLEEP, CyclicBarrier, LoadActor, NodeContext
from .pipes import SamplePipe
from .requests import Sample

__all__ = ["ApplicationProcess", "SamplingTimer"]

_APPLICATION = ProcessType.APPLICATION


class ApplicationProcess(LoadActor):
    """One application process on one node: the compute/communicate
    cycle, itself the kernel event of its pending request.

    ``sampler_state``, when given, is an
    :class:`~repro.rocc.adaptive.AdaptiveSampler` whose ``period`` the
    sampling timer re-reads every tick, letting an overhead regulator
    adjust the rate mid-run.
    """

    __slots__ = ("ctx", "pid", "pipe", "barrier", "sampler_state", "metrics",
                 "_cpu_var", "_net_var", "_due", "_barrier_period",
                 "_work", "_work_since_barrier", "_wait_start", "_unblocked_cb",
                 "_released_cb", "sampler")

    def __init__(
        self,
        ctx: NodeContext,
        pid: int,
        pipe: Optional[SamplePipe],
        barrier: Optional[CyclicBarrier] = None,
        sampler_state=None,
    ):
        prefix = f"node{ctx.node_id}/app{pid}"
        super().__init__(ctx, ProcessType.APPLICATION, f"{prefix}/main")
        self.ctx = ctx
        self.pid = pid
        self.pipe = pipe
        self.barrier = barrier
        self.sampler_state = sampler_state
        self.metrics = ctx.metrics
        wl = ctx.config.workload
        self._cpu_var = ctx.streams.variates(f"{prefix}/cpu", wl.app_cpu)
        self._net_var = ctx.streams.variates(f"{prefix}/network", wl.app_network)
        # Samples created but not yet written, shared with the sampling
        # timer.  A list is smaller than a deque; it holds a sample or
        # two unless a full pipe blocks the application, and then it
        # drains only as fast as the pipe accepts.
        self._due: List[Sample] = []
        self._barrier_period = ctx.config.barrier_period
        #: Length of the CPU burst in progress, µs.
        self._work = 0.0
        #: CPU work done since the last barrier, µs.
        self._work_since_barrier = 0.0
        self._wait_start = 0.0
        # Bound once: the continuations hooked on a blocked put and on
        # a barrier release.
        self._unblocked_cb = self._unblocked
        self._released_cb = self._released
        self.start(ApplicationProcess._cycle)
        self.sampler: Optional[SamplingTimer] = None
        if ctx.config.instrumented and pipe is not None:
            self.sampler = SamplingTimer(ctx, pid, self._due, sampler_state)

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        pending = self._pending
        if pending == _CPU:
            self.cpu.release(self)
            self._computed()
        elif pending == _NET:
            self.network.finish(self._amount, _APPLICATION)
            self._transferred()
        else:
            # The start kick, or a zero-length request.
            self._next(self)

    def _cycle(self) -> None:
        """Emit pending samples, then start the next CPU burst."""
        due = self._due
        while due:
            put = self.pipe.put(due.pop(0))
            if put.callbacks is not None:
                # A full pipe blocks us here, freeing the CPU (the
                # §4.3.3 mechanism); the rest of the cycle resumes once
                # the pipe accepts the sample.
                put.callbacks.append(self._unblocked_cb)
                return
        work = self._cpu_var()
        barrier_period = self._barrier_period
        if barrier_period is not None:
            # A burst never crosses a barrier point.
            remaining = barrier_period - self._work_since_barrier
            if work > remaining:
                work = remaining
        self._work = work
        # ``self.compute(work, ApplicationProcess._computed)``, inlined
        # to save a call per burst.
        if work <= 0.0:
            self._zero(ApplicationProcess._computed)
            return
        self._pending = _CPU
        self.cpu.request(work, self)

    def _computed(self) -> None:
        barrier_period = self._barrier_period
        if barrier_period is not None:
            self._work_since_barrier += self._work
            if self._work_since_barrier >= barrier_period - 1e-9:
                self._work_since_barrier = 0.0
                self._wait_start = self.env._now
                released = self.barrier.arrive()
                released.callbacks.append(self._released_cb)
                return
        self._communicate()

    def _unblocked(self, _event: Event) -> None:
        """The pipe accepted the blocked sample: carry on emitting."""
        self._cycle()

    def _released(self, _event: Event) -> None:
        """Every party reached the barrier: communicate."""
        self.metrics.barrier_wait_time += self.env._now - self._wait_start
        self._communicate()

    def _communicate(self) -> None:
        # ``self.transfer(...)``, inlined like ``compute`` in ``_cycle``.
        amount = self._net_var()
        if amount <= 0.0:
            self._zero(ApplicationProcess._transferred)
            return
        self._pending = _NET
        self._amount = amount
        self.network.request(self)

    def _transferred(self) -> None:
        self.metrics.app_cycles += 1
        self._cycle()


class SamplingTimer(LoadActor):
    """Creates one sample per sampling period (Figure 6's timer) and
    queues it for the application's next cycle boundary.

    Its only request is a sleep of one period, so :meth:`_fire` needs
    no step: every entry after the start kick ends a period.
    """

    __slots__ = ("_due", "_state", "_period", "_metrics", "_node", "_pid")

    def __init__(self, ctx: NodeContext, pid: int, due: List[Sample],
                 state=None):
        super().__init__(ctx, ProcessType.APPLICATION,
                         f"node{ctx.node_id}/app{pid}/sampler")
        self._due = due
        #: Adaptive runs re-read ``state.period`` every tick; a static
        #: configuration uses the fixed period.
        self._state = state
        self._period = ctx.config.sampling_period
        self._metrics = ctx.metrics
        self._node = ctx.node_id
        self._pid = pid
        self.start(None)

    def _fire(self) -> None:
        if self._pending == _SLEEP:
            self._due.append(Sample(created_at=self.env._now,
                                    node=self._node, pid=self._pid))
            self._metrics.samples_generated += 1
        # After the start kick, too: the next period begins.
        state = self._state
        self.sleep(self._period if state is None else state.period, None)
