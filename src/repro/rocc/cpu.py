"""Round-robin CPU scheduler with a fixed quantum (ROCC CPU resource).

The paper's ROCC model shares each node's CPU(s) among application, IS,
and other processes under the operating system's round-robin policy
with a 10 ms quantum (Table 2).  :class:`RoundRobinCPU` implements that
exactly: occupancy requests join a FIFO ready queue; each of the
``n_cpus`` processors repeatedly takes the head request, runs it for
``min(quantum, remaining)``, and re-queues it at the tail if unfinished
("time out" transition of Figure 6).

The scheduler is *event-driven*: there are no server processes.  A
request that finds a free processor schedules its first slice directly;
slice-expiry and completion are kernel events whose callbacks charge
accounting and dispatch the next queued job.  A request shorter than
one quantum — the overwhelmingly common case for daemon collect/forward
costs against a 10 ms quantum — therefore costs exactly one kernel
event (its completion), where the process-per-server shape cost a
wake-up, a hold, and a separate completion event.

A request has two halves, :meth:`RoundRobinCPU.request` (queue or
start it) and :meth:`RoundRobinCPU.release` (charge the final slice,
hand the processor on).  The requesting actor
(:class:`~repro.rocc.node.LoadActor`) is its own completion entry: the
CPU pushes it for the time its final slice ends, and its handler calls
:meth:`~RoundRobinCPU.release`.  Each half is a single call: it
updates the busy-level integral (``busy_servers``) with an inlined
:meth:`~repro.des.monitor.TimeWeighted.increment`, which still calls
the level's ``on_change`` when a traced run has set one.

Processor sharing, the fluid limit RR approaches as quantum → 0, is
not simulated: its closed forms are the oracles RR is checked against
(DESIGN.md §5.2).

Accounting note: busy time is charged when a slice *completes*, so a
run cut off mid-slice under-counts by at most one quantum per server —
≤ 10 ms against simulated seconds, negligible for every reported
metric and consistent between compared configurations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..des.core import Environment
from ..des.events import NORMAL, Event
from ..des.monitor import TimeWeighted
from ..workload.records import ProcessType

__all__ = ["CPUJob", "RoundRobinCPU"]


class CPUJob:
    """A CPU occupancy request queued at the scheduler.

    ``event`` is the request's completion entry, an actor.
    """

    __slots__ = ("remaining", "owner", "event", "enqueued_at")

    def __init__(self, amount: float, owner: ProcessType, event, now: float):
        self.remaining = amount
        self.owner = owner
        self.event = event
        self.enqueued_at = now


class CPUSlice(Event):
    """An intermediate round-robin quantum of a longer request.

    Pure kernel bookkeeping: nobody waits on it, so it is created
    already-triggered and defused; its callback re-queues the job at
    the ready-queue tail and dispatches the head ("time out").
    """

    __slots__ = ("_cpu", "_job")

    def __init__(self, cpu: "RoundRobinCPU", job: CPUJob):
        self.env = cpu.env
        self.callbacks = [self._expire]
        self._value = None
        self._ok = True
        self._defused = True
        self._cpu = cpu
        self._job = job

    def _expire(self, _event: Event) -> None:
        # An intermediate slice is always exactly one quantum (anything
        # shorter would have been the final slice).
        cpu = self._cpu
        job = self._job
        quantum = cpu.quantum
        busy = cpu.busy_by_owner
        busy[job.owner] = busy.get(job.owner, 0.0) + quantum
        job.remaining -= quantum
        ready = cpu._ready
        ready.append(job)
        cpu._start(ready.pop(0))


class RoundRobinCPU:
    """``n_cpus`` identical CPUs draining one round-robin ready queue.

    Parameters
    ----------
    env:
        Simulation environment.
    n_cpus:
        Number of processors (1 for NOW/MPP nodes, the machine size for
        the SMP model).
    quantum:
        Scheduling quantum in µs (Table 2: 10 000).
    name:
        Label for diagnostics.
    """

    def __init__(
        self,
        env: Environment,
        n_cpus: int = 1,
        quantum: float = 10_000.0,
        name: str = "cpu",
    ):
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.env = env
        self.n_cpus = int(n_cpus)
        self.quantum = float(quantum)
        self.name = name
        # At most one job per process on the node, so a list (56 B
        # empty, a deque 760 B).
        self._ready: List[CPUJob] = []
        self._free = self.n_cpus
        #: Accumulated busy time per owning process class, µs.
        self.busy_by_owner: Dict[ProcessType, float] = {}
        #: Time-weighted number of busy servers (for utilization).
        self.busy_servers = TimeWeighted(f"{name}.busy", start_time=env.now)

    # ------------------------------------------------------------------
    def request(self, amount: float, owner: ProcessType, done) -> None:
        """Request half of a positive-length occupancy request.

        *done* is the kernel entry of the completion, an
        :class:`~repro.des.events.Actor` that is its own event.  It gets
        a ``_slice`` attribute (the final slice's length) and is pushed
        for the time that slice ends; its handler must then call
        :meth:`release`.
        """
        scaled = float(amount)
        quantum = self.quantum
        slice_ = scaled if scaled < quantum else quantum
        if self._free and scaled - slice_ <= 1e-9:
            # Free processor, fits one slice (the common case for daemon
            # collect/forward costs against a 10 ms quantum): schedule
            # completion directly, no ready-queue job.  The slice algebra
            # mirrors ``_start`` exactly so timestamps are identical to
            # the queued path.
            self._free -= 1
            env = self.env
            now = env._now
            # ``busy_servers.increment(+1, now)``, inlined.
            level = self.busy_servers
            busy = level._value
            level._area += busy * (now - level._last_time)
            level._last_time = now
            busy += 1
            level._value = busy
            if busy > level._max:
                level._max = busy
            on_change = level.on_change
            if on_change is not None:
                on_change(now, busy)
            done._slice = slice_
            env._push((now + slice_, NORMAL, next(env._eid), done))
            return
        job = CPUJob(scaled, owner, done, self.env.now)
        if self._free:
            self._free -= 1
            self.busy_servers.increment(+1, self.env.now)
            self._start(job)
        else:
            self._ready.append(job)

    def release(self, owner: ProcessType, slice_: float) -> None:
        """Completion half: charge *owner*'s final slice, then hand the
        processor to the next ready job (or free it)."""
        busy = self.busy_by_owner
        busy[owner] = busy.get(owner, 0.0) + slice_
        ready = self._ready
        if ready:
            self._start(ready.pop(0))
            return
        self._free += 1
        # ``busy_servers.increment(-1, now)``, inlined; a falling level
        # never raises the maximum.
        now = self.env._now
        level = self.busy_servers
        busy = level._value - 1
        level._area += level._value * (now - level._last_time)
        level._last_time = now
        level._value = busy
        on_change = level.on_change
        if on_change is not None:
            on_change(now, busy)

    @property
    def queue_length(self) -> int:
        """Jobs currently in the ready queue (excludes running slices)."""
        return len(self._ready)

    def utilization(self, now: Optional[float] = None) -> float:
        """Time-averaged fraction of CPUs busy up to *now*."""
        t = self.env.now if now is None else now
        return self.busy_servers.time_average(t) / self.n_cpus

    def busy_time(self, owner: ProcessType) -> float:
        """Total CPU time consumed by *owner*'s requests so far, µs."""
        return self.busy_by_owner.get(owner, 0.0)

    # ------------------------------------------------------------------
    def _start(self, job: CPUJob) -> None:
        """Schedule the next slice of *job* on the processor just freed.

        Back-to-back dispatch from a finishing slice's callback leaves
        ``busy_servers`` untouched — the zero-width -1/+1 dip would
        contribute nothing to the time integral.
        """
        remaining = job.remaining
        quantum = self.quantum
        slice_ = remaining if remaining < quantum else quantum
        if remaining - slice_ > 1e-9:
            ev = CPUSlice(self, job)
        else:
            ev = job.event
            ev._slice = slice_
        env = self.env
        env._push((env._now + slice_, NORMAL, next(env._eid), ev))
