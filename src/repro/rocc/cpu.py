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
accounting and dispatch the next queued request.  A request shorter than
one quantum — the overwhelmingly common case for daemon collect/forward
costs against a 10 ms quantum — therefore costs exactly one kernel
event (its completion), where the process-per-server shape cost a
wake-up, a hold, and a separate completion event.

A request has two halves, :meth:`RoundRobinCPU.request` (queue or
start it) and :meth:`RoundRobinCPU.release` (charge the final slice,
hand the processor on).  The requesting actor
(:class:`~repro.rocc.node.LoadActor`) is its own completion entry and
its own ready-queue entry: it holds its unserved work in ``_remaining``
while it waits, the CPU pushes it for the time its final slice ends,
and its handler calls :meth:`~RoundRobinCPU.release`.  The busy level
is the plain free-processor count; a traced run sets
:attr:`RoundRobinCPU.on_change` to hear every change of it.

Processor sharing, the fluid limit RR approaches as quantum → 0, is
not simulated: its closed forms are the oracles RR is checked against
(DESIGN.md §5.2).

Accounting note: busy time is charged when a slice *completes*, so a
run cut off mid-slice under-counts by at most one quantum per server —
≤ 10 ms against simulated seconds, negligible for every reported
metric and consistent between compared configurations.
"""

from __future__ import annotations

from typing import Dict, List

from ..des.core import Environment
from ..des.events import NORMAL, Event
from ..workload.records import ProcessType

__all__ = ["RoundRobinCPU"]


class CPUSlice(Event):
    """An intermediate round-robin quantum of a longer request.

    Pure kernel bookkeeping: nobody waits on it, so it is created
    already-triggered and defused; its callback re-queues the actor at
    the ready-queue tail and dispatches the head ("time out").
    """

    __slots__ = ("_cpu", "_actor")

    def __init__(self, cpu: "RoundRobinCPU", actor):
        self.env = cpu.env
        self.callbacks = [self._expire]
        self._value = None
        self._ok = True
        self._defused = True
        self._cpu = cpu
        self._actor = actor

    def _expire(self, _event: Event) -> None:
        # An intermediate slice is always exactly one quantum (anything
        # shorter would have been the final slice).
        cpu = self._cpu
        actor = self._actor
        quantum = cpu.quantum
        busy = cpu.busy_by_owner
        busy[actor.owner] = busy.get(actor.owner, 0.0) + quantum
        actor._remaining -= quantum
        ready = cpu._ready
        ready.append(actor)
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
        # At most one request per process on the node, so a list (56 B
        # empty, a deque 760 B) of the waiting actors.
        self._ready: List = []
        self._free = self.n_cpus
        #: Accumulated busy time per owning process class, µs.
        self.busy_by_owner: Dict[ProcessType, float] = {}
        #: ``on_change(now, level)`` after every change of the number of
        #: busy processors (a float), or ``None``: a traced run's hook.
        self.on_change = None

    # ------------------------------------------------------------------
    def request(self, amount: float, done) -> None:
        """Request half of a positive-length occupancy request.

        *done* is the requesting :class:`~repro.rocc.node.LoadActor`,
        an :class:`~repro.des.events.Actor` that is its own event and
        is charged as its ``owner``.  It gets a ``_slice`` attribute
        (the final slice's length) and is pushed for the time that
        slice ends; its handler must then call ``release(done)``.
        """
        scaled = float(amount)
        if not self._free:
            done._remaining = scaled
            self._ready.append(done)
            return
        self._free -= 1
        env = self.env
        now = env._now
        on_change = self.on_change
        if on_change is not None:
            on_change(now, float(self.n_cpus - self._free))
        quantum = self.quantum
        slice_ = scaled if scaled < quantum else quantum
        if scaled - slice_ <= 1e-9:
            # Fits one slice (the common case for daemon collect/forward
            # costs against a 10 ms quantum): schedule the completion
            # directly.  The slice algebra mirrors ``_start`` exactly so
            # timestamps are identical to the queued path.
            done._slice = slice_
            env._push((now + slice_, NORMAL, next(env._eid), done))
            return
        done._remaining = scaled
        self._start(done)

    def release(self, done) -> None:
        """Completion half: charge *done*'s final slice to its ``owner``,
        as :class:`CPUSlice` charges the earlier ones, then hand the
        processor to the next ready actor (or free it)."""
        owner = done.owner
        busy = self.busy_by_owner
        busy[owner] = busy.get(owner, 0.0) + done._slice
        ready = self._ready
        if ready:
            self._start(ready.pop(0))
            return
        self._free += 1
        on_change = self.on_change
        if on_change is not None:
            on_change(self.env._now, float(self.n_cpus - self._free))

    @property
    def queue_length(self) -> int:
        """Requests currently in the ready queue (excludes running
        slices)."""
        return len(self._ready)

    def busy_time(self, owner: ProcessType) -> float:
        """Total CPU time consumed by *owner*'s requests so far, µs."""
        return self.busy_by_owner.get(owner, 0.0)

    # ------------------------------------------------------------------
    def _start(self, actor) -> None:
        """Schedule the next slice of *actor* on a processor it holds.

        Back-to-back dispatch from a finishing slice's callback leaves
        the busy level untouched: the processor never goes idle.
        """
        remaining = actor._remaining
        quantum = self.quantum
        slice_ = remaining if remaining < quantum else quantum
        if remaining - slice_ > 1e-9:
            ev = CPUSlice(self, actor)
        else:
            ev = actor
            ev._slice = slice_
        env = self.env
        env._push((env._now + slice_, NORMAL, next(env._eid), ev))
