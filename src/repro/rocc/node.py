"""Per-node wiring shared by all ROCC actors.

:class:`NodeContext` bundles what every process on a node needs — the
node's CPU scheduler, the interconnect, the metrics sink, the workload
variate streams, and the run configuration.  :class:`LoadActor` is the
base of every ROCC process (application, Paradyn daemon and main
process, PVM daemon, other processes), each of which runs as direct
kernel events.  :class:`CyclicBarrier` implements the global
synchronization barrier of §4.4.3 (Figure 28).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..des.core import Environment
from ..des.events import NORMAL, URGENT, Actor, Event
from ..workload.records import ProcessType
from ..variates.streams import StreamFactory
from .config import SimulationConfig
from .cpu import RoundRobinCPU
from .metrics import Metrics
from .network import BaseNetwork

__all__ = ["NodeContext", "LoadActor", "CyclicBarrier"]


@dataclass
class NodeContext:
    """Everything a process running on one node can touch."""

    env: Environment
    node_id: int
    cpu: RoundRobinCPU
    network: BaseNetwork
    metrics: Metrics
    config: SimulationConfig
    streams: StreamFactory


# What a LoadActor's schedule entry completes (its ``_pending``).
_START, _SLEEP, _ZERO, _CPU, _NET, _SEND = range(6)
_KINDS = ("initialize", "timeout", "event", "cpudone")


class LoadActor(Actor):
    """A loop of sleeps, pipe reads, CPU bursts and network transfers,
    run as an :class:`~repro.des.events.Actor`.

    Every ROCC process (Figures 5–7) is a loop of resource occupancy
    requests that nothing interrupts: each request pushes the actor
    itself, through the CPU's and the network's request halves, and
    :meth:`_fire` runs the matching completion half and then the loop's
    next *step*.  A step is a plain function of the actor (``Cls._step``)
    that issues the next request with :meth:`sleep`, :meth:`compute`,
    :meth:`transfer` or :meth:`send`, or waits for a store's next item
    with :meth:`get`.  :meth:`start` pushes an ``URGENT`` kick (trace
    kind ``initialize``), a zero-length request pops once at the current
    time and charges nothing, and :attr:`kind` names what the pending
    entry completes.

    The background load (:mod:`repro.rocc.application`,
    :mod:`repro.rocc.other`) overrides :meth:`_fire` with a state
    machine over :attr:`_pending`: it runs the completion half and
    then the loop's next request itself.  The application and the PVM
    daemon, most of every run's events, issue that request inside
    :meth:`_fire`, inlining :meth:`compute`, :meth:`transfer` and
    :meth:`sleep` to save the calls; the other loops request through
    them.  Only a start kick, a zero-length request, the application's
    barrier runs and its cycles with samples to write go through a
    step.
    """

    __slots__ = ("env", "cpu", "network", "owner", "_pending", "_next",
                 "_slice", "_remaining", "_amount", "_payload", "_deliver",
                 "_got_cb")

    def __init__(self, ctx: NodeContext, owner: ProcessType, name: str):
        self.env = ctx.env
        self.cpu = ctx.cpu
        self.network = ctx.network
        self.owner = owner
        self.name = name
        self._pending = _START
        self._next: Optional[Callable] = None
        #: Final-slice length of the pending CPU request (set by the CPU).
        self._slice = 0.0
        #: Unserved work of a CPU request in the ready queue (set by the
        #: CPU, which queues the actor itself).
        self._remaining = 0.0
        #: Length of the pending network request.
        self._amount = 0.0
        #: What the pending :meth:`send` carries, and where it goes.
        self._payload = None
        self._deliver: Optional[Callable] = None
        #: :meth:`_got`, bound once on the first :meth:`get` that waits.
        self._got_cb: Optional[Callable] = None

    @property
    def kind(self) -> str:
        if self._pending >= _NET:
            return self.network.transfer_class.__name__.lower()
        return _KINDS[self._pending]

    def start(self, step: Callable) -> None:
        """Run *step* at the current time, ahead of ordinary events."""
        self._pending = _START
        self._next = step
        env = self.env
        env._push((env._now, URGENT, next(env._eid), self))

    def sleep(self, delay: float, step: Callable) -> None:
        """Run *step* after *delay* time units."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._pending = _SLEEP
        self._next = step
        env = self.env
        env._push((env._now + delay, NORMAL, next(env._eid), self))

    def compute(self, amount: float, step: Callable) -> None:
        """Occupy the node's CPU for *amount* µs, then run *step*."""
        if amount <= 0.0:
            self._zero(step)
            return
        self._next = step
        self._pending = _CPU
        self.cpu.request(amount, self)

    def transfer(self, amount: float, step: Callable) -> None:
        """Occupy the network for *amount* µs, then run *step*."""
        if amount <= 0.0:
            self._zero(step)
            return
        self._next = step
        self._pending = _NET
        self._amount = float(amount)
        self.network.request(self)

    def send(self, amount: float, payload, deliver: Callable,
             step: Callable) -> None:
        """Carry *payload* over the network for *amount* µs, hand it to
        ``deliver`` on arrival, then run *step*.

        A zero-length send delivers at once and pops once at the
        current time, like the zero-length :meth:`transfer`.
        """
        if amount <= 0.0:
            deliver(payload)
            self._zero(step)
            return
        self._next = step
        self._pending = _SEND
        self._amount = float(amount)
        self._payload = payload
        self._deliver = deliver
        self.network.request(self)

    def get(self, store, step: Callable) -> None:
        """Run ``step(self, item)`` with *store*'s next item: at once if
        one is waiting, else when the store's get event fires."""
        get = store.get()
        if get.callbacks is None:
            step(self, get._value)
            return
        self._next = step
        got = self._got_cb
        if got is None:
            got = self._got_cb = self._got
        get.callbacks.append(got)

    def _got(self, get: Event) -> None:
        self._next(self, get._value)

    def _zero(self, step: Callable) -> None:
        """A zero-length request: one entry at the current time, then
        *step*."""
        self._next = step
        self._pending = _ZERO
        env = self.env
        env._push((env._now, NORMAL, next(env._eid), self))

    def _fire(self) -> None:
        pending = self._pending
        if pending == _CPU:
            self.cpu.release(self)
        elif pending == _NET:
            self.network.finish(self._amount, self.owner)
        elif pending == _SEND:
            # Account, deliver, then hand the server on: a queued
            # transfer's completion order.
            network = self.network
            network._account(self._amount, self.owner)
            payload, self._payload = self._payload, None
            self._deliver(payload)
            network.release()
        self._next(self)


class CyclicBarrier:
    """A reusable synchronization barrier over ``parties`` processes.

    ``arrive()`` returns an event that fires once all parties of the
    current round have arrived; the barrier then resets for the next
    round.  Used to model the application's synchronization barrier
    operations whose frequency Figure 28 sweeps.
    """

    def __init__(self, env: Environment, parties: int, metrics: Optional[Metrics] = None):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.env = env
        self.parties = parties
        self.metrics = metrics
        self._count = 0
        self._event = Event(env)
        self.rounds = 0

    @property
    def waiting(self) -> int:
        """Parties currently blocked at the barrier."""
        return self._count

    def arrive(self) -> Event:
        """Register arrival; the returned event fires on barrier release."""
        self._count += 1
        event = self._event
        if self._count >= self.parties:
            self._count = 0
            self._event = Event(self.env)
            self.rounds += 1
            if self.metrics is not None:
                self.metrics.barrier_rounds += 1
            event.succeed()
        return event
