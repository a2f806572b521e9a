"""Network resources of the ROCC model.

Three interconnect models cover the paper's architectures:

* :class:`FIFONetwork` — a single shared server: the NOW Ethernet and
  the SMP bus.  Requests queue in arrival order ("network delays are
  represented by the arrivals to a single server buffer" — Figure 2).
* :class:`ContentionFreeNetwork` — the MPP assumption (§4.4): transfers
  never queue against each other; occupancy is still accounted so
  utilization-style metrics remain meaningful.

Both support a ``deliver`` callback per transfer so forwarding
topologies can hand batches to the receiving daemon or the main Paradyn
process at delivery time.

A transfer is a *self-scheduling event*: :meth:`BaseNetwork.transfer`
returns a :class:`Transfer` that sits directly on the kernel schedule
for its completion time, and resolution (delivery, accounting) happens
in its first callback when it pops.  That costs one kernel event per
transfer where the earlier process-per-transfer shape cost four
(Initialize, the process, its hold, and a separate completion event) —
the dominant saving for large contention-free cells.

Each network exposes the two halves a transfer is made of:
:meth:`~BaseNetwork.request` puts a completion entry on the schedule
(or in the FIFO queue) and :meth:`~BaseNetwork.release` frees the
server when it pops.  :class:`Transfer` uses them, and so do the
background-load actors (:mod:`repro.rocc.other`,
:mod:`repro.rocc.application`), which are their own completion entry
and carry no payload.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..des.core import Environment
from ..des.events import NORMAL, PENDING, Event
from ..des.monitor import TimeWeighted
from ..workload.records import ProcessType

__all__ = ["BaseNetwork", "FIFONetwork", "ContentionFreeNetwork", "Transfer"]

DeliverFn = Callable[[object], None]


class Transfer(Event):
    """A network transfer scheduled directly for its completion time.

    Created untriggered with ``_finish`` as its first callback; waiters
    registered by ``yield`` run after it, observing the resolved
    ``ok``/``value`` exactly as with a separately-triggered event.
    """

    __slots__ = ("_net", "_amount", "_owner", "_payload", "_deliver")

    def __init__(
        self,
        net: "BaseNetwork",
        amount: float,
        owner: ProcessType,
        payload: object,
        deliver: Optional[DeliverFn],
    ):
        # Bypass Event.__init__: same slot setup, minus a super() call.
        self.env = net.env
        self.callbacks = [self._finish]
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._net = net
        self._amount = amount
        self._owner = owner
        self._payload = payload
        self._deliver = deliver

    def _resolve(self) -> None:
        """Account, deliver, and set the event's outcome (at pop time)."""
        self._net._account(self._amount, self._owner)
        if self._deliver is not None:
            self._deliver(self._payload)
        self._value = None

    def _finish(self, _event: Event) -> None:
        self._net.release()
        self._resolve()


class QueuedTransfer(Transfer):
    """A transfer on a single shared FIFO server (Ethernet / bus).

    Resolves (and delivers) before it hands the server on.
    """

    __slots__ = ()

    def _finish(self, _event: Event) -> None:
        self._resolve()
        self._net.release()


class BaseNetwork:
    """Common occupancy accounting for all interconnect models.

    Subclasses implement the request and completion halves of a
    transfer; :meth:`transfer` wraps them in a :class:`Transfer` event
    of class ``transfer_class``.
    """

    transfer_class = Transfer

    def __init__(self, env: Environment, name: str = "network"):
        self.env = env
        self.name = name
        #: Accumulated network occupancy per owning process class, µs.
        self.busy_by_owner: Dict[ProcessType, float] = {}
        #: Time-weighted number of in-flight transfers.
        self.in_flight = TimeWeighted(f"{name}.in_flight", start_time=env.now)
        #: Completed transfer count.
        self.transfers = 0

    def transfer(
        self,
        amount: float,
        owner: ProcessType,
        payload: object = None,
        deliver: Optional[DeliverFn] = None,
    ) -> Event:
        """Occupy the network for *amount* µs on behalf of *owner*.

        The returned event fires when the transfer completes; *deliver*
        (if given) is invoked with *payload* at completion time, before
        waiters resume.
        """
        if amount <= 0.0:
            done = Event(self.env)
            self._complete(payload, deliver, done)
            return done
        ev = self.transfer_class(self, float(amount), owner, payload, deliver)
        self.request(ev)
        return ev

    def request(self, done) -> None:
        """Request half of a positive-length transfer.

        *done* is the kernel entry of the completion — a
        :class:`Transfer`, or an :class:`~repro.des.events.Actor` that
        is its own event — and carries the length in ``_amount``.  Its
        handler must charge :meth:`_account` and call :meth:`release`.
        """
        raise NotImplementedError

    def release(self) -> None:
        """Completion half: free the server the finished transfer held."""
        raise NotImplementedError

    def busy_time(self, owner: ProcessType) -> float:
        """Total network occupancy by *owner* so far, µs."""
        return self.busy_by_owner.get(owner, 0.0)

    def total_busy_time(self) -> float:
        return sum(self.busy_by_owner.values())

    def utilization(self, now: Optional[float] = None) -> float:
        """Busy fraction (single-server semantics: busy time / elapsed)."""
        t = self.env.now if now is None else now
        return self.total_busy_time() / t if t > 0 else 0.0

    def _account(self, amount: float, owner: ProcessType) -> None:
        self.busy_by_owner[owner] = self.busy_by_owner.get(owner, 0.0) + amount
        self.transfers += 1

    def _complete(
        self, payload: object, deliver: Optional[DeliverFn], done: Event
    ) -> None:
        """Synchronous completion for zero-length transfers."""
        if deliver is not None:
            deliver(payload)
        done.succeed()


class FIFONetwork(BaseNetwork):
    """Single shared server with a FIFO queue (Ethernet / bus).

    Event-driven: there is no server process.  An arriving transfer
    starts immediately when the server is free; otherwise it waits in
    ``_queue`` and is started by the finishing transfer's callback.
    """

    transfer_class = QueuedTransfer

    def __init__(self, env: Environment, name: str = "network"):
        super().__init__(env, name)
        self._queue: Deque = deque()
        self._busy = False

    def request(self, done) -> None:
        if self._busy:
            self._queue.append(done)
            return
        self._busy = True
        env = self.env
        self.in_flight.increment(+1, env._now)
        env._push((env._now + done._amount, NORMAL, next(env._eid), done))

    def release(self) -> None:
        # Hand the server to the next queued transfer at this instant;
        # the zero-width in_flight -1/+1 pair collapses into no update.
        env = self.env
        queue = self._queue
        if queue:
            done = queue.popleft()
            env._push((env._now + done._amount, NORMAL, next(env._eid), done))
        else:
            self._busy = False
            self.in_flight.increment(-1, env._now)

    @property
    def queue_length(self) -> int:
        return len(self._queue)


class ContentionFreeNetwork(BaseNetwork):
    """Infinite-server interconnect: transfers proceed independently.

    Approximates "the behavior seen by a bandwidth tuned application
    running on a scalable network" (§4.4).  Utilization is reported as
    occupancy divided by elapsed time, i.e. the *offered load* in server
    units, matching how the analytical model uses it.
    """

    def request(self, done) -> None:
        env = self.env
        self.in_flight.increment(+1, env._now)
        env._push((env._now + done._amount, NORMAL, next(env._eid), done))

    def release(self) -> None:
        self.in_flight.increment(-1, self.env._now)
