"""Network resources of the ROCC model.

Three interconnect models cover the paper's architectures:

* :class:`FIFONetwork` — a single shared server: the NOW Ethernet and
  the SMP bus.  Requests queue in arrival order ("network delays are
  represented by the arrivals to a single server buffer" — Figure 2).
* :class:`ContentionFreeNetwork` — the MPP assumption (§4.4): transfers
  never queue against each other; occupancy is still accounted so
  utilization-style metrics remain meaningful.  It has no busy level:
  only a traced run's occupancy row would read it.

Both support a ``deliver`` callback per transfer so forwarding
topologies can hand batches to the receiving daemon or the main Paradyn
process at delivery time.

Each network exposes the two halves a transfer is made of:
:meth:`~BaseNetwork.request` puts a completion entry on the schedule
(or in the FIFO queue) and :meth:`~BaseNetwork.finish` charges the
transfer and frees the server when it pops, in one call.  A transfer
that delivers a payload completes in three steps instead —
:meth:`~BaseNetwork._account`, the delivery, then
:meth:`~BaseNetwork.release` — the order a :class:`QueuedTransfer`
resolves in.  The model's actors (:mod:`repro.rocc.node`) are their own
completion entry and call these directly.
:meth:`BaseNetwork.transfer` wraps them in a :class:`Transfer`, an
event that sits on the schedule for its completion time and resolves
(accounting, delivery) in its first callback: the aggregated mode's
phantom nodes send through it without waiting for the transfer.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..des.core import Environment
from ..des.events import NORMAL, PENDING, Event
from ..workload.records import ProcessType

__all__ = ["BaseNetwork", "FIFONetwork", "ContentionFreeNetwork", "Transfer"]

DeliverFn = Callable[[object], None]


class Transfer(Event):
    """A network transfer scheduled directly for its completion time.

    Created untriggered with ``_finish`` as its first callback; later
    callbacks run after it and observe the resolved ``ok``/``value``.  A
    plain :class:`Transfer` holds no server (contention-free), so its
    completion releases nothing.
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

    def _finish(self, _event: Event) -> None:
        """Account, deliver, and set the event's outcome (at pop time)."""
        self._net._account(self._amount, self._owner)
        if self._deliver is not None:
            self._deliver(self._payload)
        self._value = None


class QueuedTransfer(Transfer):
    """A transfer on a single shared FIFO server (Ethernet / bus).

    Resolves (and delivers) before it hands the server on.
    """

    __slots__ = ()

    def _finish(self, _event: Event) -> None:
        Transfer._finish(self, _event)
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
        the event's other callbacks run.
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
        handler must call :meth:`finish`, or, to deliver a payload in
        between, :meth:`_account` and then :meth:`release`.
        """
        raise NotImplementedError

    def finish(self, amount: float, owner: ProcessType) -> None:
        """Completion half: charge *owner* the finished transfer's
        *amount* (:meth:`_account`), then free the server it held
        (:meth:`release`), in one call."""
        raise NotImplementedError

    def release(self) -> None:
        """Free the server the finished transfer held."""
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
    The busy level is the ``_busy`` flag; a traced run sets
    :attr:`on_change` to hear every change of it.
    """

    transfer_class = QueuedTransfer

    def __init__(self, env: Environment, name: str = "network"):
        super().__init__(env, name)
        self._queue: Deque = deque()
        self._busy = False
        #: ``on_change(now, level)`` when the server goes busy (1.0) or
        #: idle (0.0), or ``None``: a traced run's hook.
        self.on_change = None

    def request(self, done) -> None:
        if self._busy:
            self._queue.append(done)
            return
        self._busy = True
        env = self.env
        on_change = self.on_change
        if on_change is not None:
            on_change(env._now, 1.0)
        env._push((env._now + done._amount, NORMAL, next(env._eid), done))

    def finish(self, amount: float, owner: ProcessType) -> None:
        # ``_account``, inlined, then the one hand-on in ``release``.
        busy = self.busy_by_owner
        busy[owner] = busy.get(owner, 0.0) + amount
        self.transfers += 1
        self.release()

    def release(self) -> None:
        # Hand the server to the next queued transfer at this instant:
        # the server never goes idle, so the level does not change.
        env = self.env
        queue = self._queue
        if queue:
            done = queue.popleft()
            env._push((env._now + done._amount, NORMAL, next(env._eid), done))
        else:
            self._busy = False
            on_change = self.on_change
            if on_change is not None:
                on_change(env._now, 0.0)

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
        env._push((env._now + done._amount, NORMAL, next(env._eid), done))

    #: Nothing to release: the completion half only accounts.
    finish = BaseNetwork._account

    def release(self) -> None:
        pass
