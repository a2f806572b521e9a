"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is the unit of synchronization: processes yield events
and are resumed when the event is *processed* (its callbacks run).  The
life cycle is::

    untriggered --> triggered (scheduled, has value) --> processed

Derived events:

* :class:`Timeout` — fires after a fixed delay.
* :class:`Initialize` — internal; starts a freshly created process.
* :class:`Process` — a running generator; itself an event that fires when
  the generator terminates, which lets processes wait for each other.

Two schedule entries are not events: :class:`Hold` (a process sleep)
and :class:`Actor`, a model object that puts *itself* on the schedule
for each request it makes and that the run loop dispatches with a
single ``_fire()`` call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from .exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "HOLD_COMPLETED",
    "Event",
    "Hold",
    "Actor",
    "ACTOR_CLASSES",
    "Timeout",
    "Initialize",
    "Process",
]

#: Sentinel for "event has no value yet".
PENDING: Any = object()

#: Schedule priority for kernel bookkeeping events (served first at a tick).
URGENT = 0
#: Default schedule priority for model events.
NORMAL = 1


class Event:
    """A single occurrence that processes may wait for.

    Events are created untriggered.  :meth:`succeed` or :meth:`fail`
    triggers them, scheduling their callbacks to run at the current
    simulation time.  A callback is any callable accepting the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callbacks to invoke when the event is processed. ``None`` once
        #: the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "untriggered"
        )
        return f"<{self.__class__.__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only valid once triggered)."""
        if not self.triggered:
            raise AttributeError("value of event is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` / exception from :meth:`fail`."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional *value*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* as its value.

        A failed event re-raises *exception* in every waiting process; if
        nobody waits (and nobody defuses it), the simulation crashes when
        the event is processed.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self


class _HoldCompleted:
    """Sentinel yielded for a fast-path hold (see ``Environment.hold``).

    ``Process._resume`` recognizes it by identity and simply parks the
    process: the hold itself was already pushed on the heap by
    ``Environment.hold``, so there is nothing to register callbacks on.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<HOLD_COMPLETED>"


#: Singleton returned by ``Environment.hold`` on the fast path.  Model
#: code must ``yield`` it immediately and must not inspect it.
HOLD_COMPLETED: Any = _HoldCompleted()


class Hold:
    """Zero-allocation stand-in for a ``Timeout`` that resumes one process.

    A hold is *not* an :class:`Event`: it has no callback list and no
    per-instance value.  The run loop recognizes it by type, returns it
    to the environment's free list, and resumes ``proc`` directly.  The
    class-level event-protocol attributes (``ok``/``value``/...) make
    holds safe to pass through ``Process._resume`` and tracers.
    """

    __slots__ = ("proc",)

    # Event-protocol surface (a hold always "succeeds" with value None).
    callbacks = None
    triggered = True
    processed = True
    ok = True
    value = None
    _ok = True
    _value = None
    _defused = True

    def __init__(self) -> None:
        self.proc: Optional["Process"] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = getattr(self.proc, "name", None)
        return f"<Hold proc={name!r} at {id(self):#x}>"


#: Every :class:`Actor` subclass; the run loop tests membership by class.
ACTOR_CLASSES: set = set()


class Actor:
    """A model object that is itself a kernel event.

    An actor has at most one entry on the schedule at a time: for each
    request it makes it pushes *itself*, and when that entry pops the
    run loop calls :meth:`_fire` — no callbacks list, no generator, no
    per-request event object.  It suits a fixed loop of requests (the
    ROCC background load); model logic written as a generator that
    yields events stays a :class:`Process`.

    Subclasses set ``name`` (for tracers, profilers and the watchdog)
    and report through :attr:`kind` what the pending entry completes,
    so traces read the same as for the equivalent process.  Like a
    :class:`Hold`, an actor exposes the event-protocol attributes of an
    event that always succeeds.
    """

    __slots__ = ("name",)

    callbacks = None
    triggered = True
    processed = True
    ok = True
    value = None
    _ok = True
    _value = None
    _defused = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        ACTOR_CLASSES.add(cls)

    @property
    def kind(self) -> str:
        """Trace kind of the pending entry (see ``des.tracing.event_kind``)."""
        raise NotImplementedError

    def _fire(self) -> None:
        """Complete the pending request; called once per schedule entry."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}({self.name}) at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Bypass Event.__init__ to schedule immediately.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        env.schedule(self, NORMAL, delay)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event that starts a process when it is processed."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._defused = True
        env.schedule(self, URGENT)


class Process(Event):
    """Wraps a generator and runs it as a simulation process.

    The process is itself an event that is triggered when the generator
    returns (value = generator's return value) or raises (failure).
    Yield any :class:`Event` from the generator to wait for it; the
    event's value is the result of the ``yield`` expression.
    """

    __slots__ = ("_generator", "name", "_resume_cb")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Cached bound method registered as the wake-up callback, so
        #: parking on an event does not allocate a fresh bound method.
        self._resume_cb = self._resume
        Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process({self.name}) at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """``True`` until the underlying generator terminates."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value/exception of *event*.

        Hot path: reads the event-protocol slots (``_ok``/``_value``)
        directly instead of going through the properties — every event
        handed to a resume is already triggered, so the property guards
        are dead weight here.
        """
        env = self.env
        env._active_proc = self
        gen = self._generator
        while True:
            try:
                if event._ok:
                    next_event = gen.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    if not isinstance(exc, BaseException):  # pragma: no cover
                        exc = SimulationError(repr(exc))
                    next_event = gen.throw(exc)
            except StopIteration as exc:
                # Process finished.
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:
                # Process crashed: fail the process event.
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            # The generator yielded an event to wait on.
            if next_event is HOLD_COMPLETED:
                # Fast-path hold: Environment.hold already scheduled it
                # and pointed it at this process; just park.
                env._active_proc = None
                return
            try:
                if next_event.callbacks is not None:
                    # Event not yet processed: register and go to sleep.
                    next_event.callbacks.append(self._resume_cb)
                    env._active_proc = None
                    return
                # Already-processed event: loop immediately with its value.
                event = next_event
            except AttributeError:
                if not hasattr(next_event, "callbacks"):
                    raise TypeError(
                        f"process {self.name!r} yielded a non-event: {next_event!r}"
                    ) from None
                raise  # pragma: no cover
        # Reached only when the generator terminated.
        env._active_proc = None
