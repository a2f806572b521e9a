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
* :class:`Condition` / :class:`AllOf` / :class:`AnyOf` — composite events.

Two schedule entries are not events: :class:`Hold` (a process sleep)
and :class:`Actor`, a model object that puts *itself* on the schedule
for each request it makes and that the run loop dispatches with a
single ``_fire()`` call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

from .exceptions import Interrupt, SimulationError

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
    "Interruption",
    "Process",
    "ConditionValue",
    "Condition",
    "AllOf",
    "AnyOf",
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

    @property
    def defused(self) -> bool:
        """Whether a failure was handled by some waiter (no crash)."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    def trigger(self, event: "Event") -> None:
        """Trigger with the state (ok/value) copied from *event*.

        Useful as a callback to chain events.
        """
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

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

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


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
    per-request event object.  It suits a loop that nothing ever
    interrupts (the ROCC background load); anything an interrupt or a
    timeout must be able to cancel stays a :class:`Process`.

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


class Interruption(Event):
    """Internal event that throws :class:`Interrupt` into a process."""

    __slots__ = ("process", "cause")

    def __init__(self, process: "Process", cause: Any):
        self.env = process.env
        self.callbacks = [self._interrupt]
        self._value = None
        self._ok = False
        self._defused = True
        if process.triggered:
            raise RuntimeError(f"{process!r} has terminated and cannot be interrupted")
        if process is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        self.process = process
        self.cause = cause
        self.env.schedule(self, URGENT)

    def _interrupt(self, event: "Event") -> None:
        proc = self.process
        if proc.triggered:  # terminated between scheduling and delivery
            return
        # Detach from whatever the process is currently waiting on so the
        # original event does not also resume it later.
        target = proc._target
        if type(target) is Hold:
            # Fast-path hold: orphan the heap entry; the run loop recycles
            # it without resuming anyone when it is eventually popped.
            target.proc = None
        elif target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(proc._resume_cb)
            except ValueError:  # pragma: no cover - already detached
                pass
        proc._resume(_Thrower(Interrupt(self.cause)))


class _Thrower:
    """Minimal event-like object that makes ``_resume`` throw an exception."""

    __slots__ = ("_value", "_defused")

    # ``_resume`` reads the protocol slots directly, so mirror an Event's
    # failed state at class level.
    _ok = False

    def __init__(self, exc: BaseException):
        self._value = exc
        self._defused = True

    @property
    def ok(self) -> bool:
        return False

    @property
    def value(self) -> BaseException:
        return self._value

    @property
    def defused(self) -> bool:
        return True

    @defused.setter
    def defused(self, value: bool) -> None:  # pragma: no cover - trivial
        pass


class Process(Event):
    """Wraps a generator and runs it as a simulation process.

    The process is itself an event that is triggered when the generator
    returns (value = generator's return value) or raises (failure).
    Yield any :class:`Event` from the generator to wait for it; the
    event's value is the result of the ``yield`` expression.
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

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
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        #: Cached bound method registered as the wake-up callback, so
        #: parking on an event does not allocate a fresh bound method.
        self._resume_cb = self._resume
        Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process({self.name}) at {id(self):#x}>"

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits for (``None`` if active)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` until the underlying generator terminates."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` with *cause* into this process.

        Delivery happens at the current simulation time, with kernel
        priority (before ordinary model events scheduled at that time).
        """
        Interruption(self, cause)

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
                    self._target = next_event
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
        self._target = None
        env._active_proc = None


class ConditionValue:
    """Ordered mapping of events to values produced by a condition."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return list(self.events)

    def values(self):
        return [e._value for e in self.events]

    def items(self):
        return [(e, e._value) for e in self.events]

    def todict(self) -> dict:
        return {e: e._value for e in self.events}


class Condition(Event):
    """A composite event triggered when *evaluate(events, count)* is true.

    ``count`` is the number of constituent events that have fired so far.
    The value of the condition is a :class:`ConditionValue` with every
    constituent event that has been processed by trigger time.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from multiple environments mixed")

        # Check for immediately-satisfied conditions (e.g. empty AllOf).
        if self._evaluate(self._events, 0) and not self._events:
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def __repr__(self) -> str:
        return (
            f"<Condition {self._evaluate.__name__} of {len(self._events)} "
            f"events at {id(self):#x}>"
        )

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None and event._value is not PENDING:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        self._count += 1
        if not event._ok:
            # Propagate the failure.
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            # Defer value collection so all same-time events are included.
            self.succeed(None)
            self.callbacks.insert(0, self._collect)

    def _collect(self, event: Event) -> None:
        value = ConditionValue()
        self._populate_value(value)
        self._value = value

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        """True when every constituent event has fired."""
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        """True when at least one constituent event has fired."""
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition satisfied when all *events* have fired (``&`` chain)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition satisfied when any of *events* has fired (``|`` chain)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
