"""Schedule entries of the discrete-event simulation kernel.

An :class:`Event` is the unit of synchronization: whoever waits on it
appends a callback, and the callbacks run when the event is
*processed*.  The life cycle is::

    untriggered --> triggered (scheduled, has value) --> processed

:class:`Timeout` is an event that fires after a fixed delay.

The model's processes are not events: each is an :class:`Actor`, an
object that puts *itself* on the schedule for each request it makes and
that the run loop dispatches with a single ``_fire()`` call.  An actor
that waits on an event (a pipe read, a barrier) appends one of its own
bound methods to the event's callbacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Actor",
    "ACTOR_CLASSES",
    "Timeout",
]

#: Sentinel for "event has no value yet".
PENDING: Any = object()

#: Schedule priority for kernel bookkeeping events (served first at a tick).
URGENT = 0
#: Default schedule priority for model events.
NORMAL = 1


class Event:
    """A single occurrence that actors and callbacks may wait for.

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

        Unless a callback defuses it (sets ``_defused``), the run raises
        *exception* once the event's callbacks have run.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self


#: Every :class:`Actor` subclass; the run loop tests membership by class.
ACTOR_CLASSES: set = set()


class Actor:
    """A model object that is itself a kernel event.

    An actor has at most one entry on the schedule at a time: for each
    request it makes it pushes *itself*, and when that entry pops the
    run loop calls :meth:`_fire` — no callbacks list, no generator, no
    per-request event object.  Every ROCC process is one (see
    ``repro.rocc.node.LoadActor``): a loop of resource occupancy
    requests that nothing interrupts.

    Subclasses set ``name`` (for tracers, profilers and the watchdog)
    and report through :attr:`kind` what the pending entry completes
    (``timeout``, ``cpudone``, ``transfer``, ...).  An actor exposes the
    event-protocol attributes of an event that always succeeds.
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
