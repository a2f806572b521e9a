"""The simulation :class:`Environment`: clock, event queue, main loop.

The environment owns the simulation clock (``env.now``) and one event
scheduler (:class:`~repro.des.queues.AutoScheduler`) ordering scheduled
events by ``(time, priority, sequence)``: a bare ``heapq`` list while
the schedule is shallow, promoted once, at an event boundary, to a
calendar queue when it deepens.
Model actors put themselves on the schedule; other code creates events
through the factory methods (:meth:`timeout`, :meth:`event`) and drives
the simulation with :meth:`run`.

Time is a plain ``float``; this package uses **microseconds** throughout
the ROCC model, but the kernel itself is unit-agnostic.
"""

from __future__ import annotations

import os
from functools import partial
from heapq import heappop, heappush
from itertools import repeat
from time import monotonic
from typing import Any, List, Optional

from .events import ACTOR_CLASSES, NORMAL, URGENT, Actor, Event, Timeout
from .exceptions import (
    EmptySchedule,
    SimulationError,
    SimulationStalled,
    StopSimulation,
)
from .queues import AutoScheduler

__all__ = ["Environment", "Infinity"]

#: Convenience alias used for "run forever".
Infinity: float = float("inf")

#: Events an armed :meth:`Environment.run` dispatches between two
#: watchdog checks (the wall clock is read once per chunk).
_CHUNK = 1024


#: Variables that used to select a kernel path, an event scheduler,
#: kernel profiling or in-cell parallelism, each with what replaced it.
#: Setting one now raises instead of being silently ignored.
_REMOVED_VARIABLES = {
    "REPRO_DES_FASTPATH": "the kernel has one path",
    "REPRO_DES_QUEUE": "the kernel has one scheduler policy",
    "REPRO_PROFILE": "a traced run (--trace-out, REPRO_TRACE) profiles its kernel",
    "REPRO_DES_PARALLEL": "every cell runs on the sequential kernel; "
                          "--workers N runs cells in parallel",
}


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.
    """

    def __init__(self, initial_time: float = 0.0):
        for var, reason in _REMOVED_VARIABLES.items():
            if var in os.environ:
                raise ValueError(f"{var} was removed: {reason}; unset {var}")
        self._now: float = float(initial_time)
        #: The event scheduler.  ``_push`` and ``_pop`` are the enqueue
        #: and dequeue of the phase serving it: ``heapq`` partials over
        #: its heap list (no Python frame per operation), re-pointed at
        #: the calendar queue's own by :meth:`_promote`.
        self._scheduler = scheduler = AutoScheduler()
        self._push = partial(heappush, scheduler.heap)
        self._pop = partial(heappop, scheduler.heap)
        self._eid = scheduler.ids
        #: Optional observers invoked as ``tracer(event, now)`` for every
        #: processed event (see :mod:`repro.des.tracing`).  Kept as a
        #: plain list checked with one truthiness test so the untraced
        #: hot path stays cheap.
        self._tracers: List = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        return self._scheduler.peek_time()

    @property
    def scheduler(self):
        """The active event scheduler (see :mod:`repro.des.queues`)."""
        return self._scheduler

    def add_tracer(self, tracer) -> None:
        """Register an observer called as ``tracer(event, now)`` for every
        processed event."""
        self._tracers.append(tracer)

    def remove_tracer(self, tracer) -> None:
        """Unregister a previously added tracer (no-op if absent)."""
        try:
            self._tracers.remove(tracer)
        except ValueError:
            pass

    def __len__(self) -> int:
        """Number of scheduled (not yet processed) events."""
        return len(self._scheduler)

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing after *delay* time units."""
        return Timeout(self, delay, value)

    # ------------------------------------------------------------------
    # Scheduling / execution
    # ------------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue *event* to be processed ``delay`` time units from now."""
        self._push((self._now + delay, priority, next(self._eid), event))

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` when the queue is empty, and
        re-raises the value of any *failed* event that no waiter defused
        (an unhandled simulation error).
        """
        self._dispatch(1)

    def run(
        self,
        until: Any = None,
        *,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
    ) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — run until the clock reaches that time (the clock is
          advanced exactly to it even if no event falls there);
        * an :class:`Event` — run until that event is processed, returning
          its value.

        ``max_events`` and ``max_wall_seconds`` arm a watchdog: if more
        than ``max_events`` events are processed, or more than
        ``max_wall_seconds`` of host wall-clock time elapses, before the
        run finishes, :class:`SimulationStalled` is raised naming the
        processes blocked at the head of the schedule.  This turns a
        livelocked model (e.g. a zero-delay event loop) into a
        diagnosable error instead of a hung experiment harness.  An
        armed run dispatches through the same loop as an unarmed one, in
        chunks of at most ``_CHUNK`` events, and checks its bounds
        between chunks.
        """
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1")
        if max_wall_seconds is not None and max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive")
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until ({at}) must not be before now ({self._now})")
            if at == self._now:  # SimPy semantics: nothing to do
                return None
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, URGENT, at - self._now)
        if isinstance(until, Event):
            if until.callbacks is None:  # already processed
                return until.value
            until.callbacks.append(StopSimulation.callback)

        try:
            if max_events is None and max_wall_seconds is None:
                self._dispatch(None)
            else:
                deadline = (
                    monotonic() + max_wall_seconds
                    if max_wall_seconds is not None
                    else None
                )
                steps = 0
                while True:
                    # Chunks of _CHUNK events land on max_events exactly;
                    # the wall clock is read once per chunk, not per event.
                    chunk = (
                        _CHUNK if max_events is None
                        else min(_CHUNK, max_events - steps)
                    )
                    self._dispatch(chunk)
                    steps += chunk
                    if max_events is not None and steps >= max_events:
                        if not self._scheduler:
                            # The budget ended with the schedule: a
                            # finished run, not a stalled one.
                            raise EmptySchedule()
                        raise self._stalled(
                            f"exceeded max_events={max_events}", steps
                        )
                    if deadline is not None and monotonic() >= deadline:
                        raise self._stalled(
                            f"exceeded max_wall_seconds={max_wall_seconds}", steps
                        )
        except StopSimulation as exc:
            return exc.args[0]
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError(
                    "no scheduled events left but the until event was not triggered"
                ) from None
        return None

    def _dispatch(self, budget: Optional[int]) -> None:
        """The dispatch loop: process *budget* events (``None``: all).

        Every event goes through here: an unarmed :meth:`run` passes no
        budget, an armed one passes chunks, and :meth:`step` passes 1.
        An entry is either an :class:`Actor`, which the loop fires, or
        an :class:`Event`, whose callbacks it runs.  Every per-event
        attribute lookup is hoisted into a local.  Returns
        after exactly *budget* events, or exits by raising
        :class:`StopSimulation` / :class:`EmptySchedule`, which
        :meth:`run` handles.

        ``pop`` is the serving phase's own dequeue.  Before each event
        the loop promotes the heap once it is ``promote_at`` deep (it
        stays empty after that).  A promotion made elsewhere (a nested
        :meth:`step`) empties the heap under the loop's stale ``pop``,
        which raises ``IndexError`` once; the loop then re-reads it and
        dequeues again for the same event.
        """
        heap = self._scheduler.heap
        promote_at = self._scheduler.promote_at
        pop = self._pop
        actor_classes = ACTOR_CLASSES
        tracers = self._tracers  # mutated in place by add/remove_tracer
        for _ in repeat(None) if budget is None else repeat(None, budget):
            if len(heap) >= promote_at:
                pop = self._promote()
            try:
                now, _, _, event = pop()
            except IndexError:
                if pop is self._pop:
                    raise EmptySchedule() from None
                pop = self._pop
                try:
                    now, _, _, event = pop()
                except IndexError:
                    raise EmptySchedule() from None
            self._now = now
            if event.__class__ in actor_classes:
                if tracers:
                    for tracer in tracers:
                        tracer(event, now)
                event._fire()
                continue
            if tracers:
                for tracer in tracers:
                    tracer(event, now)
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks is None:  # pragma: no cover - double-processing guard
                raise SimulationError(f"{event!r} processed twice")
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                exc = event._value
                if isinstance(exc, BaseException):
                    raise exc
                raise SimulationError(repr(exc))  # pragma: no cover

    def _promote(self):
        """Promote to the calendar queue; re-point and return ``_pop``."""
        calendar = self._scheduler.promote()
        self._push = calendar.push
        self._pop = calendar.pop
        return calendar.pop

    def _stalled(self, reason: str, steps: int) -> SimulationStalled:
        """Build a :class:`SimulationStalled` naming the actors at the
        head of the schedule, and those waiting on its events."""
        blocked: List[str] = []
        for _, _, _, event in self._scheduler.smallest(16):
            if isinstance(event, Actor) and event.name not in blocked:
                blocked.append(event.name)
            for callback in event.callbacks or ():
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, Actor) and owner.name not in blocked:
                    blocked.append(owner.name)
        message = (
            f"simulation stalled ({reason}) at t={self._now:g} "
            f"after {steps} events"
        )
        if blocked:
            message += "; processes at the head of the schedule: " + ", ".join(
                blocked[:8]
            )
        return SimulationStalled(
            message, now=self._now, events_processed=steps, blocked=blocked
        )
