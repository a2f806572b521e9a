"""The simulation :class:`Environment`: clock, event queue, main loop.

The environment owns the simulation clock (``env.now``) and one event
scheduler (:class:`~repro.des.queues.AutoScheduler`) ordering scheduled
events by ``(time, priority, sequence)``: a bare ``heapq`` list while
the schedule is shallow, promoted once, at an event boundary, to a
calendar queue when it deepens.
Model code creates events through the factory methods (:meth:`timeout`,
:meth:`hold`, :meth:`process`, :meth:`event`, ...) and drives the
simulation with :meth:`run`.  There is one kernel path: holds and
recycled timeouts are always on.

Time is a plain ``float``; this package uses **microseconds** throughout
the ROCC model, but the kernel itself is unit-agnostic.
"""

from __future__ import annotations

import os
from functools import partial
from heapq import heappop, heappush
from itertools import repeat
from time import monotonic
from typing import Any, Generator, List, Optional

from .events import (
    ACTOR_CLASSES,
    HOLD_COMPLETED,
    NORMAL,
    URGENT,
    Actor,
    Event,
    Hold,
    Process,
    Timeout,
)
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

#: Cap on the free lists so pathological models cannot hoard memory.
_POOL_LIMIT = 256

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


#: The one callback the recycler accepts: a bound ``Process._resume``.
_PROCESS_RESUME = Process._resume


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
        self._active_proc: Optional[Process] = None
        #: Optional observers invoked as ``tracer(event, now)`` for every
        #: processed event (see :mod:`repro.des.tracing`).  Kept as a
        #: plain list checked with one truthiness test so the untraced
        #: hot path stays cheap.
        self._tracers: List = []
        # Free lists for recycled Hold / Timeout objects.  An object is
        # only ever recycled once it has been popped and fully processed,
        # so nothing can observe a pooled instance.
        self._hold_pool: List[Hold] = []
        self._timeout_pool: List[Timeout] = []

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
        """Create a :class:`Timeout` firing after *delay* time units.

        The instance may come from a free list of recycled timeouts
        (state fully reset); the observable behaviour is identical to a
        freshly constructed :class:`Timeout`.
        """
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        t = pool.pop()
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t._delay = delay
        self._push((self._now + delay, NORMAL, next(self._eid), t))
        return t

    def hold(self, delay: float):
        """Park the active process for *delay* time units (fast timeout).

        Semantically identical to ``yield env.timeout(delay)`` for a
        plain process sleep, but allocation-free: no ``Timeout``, no
        callbacks list — the run loop resumes the process directly off
        the heap.  The return value must be yielded immediately and
        never inspected; use :meth:`timeout` when the event itself is
        needed.

        Falls back to a real :class:`Timeout` when called outside a
        process.
        """
        proc = self._active_proc
        if proc is None:
            return self.timeout(delay)
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._hold_pool
        hold = pool.pop() if pool else Hold()
        hold.proc = proc
        self._push((self._now + delay, NORMAL, next(self._eid), hold))
        return HOLD_COMPLETED

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` running *generator*."""
        return Process(self, generator, name=name)

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
        Every per-event attribute lookup is hoisted into a local.  Returns
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
        hold_pool = self._hold_pool
        timeout_pool = self._timeout_pool
        resume = _PROCESS_RESUME
        hold_cls = Hold
        timeout_cls = Timeout
        pool_limit = _POOL_LIMIT
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
            cls = event.__class__
            if cls in actor_classes:
                if tracers:
                    for tracer in tracers:
                        tracer(event, now)
                event._fire()
                continue
            if cls is hold_cls:
                proc = event.proc
                if tracers:
                    for tracer in tracers:
                        tracer(event, now)
                event.proc = None
                if len(hold_pool) < pool_limit:
                    hold_pool.append(event)
                resume(proc, event)
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
            if cls is timeout_cls:
                # Recycle iff every waiter was a plain process resume (or
                # nobody waited): such a timeout can never be re-inspected,
                # unlike one whose other callback may have kept a reference
                # and read its value after processing.  Pooled with
                # callbacks=None, stale references still see a processed
                # event until the instance is reused.
                if len(timeout_pool) < pool_limit:
                    for cb in callbacks:
                        if getattr(cb, "__func__", None) is not resume:
                            break
                    else:
                        timeout_pool.append(event)
                continue
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
        """Build a :class:`SimulationStalled` naming blocked processes."""
        blocked: List[str] = []
        for _, _, _, event in self._scheduler.smallest(16):
            if type(event) is Hold:
                # Holds carry the parked process directly
                # instead of a callbacks list.
                if event.proc.name not in blocked:
                    blocked.append(event.proc.name)
                continue
            if isinstance(event, (Process, Actor)) and event.name not in blocked:
                blocked.append(event.name)
            for callback in event.callbacks or ():
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, (Process, Actor)) and owner.name not in blocked:
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
