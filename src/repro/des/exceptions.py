"""Exception types used by the discrete-event simulation kernel.

The kernel mirrors the process-interaction style popularized by SimPy:
model logic lives in Python generator functions that ``yield`` events.
Exceptional control flow — running off the end of the event queue,
stopping at ``run(until=...)``, a runaway run caught by the watchdog —
is expressed with the exception classes defined here.  A failed event
carries its own exception and re-raises it in every waiter.
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "EmptySchedule",
    "SimulationStalled",
    "StopSimulation",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no more events are queued."""


class SimulationStalled(SimulationError):
    """Raised by the :meth:`Environment.run` watchdog on a runaway run.

    A simulation that livelocks (e.g. two processes ping-ponging
    zero-delay events) never exhausts its schedule and never reaches
    ``until``; without a watchdog the host process spins forever.  The
    exception carries enough context to diagnose the livelock: the
    simulation time it froze at, the number of events processed, and the
    names of the processes waiting at the head of the schedule.
    """

    def __init__(
        self,
        message: str,
        now: float = 0.0,
        events_processed: int = 0,
        blocked: "tuple | list" = (),
    ):
        super().__init__(message)
        #: Simulation time at which the watchdog fired.
        self.now = now
        #: Events processed by this ``run()`` call before the watchdog fired.
        self.events_processed = events_processed
        #: Names of processes waiting on the earliest scheduled events.
        self.blocked = list(blocked)


class StopSimulation(Exception):
    """Internal signal used by :meth:`Environment.run` to stop the loop.

    ``run(until=...)`` schedules a sentinel event whose processing raises
    this exception; user code never needs to catch it.
    """

    @classmethod
    def callback(cls, event: "object") -> None:
        """Event callback that stops the simulation when *event* fires."""
        if event.ok:  # type: ignore[attr-defined]
            raise cls(event.value)  # type: ignore[attr-defined]
        raise event.value  # type: ignore[attr-defined]
