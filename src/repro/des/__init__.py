"""``repro.des`` — a from-scratch discrete-event simulation kernel.

This package provides the simulation substrate the ROCC model is built
on, and only what that model uses: actors that put themselves on the
schedule, events with callbacks (timeouts among them), a finite FIFO
:class:`Store` (the Unix pipes), an O(1) statistics monitor
(``Tally``), tracers and a kernel profiler.

Quick example::

    from repro.des import NORMAL, Actor, Environment

    class Clock(Actor):
        kind = "timeout"

        def __init__(self, env, period):
            self.name = "clock"
            self.env = env
            self.period = period
            env.schedule(self, NORMAL, period)

        def _fire(self):
            print("tick", self.env.now)
            self.env.schedule(self, NORMAL, self.period)

    env = Environment()
    Clock(env, 10.0)
    env.run(until=35.0)
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Environment": "core",
    "Infinity": "core",
    "Event": "events",
    "Timeout": "events",
    "Actor": "events",
    "NORMAL": "events",
    "URGENT": "events",
    "SimulationError": "exceptions",
    "StopSimulation": "exceptions",
    "EmptySchedule": "exceptions",
    "SimulationStalled": "exceptions",
    "Store": "stores",
    "Tally": "monitor",
    "EventLog": "tracing",
    "TraceEntry": "tracing",
    "event_kind": "tracing",
    "KernelProfiler": "profiling",
})
