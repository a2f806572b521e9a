"""``repro.des`` — a from-scratch discrete-event simulation kernel.

This package provides the simulation substrate the ROCC model is built
on, and only what that model uses: generator-based processes yielding
events (timeouts, allocation-free holds, other processes), actors that
schedule themselves, a finite FIFO :class:`Store` (the Unix
pipes), O(1) statistics monitors (``Tally``, ``TimeWeighted``), tracers
and a kernel profiler.

Quick example::

    from repro.des import Environment

    def clock(env, period):
        while True:
            yield env.timeout(period)
            print("tick", env.now)

    env = Environment()
    env.process(clock(env, 10.0))
    env.run(until=35.0)
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Environment": "core",
    "Infinity": "core",
    "Event": "events",
    "Timeout": "events",
    "Hold": "events",
    "Actor": "events",
    "Process": "events",
    "NORMAL": "events",
    "URGENT": "events",
    "SimulationError": "exceptions",
    "StopSimulation": "exceptions",
    "EmptySchedule": "exceptions",
    "SimulationStalled": "exceptions",
    "Store": "stores",
    "Tally": "monitor",
    "TimeWeighted": "monitor",
    "EventLog": "tracing",
    "TraceEntry": "tracing",
    "event_kind": "tracing",
    "KernelProfiler": "profiling",
})
