"""``repro.des`` — a from-scratch discrete-event simulation kernel.

This package provides the simulation substrate the ROCC model is built
on.  It follows the process-interaction style (generator-based
processes yielding events), with preemptible resources, finite stores
(used to model Unix pipes), containers, and statistics monitors.

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
    "Process": "events",
    "Condition": "events",
    "ConditionValue": "events",
    "AllOf": "events",
    "AnyOf": "events",
    "NORMAL": "events",
    "URGENT": "events",
    "Interrupt": "exceptions",
    "SimulationError": "exceptions",
    "StopSimulation": "exceptions",
    "EmptySchedule": "exceptions",
    "SimulationStalled": "exceptions",
    "Resource": "resources",
    "PriorityResource": "resources",
    "PreemptiveResource": "resources",
    "Request": "resources",
    "PriorityRequest": "resources",
    "Preempted": "resources",
    "Store": "stores",
    "FilterStore": "stores",
    "Container": "containers",
    "P2Quantile": "monitor",
    "ReservoirSample": "monitor",
    "Tally": "monitor",
    "TimeWeighted": "monitor",
    "EventLog": "tracing",
    "EventCounter": "tracing",
    "TraceEntry": "tracing",
    "event_kind": "tracing",
    "KernelProfiler": "profiling",
    "format_profile": "profiling",
    "merge_profiles": "profiling",
})
