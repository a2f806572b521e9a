"""``repro.faults`` — fault injection and failure recovery for the IS.

The paper's final act (Section 5, Figure 30, Table 7) is about keeping
the instrumentation system's data-collection path usable under load;
this package extends the reproduction to ask the next question a
production system faces: *what happens to monitoring latency and sample
loss when a daemon dies, the network drops messages, a pipe wedges, or
a node throttles?*

Usage::

    from repro.faults import DaemonCrash, FaultPlan, RecoveryPolicy
    from repro.rocc import SimulationConfig, simulate

    cfg = SimulationConfig(
        nodes=8,
        batch_size=32,
        faults=FaultPlan((DaemonCrash(node=2, at=1_000_000.0,
                                      restart_after=500_000.0),)),
        recovery=RecoveryPolicy(max_retries=3),
    )
    res = simulate(cfg)
    print(res.samples_dropped, res.retransmissions, res.daemon_downtime)

Everything is deterministic per ``(seed, replication)``: fault draws use
their own named substreams, so adding faults does not perturb the
workload's random numbers (common random numbers across fault levels).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CpuSlowdown": "spec",
    "DaemonCrash": "spec",
    "FaultInjector": "injector",
    "FaultPlan": "spec",
    "FaultSpec": "spec",
    "MessageLost": "spec",
    "NetworkFault": "spec",
    "PipeStall": "spec",
    "RecoveryPolicy": "recovery",
    "OUTCOME_OK": "injector",
    "OUTCOME_LOST": "injector",
    "OUTCOME_CORRUPT": "injector",
})
