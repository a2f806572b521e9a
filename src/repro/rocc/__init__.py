"""``repro.rocc`` — the Resource OCCupancy model of the Paradyn IS.

This package is the paper's primary contribution: a discrete-event
implementation of the ROCC queueing model (Figures 2 and 5) covering
NOW, SMP, and MPP architectures, the CF and BF data-forwarding
policies, direct and binary-tree forwarding topologies, finite
application→daemon pipes, and global synchronization barriers.

Entry point::

    from repro.rocc import SimulationConfig, simulate

    results = simulate(SimulationConfig(nodes=8, batch_size=32))
    print(results.pd_cpu_seconds_per_node, results.monitoring_latency_total_ms)
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Architecture": "config",
    "ForwardingTopology": "config",
    "NetworkMode": "config",
    "SimulationConfig": "config",
    "DaemonCostModel": "config",
    "MainCostModel": "config",
    "simulate": "system",
    "simulate_aggregated": "aggregate",
    "ParadynISSystem": "system",
    "AggregatedParadynISSystem": "aggregate",
    "SimulationResults": "metrics",
    "Metrics": "metrics",
    "RoundRobinCPU": "cpu",
    "FIFONetwork": "network",
    "ContentionFreeNetwork": "network",
    "BaseNetwork": "network",
    "SamplePipe": "pipes",
    "Sample": "requests",
    "Batch": "requests",
    "ApplicationProcess": "application",
    "ParadynDaemon": "daemon",
    "MainParadynProcess": "main_process",
    "PVMDaemon": "other",
    "OtherProcesses": "other",
    "NodeContext": "node",
    "CyclicBarrier": "node",
    "RegulatorConfig": "adaptive",
    "RegulatorDecision": "adaptive",
    "OverheadRegulator": "adaptive",
    "AdaptiveSampler": "adaptive",
    "PerturbationReport": "perturbation",
    "parent_index": "forwarding",
    "children_indices": "forwarding",
})
