"""Factorial sweep of open-workload traffic class × node count.

Beyond the paper: the IS is exercised under externally-driven (open)
arrivals — stationary Poisson, bursty/diurnal modulation, flash
crowds, and the AsyncFlow-style users×rate model — on top of the
closed per-node loops, sweeping the node count per workload class
through the experiment engine.  The table shows how offered load,
service latency, and IS overhead co-vary across workload classes,
the evaluation axis the ROADMAP's simulation-as-a-service layer
builds on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..rocc.config import NetworkMode, SimulationConfig
from ..workload.generators import TrafficSpec
from .reporting import Table
from .runners import sweep

__all__ = ["open_workload"]

#: The workload classes swept by default: one spec per registered
#: generator family (replay uses a programmatic trace so the experiment
#: stays self-contained).  Rates are sized for the quick-mode duration.
_CLASSES: Tuple[TrafficSpec, ...] = (
    TrafficSpec.parse("stationary:rate=200,alpha=0.8"),
    TrafficSpec.parse("bursty:rate=200,period_s=0.5,depth=0.8"),
    TrafficSpec.parse(
        "flashcrowd:rate=100,multiplier=8,first_at_s=0.3,duration_s=0.2"
    ),
    TrafficSpec.parse("open:avg_users=100,rpm=120,window_s=0.25"),
    TrafficSpec.of(
        "replay",
        times=tuple(float(t) for t in range(5_000, 400_000, 5_000)),
        loop=True,
    ),
)


def open_workload(
    quick: bool = True, workload: Optional[TrafficSpec] = None
) -> Table:
    """IS metrics under each traffic class, swept over node count.

    *workload* restricts the sweep to one spec (the CLI's
    ``--workload`` lands here); default is the built-in catalogue of
    all five generator families.
    """
    duration = 1_500_000.0 if quick else 10_000_000.0
    reps = 2 if quick else 5
    nodes_levels: List[int] = [2, 8] if quick else [2, 8, 32]
    classes = (workload,) if workload is not None else _CLASSES

    base = SimulationConfig(
        nodes=2,
        duration=duration,
        seed=90,
        network_mode=NetworkMode.CONTENTION_FREE,
    )
    table = Table(
        title="Open-workload class x node count",
        headers=[
            "workload", "nodes", "arrivals", "offered_req_s",
            "served", "open_latency_ms", "active_users",
            "pd_cpu_util_pct", "fwd_latency_ms",
        ],
        notes=[
            "open requests cost one app CPU burst + one transfer each and "
            "contend with the closed loops and the IS on the same CPUs; "
            "offered rate is post-warmup arrivals over measured duration",
        ],
    )
    for spec in classes:
        runs = sweep(
            base,
            "nodes",
            nodes_levels,
            repetitions=reps,
            traffic=spec,
        )
        for n, cell in zip(nodes_levels, runs):
            table.add_row(
                spec.name,
                n,
                cell.open_arrivals,
                cell.open_offered_rate,
                cell.open_completed,
                cell.open_latency_mean / 1e3,
                cell.open_active_users,
                100.0 * cell.pd_cpu_utilization_per_node,
                cell.monitoring_latency_forwarding / 1e3,
            )
    return table
