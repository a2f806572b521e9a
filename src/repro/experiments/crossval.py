"""Cross-validation of the analytic model against the simulator.

Registered as ``extra_crossvalidation``: for a grid of NOW operating
points it tabulates equations (1)–(6) next to the simulated values —
quantifying the paper's §3 caveat that operational analysis captures
"the gross changes in the metric values" but not contention detail.
The simulated cells go through the engine, so a rerun on a filled cache
simulates nothing.
"""

from __future__ import annotations

from ..analytical.now import NOWAnalyticalModel
from ..analytical.operational import ISDemands
from ..rocc.config import NetworkMode, SimulationConfig
from .engine import CellError, current_engine
from .reporting import Table

__all__ = ["extra_crossvalidation"]


def extra_crossvalidation(quick: bool = True) -> Table:
    """Analytic vs simulated Pd utilization and latency on a NOW grid."""
    duration = 2_000_000.0 if quick else 10_000_000.0
    table = Table(
        title="Operational analysis (eqs 1-6) vs simulation — NOW",
        headers=[
            "period_ms", "batch", "pd_util_analytic_pct",
            "pd_util_sim_pct", "util_error_pct",
            "latency_analytic_ms", "latency_sim_ms",
        ],
        notes=[
            "utilizations agree (flow balance holds below saturation); "
            "the analytic latency omits CPU contention with the "
            "application, hence the systematic gap — exactly the §3 "
            "caveat",
        ],
    )
    base = SimulationConfig(
        nodes=4, duration=duration, seed=9,
        network_mode=NetworkMode.CONTENTION_FREE,
    )
    grid = [(5.0, 1), (20.0, 1), (40.0, 1), (20.0, 32)] if quick else [
        (2.0, 1), (5.0, 1), (10.0, 1), (20.0, 1), (40.0, 1),
        (5.0, 32), (20.0, 32), (40.0, 32),
    ]
    outcomes = current_engine().run_cells([
        base.with_(sampling_period=period_ms * 1000.0, batch_size=batch)
        for period_ms, batch in grid
    ])
    for (period_ms, batch), sim in zip(grid, outcomes):
        if isinstance(sim, CellError):
            continue  # failed under --no-strict; the engine note counts it
        analytic = NOWAnalyticalModel(
            nodes=4,
            sampling_period=period_ms * 1000.0,
            batch_size=batch,
            demands=ISDemands.from_cost_models(
                base.daemon_costs, base.main_costs, batch
            ),
        )
        a_util = 100 * analytic.pd_cpu_utilization()
        s_util = 100 * sim.pd_cpu_utilization_per_node
        table.add_row(
            period_ms,
            batch,
            a_util,
            s_util,
            100.0 * abs(s_util - a_util) / a_util if a_util else float("nan"),
            analytic.monitoring_latency() / 1e3,
            sim.monitoring_latency_forwarding_ms,
        )
    return table
