"""Analytic predictions driving the experiment planner.

The planner's first stage evaluates the paper's Section 3 operational
models (NOW/SMP/MPP; :mod:`repro.analytical`) over every cell of a
factorial design, producing one :class:`AnalyticPrediction` per cell
with the predictions mapped onto the simulator's metric names.

Besides the raw predictions, each cell is annotated with the three
conditions under which the analytic model is *not* a substitute for
simulation:

* **inapplicable** — the configuration uses machinery the operational
  laws do not model at all (adaptive management, flush timeouts,
  barriers, a central ingress queue, an uninstrumented baseline);
* **saturated** — some IS resource has analytic utilization ≥ 1, where
  flow balance breaks and the open-queue residence time diverges;
* **drop_risk** — on a shared network the application offered load
  alone saturates the medium *and* the estimated per-forward queueing
  delay (all competing application bursts ahead of the daemon) exceeds
  the forwarding interval, so the daemon cannot drain its pipe and the
  simulator drops samples.  Flow balance silently fails there: the
  analytic CPU figures assume every sample is processed.

The drop-risk test is what distinguishes two analytically *identical*
cells — the operational model ignores the application network demand —
whose simulated behavior differs by an order of magnitude (e.g. 50
nodes, CF forwarding, communication- vs compute-intensive apps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..analytical import (
    ISDemands,
    MPPAnalyticalModel,
    NOWAnalyticalModel,
    SMPAnalyticalModel,
)
from ..rocc.config import (
    Architecture,
    ForwardingTopology,
    NetworkMode,
    SimulationConfig,
)

__all__ = ["AnalyticPrediction", "applicability", "predict"]


@dataclass(frozen=True)
class AnalyticPrediction:
    """Operational-law predictions for one design cell.

    ``metrics`` uses the simulator's metric names (the subset the model
    can predict), so surrogate cells drop into reporting code unchanged.
    ``utilizations`` holds the *unclamped* per-resource utilizations the
    screening rules reason about.
    """

    applicable: bool
    #: Why the model does not apply (``None`` when it does).
    reason: Optional[str] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    utilizations: Dict[str, float] = field(default_factory=dict)
    #: Some IS resource at analytic utilization ≥ 1 (flow balance broken).
    saturated: bool = False
    #: Shared-network sample-loss regime (see module docstring).
    drop_risk: bool = False
    #: Application + IS offered load on the shared network (0 when the
    #: network is contention-free).
    shared_network_offered: float = 0.0

    @property
    def max_utilization(self) -> float:
        """Largest IS resource utilization (0 when inapplicable)."""
        if not self.utilizations:
            return 0.0
        return max(self.utilizations.values())


#: Config features the operational model has no equations for.
_UNMODELED = (
    ("adaptive", "adaptive IS management"),
    ("batch_flush_timeout", "batch flush timeout"),
    ("barrier_period", "barrier synchronization"),
    ("central_ingress", "central ingress queue"),
)


def applicability(config: SimulationConfig) -> Optional[str]:
    """Why the Section 3 model does not apply to *config* (or ``None``).

    The operational laws model a steady-state instrumented run with the
    simulator's default machinery only; anything beyond that must be
    simulated.
    """
    if not config.instrumented:
        return "uninstrumented baseline"
    for attr, label in _UNMODELED:
        if getattr(config, attr) is not None:
            return f"unmodeled feature: {label}"
    return None


def _model(config: SimulationConfig):
    """Instantiate the matching architecture model with the simulator's
    cost decomposition (so predictions are comparable to simulation)."""
    demands = ISDemands.from_cost_models(
        config.daemon_costs, config.main_costs, config.batch_size
    )
    if config.architecture is Architecture.SMP:
        return SMPAnalyticalModel(
            nodes=config.nodes,
            sampling_period=config.sampling_period,
            batch_size=config.batch_size,
            # For the SMP, app_processes_per_node is the machine total.
            app_processes=config.app_processes_per_node,
            daemons=config.daemons,
            demands=demands,
        )
    if config.architecture is Architecture.MPP:
        return MPPAnalyticalModel(
            nodes=config.nodes,
            sampling_period=config.sampling_period,
            batch_size=config.batch_size,
            app_processes_per_node=config.app_processes_per_node,
            tree=config.forwarding is ForwardingTopology.TREE,
            demands=demands,
        )
    return NOWAnalyticalModel(
        nodes=config.nodes,
        sampling_period=config.sampling_period,
        batch_size=config.batch_size,
        app_processes_per_node=config.app_processes_per_node,
        demands=demands,
    )


def _app_offered_load(config: SimulationConfig) -> float:
    """Offered utilization of the shared network by application traffic.

    Each application process cycles CPU burst → network burst, so its
    offered network utilization is d_net / (d_cpu + d_net); the total is
    that times the process count.  Offered load — not actual (which the
    closed loop caps at 1) — because > 1 is exactly the signal that the
    medium saturates and queueing delays govern.
    """
    w = config.workload
    d_cpu = w.d_app_cpu
    d_net = w.d_app_network
    if d_cpu + d_net <= 0:
        return 0.0
    if config.architecture is Architecture.SMP:
        n_apps = config.app_processes_per_node
    else:
        n_apps = config.nodes * config.app_processes_per_node
    return n_apps * d_net / (d_cpu + d_net)


def predict(config: SimulationConfig) -> AnalyticPrediction:
    """Evaluate the matching analytic model for one cell."""
    reason = applicability(config)
    if reason is not None:
        return AnalyticPrediction(applicable=False, reason=reason)

    model = _model(config)
    utils: Dict[str, float] = {
        "pd_cpu": model.pd_cpu_utilization(),
        "main_cpu": model.paradyn_cpu_utilization(),
    }
    if isinstance(model, SMPAnalyticalModel):
        utils["network"] = model.bus_utilization()
        utils["is_cpu"] = model.is_cpu_utilization()
    else:
        utils["network"] = model.pd_network_utilization()
    saturated = any(u >= 1.0 for u in utils.values())

    duration = config.measured_duration
    metrics: Dict[str, float] = {
        "pd_cpu_utilization_per_node": utils["pd_cpu"],
        "main_cpu_utilization": min(utils["main_cpu"], 1.0),
        "pd_network_utilization": utils["network"],
        "app_cpu_utilization_per_node": model.app_cpu_utilization(),
        "monitoring_latency_forwarding": model.monitoring_latency(),
        "pd_cpu_time_per_node": min(utils["pd_cpu"], 1.0) * duration,
        "main_cpu_time": min(utils["main_cpu"], 1.0) * duration,
    }
    if "is_cpu" in utils:
        metrics["is_cpu_utilization_per_node"] = min(utils["is_cpu"], 1.0)

    # Shared-network contention / sample-loss regime.
    drop_risk = False
    offered = 0.0
    if config.effective_network_mode is NetworkMode.SHARED:
        offered = _app_offered_load(config) + utils["network"]
        if offered >= 1.0:
            # Estimated queueing delay ahead of one daemon forward: every
            # competing application burst once.  Infeasible when it
            # exceeds the forwarding interval T·b/m — the pipe then
            # fills and the simulator drops samples.
            if config.architecture is Architecture.SMP:
                n_apps = config.app_processes_per_node
            else:
                n_apps = config.nodes * config.app_processes_per_node
            delay = n_apps * config.workload.d_app_network
            interval = (
                config.sampling_period
                * config.batch_size
                / max(1, config.app_processes_per_node)
            )
            drop_risk = delay >= interval
    return AnalyticPrediction(
        applicable=True,
        metrics=metrics,
        utilizations=utils,
        saturated=saturated,
        drop_risk=drop_risk,
        shared_network_offered=offered,
    )
