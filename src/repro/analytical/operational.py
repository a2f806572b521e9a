"""Operational laws used by the paper's back-of-the-envelope analysis.

Section 3 applies the classic operational laws (Denning & Buzen; the
paper cites Jain and Lazowska et al.) under a flow-balance assumption:

* utilization law  U = X · D,
* forced-flow law  X_k = V_k · X,
* Little's law     N = X · R,
* the open single-server residence time R = D / (1 - U).

The helpers here keep the unit discipline (times in µs, rates in 1/µs)
and saturate gracefully: a utilization ≥ 1 yields an infinite residence
time instead of a negative one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "utilization_law",
    "forced_flow_law",
    "littles_law_population",
    "littles_law_response",
    "residence_time_open",
    "ISDemands",
]


def utilization_law(throughput: float, demand: float) -> float:
    """U = X · D (both in consistent units)."""
    if throughput < 0 or demand < 0:
        raise ValueError("throughput and demand must be non-negative")
    return throughput * demand


def forced_flow_law(system_throughput: float, visit_ratio: float) -> float:
    """X_k = V_k · X."""
    if visit_ratio < 0:
        raise ValueError("visit ratio must be non-negative")
    return system_throughput * visit_ratio


def littles_law_population(throughput: float, response: float) -> float:
    """N = X · R."""
    return throughput * response


def littles_law_response(population: float, throughput: float) -> float:
    """R = N / X."""
    if throughput <= 0:
        return math.inf
    return population / throughput


def residence_time_open(demand: float, utilization: float) -> float:
    """R = D / (1 − U) for an open single-server queue; ∞ at saturation."""
    if demand < 0:
        raise ValueError("demand must be non-negative")
    if utilization >= 1.0:
        return math.inf
    return demand / (1.0 - utilization)


@dataclass(frozen=True)
class ISDemands:
    """Per-forwarding-operation service demands of the IS, µs.

    ``d_pd_cpu`` — daemon CPU per forwarded unit; ``d_pd_network`` —
    network occupancy per forward; ``d_main_cpu`` — main-process CPU per
    received unit; ``d_pdm_cpu`` — merge CPU at a non-leaf tree daemon.

    Two constructions are provided:

    * :meth:`paper` — Table 2 verbatim (the paper's analytic inputs):
      demands do **not** grow with the batch size, so utilization scales
      exactly as 1/b, which is what Figures 9–15 plot.
    * :meth:`from_cost_models` — the simulator's decomposition, where a
      batch of b samples costs ``collect·b + forward`` daemon CPU etc.;
      used when comparing analytic curves against simulation output.
    """

    d_pd_cpu: float
    d_pd_network: float
    d_main_cpu: float
    d_pdm_cpu: float

    @classmethod
    def paper(cls) -> "ISDemands":
        return cls(
            d_pd_cpu=267.0,
            d_pd_network=71.0,
            d_main_cpu=3208.0,
            d_pdm_cpu=267.0,
        )

    @classmethod
    def from_cost_models(cls, daemon_costs, main_costs, batch_size: int) -> "ISDemands":
        """Demands per batch under the simulator's cost decomposition."""
        b = int(batch_size)
        d_pd = daemon_costs.collection_cpu.mean * b + daemon_costs.forward_cpu.mean
        merge = (
            daemon_costs.merge_cpu.mean
            if daemon_costs.merge_cpu is not None
            else daemon_costs.forward_cpu.mean
        )
        return cls(
            d_pd_cpu=d_pd,
            d_pd_network=71.0,
            d_main_cpu=main_costs.receive_cpu.mean + main_costs.per_sample_cpu.mean * b,
            d_pdm_cpu=merge,
        )
