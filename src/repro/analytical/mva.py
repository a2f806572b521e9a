"""Exact Mean Value Analysis for closed single-class queueing networks.

Section 3 notes that the application workload forms a *closed* network
(a process issues one occupancy request at a time) and that MVA could
in principle yield the application throughput — before dismissing it
because it cannot capture the IS/application CPU contention.  We
implement exact MVA anyway: it provides the closed-network half of the
mixed model, is used in tests as an independent cross-check of the
simulator's uninstrumented application throughput, and documents
*why* the paper fell back to equation (6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["MVACenter", "MVAResult", "mva"]


@dataclass(frozen=True)
class MVACenter:
    """One service center: name, per-visit service demand (µs), type.

    ``delay=True`` marks an infinite-server (pure delay) center — e.g.
    a contention-free network — where no queueing occurs.
    """

    name: str
    demand: float
    delay: bool = False


@dataclass
class MVAResult:
    """Outcome of exact MVA at population N."""

    population: int
    throughput: float  # customers per µs
    response_time: float  # µs per cycle through all centers
    center_residence: List[float]
    center_queue: List[float]
    center_utilization: List[float]

    def utilization(self, name: str, centers: Sequence[MVACenter]) -> float:
        for i, c in enumerate(centers):
            if c.name == name:
                return self.center_utilization[i]
        raise KeyError(name)


def mva(
    centers: Sequence[MVACenter],
    population: int,
    think_time: float = 0.0,
) -> MVAResult:
    """Exact single-class MVA (Reiser & Lavenberg recursion).

    Parameters
    ----------
    centers:
        Queueing/delay centers with per-cycle demands ``D_k``.
    population:
        Number of circulating customers N ≥ 1.
    think_time:
        Pure delay Z between cycles, µs (finite, >= 0).

    Raises :class:`ValueError` when the throughput overflows, which
    happens only when every demand is zero and Z is so small (subnormal)
    that N/Z exceeds the largest float: no finite answer exists.
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if any(c.demand < 0 for c in centers):
        raise ValueError("demands must be non-negative")
    if not 0.0 <= think_time < math.inf:
        raise ValueError(f"think_time must be finite and >= 0, got {think_time}")
    K = len(centers)
    queue = [0.0] * K
    throughput = 0.0
    residence = [0.0] * K
    for n in range(1, population + 1):
        for k, c in enumerate(centers):
            if c.delay:
                residence[k] = c.demand
            else:
                residence[k] = c.demand * (1.0 + queue[k])
        total_r = sum(residence)
        throughput = n / (think_time + total_r) if (think_time + total_r) > 0 else 0.0
        if throughput == math.inf:
            raise ValueError(
                f"throughput overflows: population {n} over a cycle of "
                f"{think_time + total_r!r} µs"
            )
        queue = [throughput * r for r in residence]
    utilization = [throughput * c.demand for c in centers]
    return MVAResult(
        population=population,
        throughput=throughput,
        response_time=sum(residence),
        center_residence=list(residence),
        center_queue=list(queue),
        center_utilization=utilization,
    )
