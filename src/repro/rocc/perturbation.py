"""Instrumentation perturbation analysis.

The paper's motivation (§1) cites measurement studies showing the IS
"degrading the performance of an instrumented application program from
10 % to more than 50 %" (Malony/Reed/Wijshoff's perturbation analysis,
Gu et al., Miller et al.).  :class:`PerturbationReport` quantifies that
effect for one configuration from two runs of the ROCC model, with and
without instrumentation, on common random numbers (the ``perturbation``
artifact builds them as engine cells) and reports the slowdown
decomposition.

Direct overhead (IS CPU occupancy) and *indirect* perturbation (lost
application progress beyond the direct CPU the IS consumed — queueing
displacement, pipe blocking, network contention) are reported
separately, which is exactly the distinction perturbation-compensation
work cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import SimulationResults

__all__ = ["PerturbationReport"]


@dataclass(frozen=True)
class PerturbationReport:
    """Instrumented-vs-baseline comparison for one configuration."""

    instrumented: SimulationResults
    baseline: SimulationResults

    @property
    def app_progress_ratio(self) -> float:
        """Instrumented application progress relative to baseline
        (completed compute/communicate cycles)."""
        if self.baseline.app_cycles == 0:
            return float("nan")
        return self.instrumented.app_cycles / self.baseline.app_cycles

    @property
    def slowdown_percent(self) -> float:
        """Application slowdown caused by instrumentation, in percent."""
        return 100.0 * (1.0 - self.app_progress_ratio)

    @property
    def direct_overhead_percent(self) -> float:
        """Daemon CPU occupancy as a share of per-node CPU capacity.

        Only the on-node IS work counts: the main Paradyn process runs
        on its own host workstation (Figure 1) and cannot displace the
        application directly.
        """
        r = self.instrumented
        return 100.0 * r.pd_cpu_utilization_per_node

    @property
    def indirect_percent(self) -> float:
        """Perturbation not explained by direct CPU theft: blocking on
        full pipes, displaced scheduling, network contention.

        May be *negative* when the daemon's CPU came out of time the
        application would have spent waiting anyway (network bursts) —
        direct occupancy then overstates the damage.
        """
        return self.slowdown_percent - self.direct_overhead_percent

    @property
    def app_cpu_delta_percent(self) -> float:
        """Change in application CPU occupancy (utilization points)."""
        return 100.0 * (
            self.baseline.app_cpu_utilization_per_node
            - self.instrumented.app_cpu_utilization_per_node
        )

    def summary(self) -> str:
        return (
            f"slowdown {self.slowdown_percent:.2f}% "
            f"(direct {self.direct_overhead_percent:.2f}%, "
            f"indirect {self.indirect_percent:.2f}%); "
            f"app CPU -{self.app_cpu_delta_percent:.2f} pts"
        )

