"""Workload parameters of the ROCC model (Table 2 of the paper).

:class:`WorkloadParameters` bundles the request-length and inter-arrival
distributions for every process class, plus the configuration constants
(CPU quantum, typical sampling period).  :data:`PAPER_PARAMETERS` is a
verbatim transcription of Table 2 — the IBM SP-2 / NAS ``pvmbt``
characterization — and is the default everywhere.

All times are in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..variates.distributions import Distribution, Exponential, Lognormal

__all__ = [
    "WorkloadParameters",
    "PAPER_PARAMETERS",
    "CPU_QUANTUM_US",
    "TYPICAL_SAMPLING_PERIOD_US",
]

#: CPU scheduling quantum on the SP-2 nodes (Table 2): 10 ms.
CPU_QUANTUM_US: float = 10_000.0

#: Typical performance-data sampling period (Table 2): 40 ms.
TYPICAL_SAMPLING_PERIOD_US: float = 40_000.0


@dataclass
class WorkloadParameters:
    """Distributions of resource-occupancy requests per process class.

    Field names follow Table 2; the ``Pdm`` merge cost used by binary-
    tree forwarding (equations (13)–(16)) defaults to the Paradyn-daemon
    CPU request since the paper does not parameterize it separately.
    """

    # Application process.
    app_cpu: Distribution = field(default_factory=lambda: Lognormal(2213, 3034))
    app_network: Distribution = field(default_factory=lambda: Exponential(223))

    # Paradyn daemon: per-sample collection/forwarding costs.  Its request
    # inter-arrival time is the sampling period (a simulation factor, not
    # a workload constant).
    pd_cpu: Distribution = field(default_factory=lambda: Exponential(267))
    pd_network: Distribution = field(default_factory=lambda: Exponential(71))

    # PVM daemon.
    pvmd_cpu: Distribution = field(default_factory=lambda: Lognormal(294, 206))
    pvmd_network: Distribution = field(default_factory=lambda: Exponential(58))
    pvmd_interarrival: Distribution = field(default_factory=lambda: Exponential(6485))

    # Other user/system processes.
    other_cpu: Distribution = field(default_factory=lambda: Lognormal(367, 819))
    other_network: Distribution = field(default_factory=lambda: Exponential(92))
    other_cpu_interarrival: Distribution = field(
        default_factory=lambda: Exponential(31_485)
    )
    other_network_interarrival: Distribution = field(
        default_factory=lambda: Exponential(5_598_903)
    )

    # Main Paradyn process (Table 1 measured moments).
    main_cpu: Distribution = field(default_factory=lambda: Lognormal(3208, 3287))
    main_network: Distribution = field(default_factory=lambda: Lognormal(214, 451))

    # Merge cost at non-leaf daemons under binary-tree forwarding.
    pdm_cpu: Optional[Distribution] = None

    # CPU scheduling quantum.
    cpu_quantum: float = CPU_QUANTUM_US

    def __post_init__(self) -> None:
        if self.pdm_cpu is None:
            self.pdm_cpu = self.pd_cpu

    # -- mean service demands (operational analysis inputs) --------------
    @property
    def d_pd_cpu(self) -> float:
        """Mean Paradyn-daemon CPU demand per sample, µs."""
        return self.pd_cpu.mean

    @property
    def d_pd_network(self) -> float:
        """Mean Paradyn-daemon network demand per forward, µs."""
        return self.pd_network.mean

    @property
    def d_pdm_cpu(self) -> float:
        """Mean merge CPU demand at a non-leaf tree daemon, µs."""
        assert self.pdm_cpu is not None
        return self.pdm_cpu.mean

    @property
    def d_main_cpu(self) -> float:
        """Mean main-Paradyn-process CPU demand per received sample, µs."""
        return self.main_cpu.mean

    @property
    def d_app_cpu(self) -> float:
        """Mean application CPU burst, µs."""
        return self.app_cpu.mean

    @property
    def d_app_network(self) -> float:
        """Mean application network burst, µs."""
        return self.app_network.mean

    def with_network_demand(self, mean_us: float) -> "WorkloadParameters":
        """Copy with the application network occupancy changed.

        The factorial experiments toggle "application type" by setting
        this to 200 µs (compute-intensive) or 2000 µs (communication-
        intensive); see §4.2.1.
        """
        return replace(self, app_network=Exponential(mean_us))


#: Table 2, verbatim.
PAPER_PARAMETERS = WorkloadParameters()
