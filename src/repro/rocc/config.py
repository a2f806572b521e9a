"""Configuration of a ROCC / Paradyn-IS simulation run.

:class:`SimulationConfig` gathers every factor the paper's experiments
vary — architecture, node count, sampling period, forwarding policy
(batch size), forwarding topology, application mix, barrier frequency —
plus the cost decompositions that make the CF/BF comparison meaningful
(per-sample collection vs. per-call forwarding work; see DESIGN.md §2).

All times are microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional

from ..faults.recovery import RecoveryPolicy
from ..faults.spec import FaultPlan
from ..variates.distributions import Distribution, Exponential
from ..workload.parameters import (
    TYPICAL_SAMPLING_PERIOD_US,
    WorkloadParameters,
)

if TYPE_CHECKING:  # imported where used: few runs drive open workloads
    from ..workload.generators import TrafficSpec

__all__ = [
    "Architecture",
    "ForwardingTopology",
    "NetworkMode",
    "DaemonCostModel",
    "MainCostModel",
    "SimulationConfig",
]


class Architecture(str, Enum):
    """The three system classes of the study (§4)."""

    NOW = "now"
    SMP = "smp"
    MPP = "mpp"


class ForwardingTopology(str, Enum):
    """How daemons route data to the main process (MPP options, §2.1)."""

    DIRECT = "direct"
    TREE = "tree"


class NetworkMode(str, Enum):
    """Interconnect contention model."""

    SHARED = "shared"  # single FIFO server: Ethernet (NOW) or bus (SMP)
    CONTENTION_FREE = "contention_free"  # MPP scalable network


@dataclass
class DaemonCostModel:
    """CPU cost decomposition of the Paradyn daemon.

    Table 2 gives a single Exponential(267) CPU request per sample under
    the (then-only) CF policy.  Splitting it into a per-sample
    *collection* part and a per-call *forwarding* (system call + send)
    part is what makes batching pay off: under BF the forwarding part is
    amortized over the batch.  The 1/3–2/3 split reproduces the >60 %
    overhead reduction measured in Section 5; the total under CF stays
    Exponential-with-mean-267 either way.
    """

    collection_cpu: Distribution = field(
        default_factory=lambda: Exponential(267.0 / 3.0)
    )
    forward_cpu: Distribution = field(
        default_factory=lambda: Exponential(267.0 * 2.0 / 3.0)
    )
    #: Marginal CPU cost of adding one sample to an outgoing batch, µs
    #: (copying into the send buffer); zero keeps the analytic 1/b law.
    per_sample_batch_cpu: float = 0.0
    #: CPU cost of merging one received en-route batch (tree forwarding);
    #: ``None`` means "same as forward_cpu", matching D_Pdm = D_Pd.
    merge_cpu: Optional[Distribution] = None
    #: Marginal network occupancy per extra sample in a batch, µs.  The
    #: paper's model keeps network occupancy per forward constant
    #: ("the network occupancy needed for forwarding a merged sample is
    #: the same as for forwarding a local sample"), hence 0.
    per_sample_network: float = 0.0
    #: Maximum samples the daemon drains from the pipe per CPU
    #: acquisition.  The real daemon reads every available sample per
    #: wakeup; 1 degenerates to one-scheduling-round-per-sample, which
    #: starves the daemon behind CPU-bound applications under strict RR.
    collection_burst: int = 64


@dataclass
class MainCostModel:
    """CPU cost decomposition of the main Paradyn process.

    Receipt of a message costs ``receive_cpu`` (system call, wakeup);
    each sample in it costs ``per_sample_cpu`` (metric distribution to
    Data Manager threads).  The 80/20 split reproduces the ~80 %
    main-process overhead reduction of Figure 30; the absolute scale
    (500 µs per CF sample) is chosen so the main process's CPU
    utilization matches the paper's Figure 18/19 operating range —
    Table 1's 3208 µs is the distribution of the main process's CPU
    *bursts* (which cover UI and Performance Consultant work), not its
    marginal per-sample cost, and would saturate the host at the
    paper's own node counts.
    """

    receive_cpu: Distribution = field(default_factory=lambda: Exponential(400.0))
    per_sample_cpu: Distribution = field(default_factory=lambda: Exponential(100.0))


@dataclass
class SimulationConfig:
    """Every knob of one ROCC simulation experiment."""

    # -- architecture ----------------------------------------------------
    architecture: Architecture = Architecture.NOW
    #: Node count (NOW/MPP) or CPU count (SMP).
    nodes: int = 8
    #: CPUs per node (NOW/MPP; the SMP pools ``nodes`` CPUs).
    cpus_per_node: int = 1
    #: Interconnect model; ``None`` selects the architecture default
    #: (NOW/SMP shared, MPP contention-free).
    network_mode: Optional[NetworkMode] = None

    # -- IS configuration --------------------------------------------------
    #: Performance-data sampling period, µs.
    sampling_period: float = TYPICAL_SAMPLING_PERIOD_US
    #: Samples per forwarding call: 1 = CF policy, >1 = BF policy.
    batch_size: int = 1
    #: Optional BF flush interval, µs: a partial batch older than this is
    #: forwarded anyway (extension beyond the paper; ``None`` = off).
    batch_flush_timeout: Optional[float] = None
    #: Data-forwarding topology (MPP supports TREE).
    forwarding: ForwardingTopology = ForwardingTopology.DIRECT
    #: Paradyn daemons. NOW/MPP run one per node (this field is ignored);
    #: the SMP shares ``daemons`` daemons among all CPUs (§4.3.2).
    daemons: int = 1
    #: Pipe capacity per application process, samples.
    pipe_capacity: int = 128
    #: Mean service time (µs) of a FIFO ingress stage at the main
    #: process's host — the "single server buffer" of the paper's
    #: Figure 2 that serializes arrivals from all daemons.  ``None``
    #: stamps receipt at network delivery (the default model).  Enabling
    #: it makes monitoring latency sensitive to the total arrival rate
    #: (node count), at the cost of unbounded latency when the central
    #: stage saturates; see EXPERIMENTS.md figure25.
    central_ingress: Optional[float] = None

    # -- application -----------------------------------------------------
    #: Application processes per node (NOW/MPP) or in total (SMP).
    app_processes_per_node: int = 1
    #: Whether application processes are instrumented at all (False
    #: simulates the uninstrumented baseline curves of Figs 17–27).
    instrumented: bool = True
    #: Barrier period: amount of per-process CPU work between global
    #: synchronization barriers, µs (``None`` = no barriers; Figure 28).
    barrier_period: Optional[float] = None
    #: Include PVM daemon background load.
    include_pvmd: bool = True
    #: Include other user/system background load.
    include_other: bool = True

    # -- workload and costs ------------------------------------------------
    workload: WorkloadParameters = field(default_factory=WorkloadParameters)
    daemon_costs: DaemonCostModel = field(default_factory=DaemonCostModel)
    main_costs: MainCostModel = field(default_factory=MainCostModel)
    #: Optional open-workload traffic driving externally-arriving
    #: requests into the monitored nodes, alongside the closed per-node
    #: application loops (a :class:`~repro.workload.generators.TrafficSpec`,
    #: a CLI string ``NAME[:k=v,...]``, or a ``{"name": ...}`` dict,
    #: coerced).  ``None`` = the paper's closed model only.
    traffic: Optional[TrafficSpec] = None

    # -- adaptive IS management (§6 extension; see repro.rocc.adaptive) ----
    #: A ``RegulatorConfig`` enabling per-node overhead regulation, or
    #: ``None`` for the paper's static policies.
    adaptive: Optional[object] = None

    # -- fault injection and recovery (repro.faults) -----------------------
    #: A :class:`~repro.faults.spec.FaultPlan` (or a single spec / list
    #: of specs, coerced) of faults to inject; ``None`` = ideal IS.
    faults: Optional[FaultPlan] = None
    #: How daemons react to lost / timed-out forwards; ``None`` applies
    #: :meth:`RecoveryPolicy.drop_only` semantics (no retries).
    recovery: Optional[RecoveryPolicy] = None

    # -- run control --------------------------------------------------------
    #: Simulated duration, µs (paper runs 100 s; sweeps here use less).
    duration: float = 10_000_000.0
    #: Statistics are discarded before this time, µs.
    warmup: float = 0.0
    seed: int = 0
    replication: int = 0
    #: Watchdog: abort the run with ``SimulationStalled`` after this many
    #: kernel events (``None`` = unlimited).
    max_events: Optional[int] = None
    #: Watchdog: abort after this much host wall-clock time, seconds.
    max_wall_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.cpus_per_node < 1:
            raise ValueError("cpus_per_node must be >= 1")
        if self.sampling_period <= 0:
            raise ValueError("sampling_period must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_flush_timeout is not None and self.batch_flush_timeout <= 0:
            raise ValueError("batch_flush_timeout must be positive (or None)")
        if self.daemons < 1:
            raise ValueError("daemons must be >= 1")
        if self.pipe_capacity < 1:
            raise ValueError("pipe_capacity must be >= 1 sample")
        if self.central_ingress is not None and self.central_ingress <= 0:
            raise ValueError(
                "central_ingress mean service time must be positive (or None)"
            )
        if self.app_processes_per_node < 1:
            raise ValueError("app_processes_per_node must be >= 1")
        if self.workload.cpu_quantum <= 0:
            raise ValueError("workload.cpu_quantum must be positive")
        if self.daemon_costs.per_sample_batch_cpu < 0:
            raise ValueError("daemon_costs.per_sample_batch_cpu must be >= 0")
        if self.daemon_costs.per_sample_network < 0:
            raise ValueError("daemon_costs.per_sample_network must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must lie in [0, duration)")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("max_events must be >= 1 (or None)")
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive (or None)")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            self.faults = FaultPlan.coerce(self.faults)
        if self.traffic is not None:
            from ..workload.generators import TrafficSpec

            if not isinstance(self.traffic, TrafficSpec):
                self.traffic = TrafficSpec.coerce(self.traffic)
            self.traffic.validate()  # unknown name / bad params fail here
        if self.recovery is not None and not isinstance(self.recovery, RecoveryPolicy):
            raise TypeError("recovery must be a RecoveryPolicy (or None)")
        if (
            self.forwarding is ForwardingTopology.TREE
            and self.architecture is not Architecture.MPP
        ):
            raise ValueError("tree forwarding is modeled for the MPP case only")

    @property
    def is_cf(self) -> bool:
        """Collect-and-forward policy (batch size 1)."""
        return self.batch_size == 1

    @property
    def is_bf(self) -> bool:
        """Batch-and-forward policy (batch size > 1)."""
        return self.batch_size > 1

    @property
    def effective_network_mode(self) -> NetworkMode:
        if self.network_mode is not None:
            return self.network_mode
        if self.architecture is Architecture.MPP:
            return NetworkMode.CONTENTION_FREE
        return NetworkMode.SHARED

    @property
    def measured_duration(self) -> float:
        """Duration over which statistics are gathered, µs."""
        return self.duration - self.warmup

    def with_(self, **changes) -> "SimulationConfig":
        """Functional update (convenience for parameter sweeps)."""
        return replace(self, **changes)
