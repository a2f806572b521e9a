"""Metric collection for ROCC simulations.

Two latency definitions coexist in the paper (reconciled here, see
EXPERIMENTS.md):

* **forwarding latency** — residence time of a forwarding unit (sample
  under CF, batch under BF) in the daemon-CPU + network tandem, i.e.
  equation (4)'s R(λ).  This is what the NOW/SMP figures plot: it is
  *lower* under BF (fewer forwarding operations → less contention).
* **total latency** — sample creation to receipt at the main process,
  *including* batch accumulation wait (≈ b·T/2 under BF).  This is what
  the MPP figures plot: it is *higher* under BF, the trade-off §4.4.2
  discusses.

:class:`Metrics` accumulates raw counters during the run;
:class:`SimulationResults` is the frozen outcome with every metric the
paper reports, already averaged/normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from .._lazy import lazy_module
from ..des.monitor import Tally

np = lazy_module("numpy", globals())
# Simulating runs only: a warm rerun unpickles results without loading it.
array = lazy_module("array", globals())

__all__ = ["Metrics", "NodeCounter", "SimulationResults", "sorted_percentile"]


def sorted_percentile(ordered, q: float) -> float:
    """The *q*-th percentile (0–100) of the ascending sequence *ordered*.

    Bit for bit what ``np.percentile`` returns with its default
    ``method="linear"``: virtual index ``(n - 1) * q / 100``, then numpy's
    two-sided lerp between its neighbours.  At the top end numpy takes
    both neighbours at index -1, so its weight is ``index + 1``; that is
    why a lone ``-0.0`` keeps its sign while the top of a longer series
    of ``-0.0`` comes back as ``0.0``.  ``np.percentile`` itself calls
    ``np.unique``, which loads ``numpy.ma`` (1.3 MiB) into every
    simulating process.
    """
    n = len(ordered)
    index = (n - 1) * (q / 100)
    if index >= n - 1:
        a = b = ordered[n - 1]
        t = index + 1
    else:
        lo = int(index)
        a = ordered[lo]
        b = ordered[lo + 1]
        t = index - lo
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def _fold(name: str, series) -> Tally:
    """A :class:`Tally` that observed *series* in order."""
    tally = Tally(name)
    observe = tally.observe
    for value in series:
        observe(value)
    return tally


class NodeCounter:
    """Per-node event counter backed by one growing list.

    Struct-of-arrays replacement for the former per-metric dicts: node
    ids are small dense integers, so a list indexed by node is both
    smaller and faster than hashing the id on every count.  The mapping
    interface (:meth:`values`, indexing) matches how the
    results aggregation consumed the dicts.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: List[int] = []

    def add(self, node: int, n: int = 1) -> None:
        """Add *n* to *node*'s count, growing the table as needed."""
        counts = self._counts
        grow = node + 1 - len(counts)
        if grow > 0:
            counts.extend([0] * grow)
        counts[node] += n

    def __getitem__(self, node: int) -> int:
        if 0 <= node < len(self._counts):
            return self._counts[node]
        return 0

    def get(self, node: int, default: int = 0) -> int:
        if 0 <= node < len(self._counts):
            return self._counts[node]
        return default

    def values(self) -> List[int]:
        return list(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return any(self._counts)

    def to_dict(self) -> Dict[int, int]:
        """Sparse mapping view (zero counts omitted), the old dict shape."""
        return {i: c for i, c in enumerate(self._counts) if c}

    def __eq__(self, other) -> bool:
        if isinstance(other, NodeCounter):
            return self.to_dict() == other.to_dict()
        if isinstance(other, dict):
            return self.to_dict() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeCounter({self.to_dict()!r})"


class Metrics:
    """Mutable accumulator attached to one simulation run.

    The receipt path is the busiest metric site, so each counted receipt
    appends its two latencies to two ``array('d')`` series (8 bytes
    each, no cap).  The latency tallies are folded from those series in
    receipt order when read, so means and variances are bit-identical to
    eager observation, and percentiles (:meth:`latency_percentiles`) are
    exact order statistics of every receipt at any run length.
    """

    def __init__(self) -> None:
        #: Measurement epoch: samples created before this simulation time
        #: are invisible to receipt accounting.  Set by :meth:`reset` at
        #: the warmup boundary so that samples generated before warmup
        #: but delivered after it are counted on *neither* side of the
        #: conservation equation (generated = received + in-flight).
        self.epoch = 0.0
        #: Forwarding-unit residence time (ready → receipt) per receipt, µs.
        self._lat_fwd = array.array("d")
        #: Sample creation → receipt, incl. batch accumulation, µs.
        self._lat_total = array.array("d")
        self.samples_generated = 0
        self.samples_received = 0
        self.batches_received = 0
        #: Samples forwarded per daemon node (local throughput numerator).
        self.forwarded_by_node = NodeCounter()
        #: Forwarding calls (system calls) per daemon node.
        self.forward_calls_by_node = NodeCounter()
        #: Merge operations performed by tree daemons, per node.
        self.merges_by_node = NodeCounter()
        #: Total time application writers spent blocked on full pipes, µs.
        self.pipe_blocked_time = 0.0
        self.pipe_blocked_puts = 0
        #: Completed application compute/communicate cycles.
        self.app_cycles = 0
        #: Barrier waits observed (sum of per-process wait time), µs.
        self.barrier_wait_time = 0.0
        self.barrier_rounds = 0

    def reset(self, now: float = 0.0) -> None:
        """Restart all accumulators (used at the end of warmup).

        *now* becomes the new measurement :attr:`epoch`: samples created
        before it no longer count as received.
        """
        self.__init__()
        self.epoch = float(now)

    @property
    def latency_forwarding(self) -> Tally:
        """A fresh tally per read: observing into it changes no metric."""
        return _fold("latency_forwarding", self._lat_fwd)

    @property
    def latency_total(self) -> Tally:
        return _fold("latency_total", self._lat_total)

    def latency_percentiles(self, qs=(50.0, 90.0, 99.0)) -> Dict[float, float]:
        """Exact order statistics of the forwarding latency.

        Raises :class:`ValueError` for quantiles outside [0, 100] and for
        a series holding non-finite values.  No receipts yield NaNs, the
        explicit "no data" flag.
        """
        if any(not 0.0 <= q <= 100.0 for q in qs):
            raise ValueError(f"quantiles must lie in [0, 100]: {qs}")
        if not self._lat_fwd:
            return {q: math.nan for q in qs}
        ordered = np.sort(self._lat_fwd)
        if not np.all(np.isfinite(ordered)):
            raise ValueError("non-finite forwarding latency observed")
        return {q: sorted_percentile(ordered, q) for q in qs}

    def note_forward(self, node: int, n_samples: int) -> None:
        self.forwarded_by_node.add(node, n_samples)
        self.forward_calls_by_node.add(node)

    def note_merge(self, node: int) -> None:
        self.merges_by_node.add(node)

    def note_receipt(self, now: float, created_at: float, ready_at: float) -> bool:
        """Record one sample's receipt; returns whether it was counted.

        Samples created before the measurement :attr:`epoch` (i.e. before
        the warmup boundary) are ignored — they were never counted as
        generated, so counting their receipt would break conservation.
        """
        if created_at < self.epoch:
            return False
        self.samples_received += 1
        self._lat_total.append(now - created_at)
        self._lat_fwd.append(now - ready_at)
        return True


@dataclass
class SimulationResults:
    """Frozen outcome of one ROCC simulation run.

    Times are in µs unless stated; utilizations are fractions in [0, 1].
    "Per node" quantities are averaged over nodes for the global level
    of detail; ``node0_*`` fields give the arbitrarily-selected single
    node used by the paper's local level of detail.
    """

    # Run identity.
    config_summary: str
    duration: float  # measured duration (post-warmup), µs
    nodes: int

    # Direct IS overhead (per node averages).
    pd_cpu_time_per_node: float
    main_cpu_time: float
    pvmd_cpu_time_per_node: float = 0.0
    other_cpu_time_per_node: float = 0.0
    app_cpu_time_per_node: float = 0.0

    # Single-node (local detail) values.
    node0_pd_cpu_time: float = 0.0
    node0_app_cpu_time: float = 0.0

    # Utilizations.
    pd_cpu_utilization_per_node: float = 0.0
    app_cpu_utilization_per_node: float = 0.0
    main_cpu_utilization: float = 0.0
    is_cpu_utilization_per_node: float = 0.0
    network_utilization: float = 0.0
    pd_network_utilization: float = 0.0

    # Latency / throughput.
    monitoring_latency_forwarding: float = float("nan")
    monitoring_latency_total: float = float("nan")
    # Exact order statistics of the forwarding latency (µs), computed
    # from every counted receipt at finalize time.
    monitoring_latency_p50: float = float("nan")
    monitoring_latency_p90: float = float("nan")
    monitoring_latency_p99: float = float("nan")
    throughput_per_daemon: float = 0.0  # samples forwarded / sec / daemon
    received_throughput: float = 0.0  # samples received at main / sec

    # Counters.
    samples_generated: int = 0
    samples_received: int = 0
    batches_received: int = 0
    forward_calls_per_node: float = 0.0
    merges_total: int = 0

    # Pipe / barrier diagnostics.
    pipe_blocked_time: float = 0.0
    pipe_blocked_puts: int = 0
    barrier_wait_time: float = 0.0
    barrier_rounds: int = 0
    app_cycles: int = 0

    # Raw per-node CPU busy breakdown (µs), keyed by (node, process type).
    cpu_busy: Dict = field(default_factory=dict, repr=False)

    # Observability provenance (repro.obs): empty dict when the run was
    # untraced; span/counter-sample counts for this run when traced.
    observability: Dict = field(default_factory=dict, repr=False)

    # -- convenience -----------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        return self.duration / 1e6

    @property
    def pd_cpu_seconds_per_node(self) -> float:
        """Direct Pd overhead as CPU-seconds (Table 4/5/6 units)."""
        return self.pd_cpu_time_per_node / 1e6

    @property
    def main_cpu_seconds(self) -> float:
        return self.main_cpu_time / 1e6

    @property
    def is_cpu_seconds_per_node(self) -> float:
        """IS (daemons + main) CPU-seconds per node — Table 5 units."""
        return (self.pd_cpu_time_per_node + self.main_cpu_time / self.nodes) / 1e6

    @property
    def monitoring_latency_forwarding_ms(self) -> float:
        return self.monitoring_latency_forwarding / 1e3

    @property
    def monitoring_latency_total_ms(self) -> float:
        return self.monitoring_latency_total / 1e3

    @property
    def delivery_ratio(self) -> float:
        """Fraction of generated samples that reached the main process."""
        if self.samples_generated == 0:
            return float("nan")
        return self.samples_received / self.samples_generated
