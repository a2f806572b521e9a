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
from typing import Dict, List, Optional

from .._lazy import lazy_module
from ..des.monitor import P2Quantile, ReservoirSample, Tally

np = lazy_module("numpy", globals())

__all__ = ["Metrics", "NodeCounter", "SimulationResults", "sorted_percentile"]

#: Latency observations kept as an exact raw series.  Below this cap,
#: percentiles are exact order statistics (:func:`sorted_percentile`);
#: past it the recorder switches to O(1)-memory streaming estimators (P²
#: for p50/p90/p99, a reservoir for other quantiles), keeping peak RSS
#: flat for arbitrarily long runs.
RAW_LATENCY_CAP = 65536

#: Reservoir size once the raw series overflows.
_RESERVOIR_SIZE = 4096


def sorted_percentile(ordered, q: float) -> float:
    """The *q*-th percentile (0–100) of the ascending sequence *ordered*.

    Bit for bit what ``np.percentile`` returns with its default
    ``method="linear"``: virtual index ``(n - 1) * q / 100``, then numpy's
    two-sided lerp between its neighbours.  ``np.percentile`` itself calls
    ``np.unique``, which loads ``numpy.ma`` (1.3 MiB) into every
    simulating process.
    """
    n = len(ordered)
    index = (n - 1) * (q / 100)
    lo = int(index)
    if lo >= n - 1:
        return float(ordered[-1])
    a, b = ordered[lo], ordered[lo + 1]
    t = index - lo
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


class NodeCounter:
    """Per-node event counter backed by one growing list.

    Struct-of-arrays replacement for the former per-metric dicts: node
    ids are small dense integers, so a list indexed by node is both
    smaller and faster than hashing the id on every count.  The mapping
    interface (:meth:`values`, :meth:`items`, indexing) matches how the
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

    def items(self):
        return list(enumerate(self._counts))

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

    The receipt path is the busiest metric site, so latencies are
    buffered as raw floats (one list append each) and folded into their
    :class:`~repro.des.monitor.Tally` objects lazily, the first time a
    tally is read.  The fold replays values in arrival order, so means
    and variances are bit-identical to eager observation.  The raw
    series also makes order statistics (:meth:`latency_percentiles`)
    available at finalize time, which a streaming tally cannot provide.
    """

    def __init__(self) -> None:
        #: Measurement epoch: samples created before this simulation time
        #: are invisible to receipt accounting.  Set by :meth:`reset` at
        #: the warmup boundary so that samples generated before warmup
        #: but delivered after it are counted on *neither* side of the
        #: conservation equation (generated = received + in-flight).
        self.epoch = 0.0
        #: Forwarding-unit residence time (ready → receipt), µs.
        self._lat_fwd = Tally("latency_forwarding")
        #: Sample creation → receipt, incl. batch accumulation, µs.
        self._lat_total = Tally("latency_total")
        self._lat_fwd_raw: List[float] = []
        self._lat_total_raw: List[float] = []
        self._lat_fwd_flushed = 0
        self._lat_total_flushed = 0
        #: Exact-retention cap for the raw latency series (see
        #: :data:`RAW_LATENCY_CAP`; tests shrink it to exercise the
        #: streaming path cheaply).
        self.raw_cap = RAW_LATENCY_CAP
        self._lat_fwd_p2: Optional[List[P2Quantile]] = None
        self._lat_fwd_res: Optional[ReservoirSample] = None
        self._lat_fwd_streamed = 0
        self._lat_total_streamed = 0
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

    # -- lazily-folded latency tallies ---------------------------------
    def _flush_fwd(self) -> None:
        raw = self._lat_fwd_raw
        i = self._lat_fwd_flushed
        if i < len(raw):
            observe = self._lat_fwd.observe
            for k in range(i, len(raw)):
                observe(raw[k])
            self._lat_fwd_flushed = len(raw)

    def _flush_total(self) -> None:
        raw = self._lat_total_raw
        i = self._lat_total_flushed
        if i < len(raw):
            observe = self._lat_total.observe
            for k in range(i, len(raw)):
                observe(raw[k])
            self._lat_total_flushed = len(raw)

    @property
    def latency_forwarding(self) -> Tally:
        self._flush_fwd()
        return self._lat_fwd

    @latency_forwarding.setter
    def latency_forwarding(self, tally: Tally) -> None:
        # Values buffered so far belong to the tally being replaced, and
        # so does the raw series: restarting it keeps
        # :meth:`latency_percentiles` consistent with the new tally
        # instead of mixing observations across the replacement.
        self._flush_fwd()
        self._lat_fwd = tally
        self._lat_fwd_raw = []
        self._lat_fwd_flushed = 0
        self._lat_fwd_p2 = None
        self._lat_fwd_res = None
        self._lat_fwd_streamed = 0

    @property
    def latency_total(self) -> Tally:
        self._flush_total()
        return self._lat_total

    @latency_total.setter
    def latency_total(self, tally: Tally) -> None:
        self._flush_total()
        self._lat_total = tally
        self._lat_total_raw = []
        self._lat_total_flushed = 0
        self._lat_total_streamed = 0

    def _stream_fwd(self, value: float) -> None:
        """Fold one forwarding latency past the raw cap (O(1) memory)."""
        p2 = self._lat_fwd_p2
        if p2 is None:
            # First overflow: flush the exact prefix into the tally (so
            # later direct observes keep arrival order) and seed the
            # streaming estimators with it, so they describe the whole
            # stream, not just the tail.
            self._flush_fwd()
            p2 = [P2Quantile(0.5), P2Quantile(0.9), P2Quantile(0.99)]
            res = ReservoirSample(_RESERVOIR_SIZE, name="latency_forwarding")
            for v in self._lat_fwd_raw:
                p2[0].observe(v)
                p2[1].observe(v)
                p2[2].observe(v)
                res.observe(v)
            self._lat_fwd_p2 = p2
            self._lat_fwd_res = res
        self._lat_fwd.observe(value)
        p2[0].observe(value)
        p2[1].observe(value)
        p2[2].observe(value)
        self._lat_fwd_res.observe(value)
        self._lat_fwd_streamed += 1

    def latency_percentiles(self, qs=(50.0, 90.0, 99.0)) -> Dict[float, float]:
        """Order statistics of the forwarding latency, from the raw series.

        Raises :class:`ValueError` instead of silently returning garbage
        when the raw series cannot support the request: quantiles outside
        [0, 100], a series containing non-finite values, or a series that
        has fallen out of sync with the forwarding tally (someone observed
        the tally directly, bypassing :meth:`note_receipt`).  An empty
        series (no samples received) yields NaNs, the explicit
        "no data" flag.
        """
        if any(not 0.0 <= q <= 100.0 for q in qs):
            raise ValueError(f"quantiles must lie in [0, 100]: {qs}")
        if not self._lat_fwd_raw:
            if self._lat_fwd.count > 0:
                raise ValueError(
                    "forwarding-latency tally holds observations the raw "
                    "series never saw; percentiles would not describe the "
                    "same data (observe via note_receipt, not the tally)"
                )
            return {q: math.nan for q in qs}
        self._flush_fwd()
        observed = len(self._lat_fwd_raw) + self._lat_fwd_streamed
        if self._lat_fwd.count != observed:
            raise ValueError(
                "raw latency series out of sync with the forwarding tally "
                f"({observed} raw vs {self._lat_fwd.count} "
                "tallied); percentiles would mix data sets"
            )
        arr = np.asarray(self._lat_fwd_raw)
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite forwarding latency observed")
        if self._lat_fwd_p2 is None:
            # Exact path: the whole stream is retained.
            ordered = np.sort(arr)
            return {q: sorted_percentile(ordered, q) for q in qs}
        # Streaming path: P² estimates for the canonical percentiles,
        # reservoir order statistics for anything else.
        res_arr = np.asarray(self._lat_fwd_res.items)
        if not np.all(np.isfinite(res_arr)):
            raise ValueError("non-finite forwarding latency observed")
        p2_by_q = {50.0: self._lat_fwd_p2[0], 90.0: self._lat_fwd_p2[1],
                   99.0: self._lat_fwd_p2[2]}
        ordered = np.sort(res_arr)
        out: Dict[float, float] = {}
        for q in qs:
            est = p2_by_q.get(float(q))
            if est is not None:
                out[q] = est.value
            else:
                out[q] = sorted_percentile(ordered, q)
        return out

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

        The first :attr:`raw_cap` latencies are buffered exactly (one
        list append); past the cap the recorder streams into O(1)-memory
        estimators so long runs stay memory-flat.
        """
        if created_at < self.epoch:
            return False
        self.samples_received += 1
        raw = self._lat_total_raw
        if len(raw) < self.raw_cap:
            raw.append(now - created_at)
        else:
            self._flush_total()
            self._lat_total.observe(now - created_at)
            self._lat_total_streamed += 1
        raw = self._lat_fwd_raw
        if len(raw) < self.raw_cap:
            raw.append(now - ready_at)
        else:
            self._stream_fwd(now - ready_at)
        return True

    def _has_receipts(self) -> bool:
        return bool(
            self.samples_received
            or self._lat_fwd_raw
            or self._lat_fwd.count
            or self._lat_total_raw
            or self._lat_total.count
        )

    def merge(self, other: "Metrics") -> None:
        """Fold another kernel fragment's accumulators into this one.

        Used by the parallel in-cell kernel (:mod:`repro.des.parallel`)
        to combine per-LP metrics into one run total.  Counters sum;
        per-node counters add node-wise (node ids are global across
        LPs, so the key spaces are disjoint in practice).

        The latency recorders (raw series, tallies, streaming
        estimators) are *adopted*, not merged: receipt order determines
        their bit-exact state, and only the LP hosting the main Paradyn
        process ever observes receipts.  Merging two fragments that
        both saw receipts would silently discard ordering information,
        so that case raises :class:`ValueError`.
        """
        if other.epoch != self.epoch:
            raise ValueError(
                f"cannot merge metrics with different epochs "
                f"({self.epoch} vs {other.epoch}); run warmup in every LP"
            )
        if other._has_receipts():
            if self._has_receipts():
                raise ValueError(
                    "both metric fragments hold receipt/latency series; "
                    "only the main-process LP may observe receipts"
                )
            self.samples_received = other.samples_received
            self.batches_received = other.batches_received
            self._lat_fwd = other._lat_fwd
            self._lat_total = other._lat_total
            self._lat_fwd_raw = other._lat_fwd_raw
            self._lat_total_raw = other._lat_total_raw
            self._lat_fwd_flushed = other._lat_fwd_flushed
            self._lat_total_flushed = other._lat_total_flushed
            self._lat_fwd_p2 = other._lat_fwd_p2
            self._lat_fwd_res = other._lat_fwd_res
            self._lat_fwd_streamed = other._lat_fwd_streamed
            self._lat_total_streamed = other._lat_total_streamed
        self.samples_generated += other.samples_generated
        for node, n in other.forwarded_by_node.items():
            if n:
                self.forwarded_by_node.add(node, n)
        for node, n in other.forward_calls_by_node.items():
            if n:
                self.forward_calls_by_node.add(node, n)
        for node, n in other.merges_by_node.items():
            if n:
                self.merges_by_node.add(node, n)
        self.pipe_blocked_time += other.pipe_blocked_time
        self.pipe_blocked_puts += other.pipe_blocked_puts
        self.app_cycles += other.app_cycles
        self.barrier_wait_time += other.barrier_wait_time
        self.barrier_rounds += other.barrier_rounds


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
    # Order statistics of the forwarding latency (µs), computed from the
    # raw receipt series at finalize time.
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
