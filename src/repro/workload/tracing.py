"""Synthetic AIX tracing facility.

The paper drives its workload characterization from traces produced by
the SP-2's AIX kernel tracing facility while NAS benchmarks run under
the Paradyn IS.  We have neither the SP-2 nor AIX, so this module
*generates* such traces from a :class:`~repro.workload.nas.BenchmarkProfile`:
for each traced node it plays the per-process occupancy behaviour
forward in (virtual) time and records every CPU/network occupancy
interval as a :class:`~repro.workload.records.TraceRecord`.

The instrumented-application sampling activity is included: every
``sampling_period`` the Paradyn daemon performs one collection (a CPU
request) per application process, and forwarding requests according to
the CF/BF batch size — so traces of the *measured* system in Section 5
can also be produced by this facility (see
:mod:`repro.experiments.validation` for the higher-fidelity path that
uses the full ROCC simulator instead).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..variates.distributions import Distribution
from ..variates.streams import StreamFactory
from .nas import BenchmarkProfile, ProcessProfile
from .records import (
    ProcessType,
    ResourceKind,
    TraceFile,
    TraceRecord,
    TracingConfig,
)

__all__ = ["AIXTraceFacility"]


class AIXTraceFacility:
    """Generates AIX-like occupancy traces for a benchmark profile."""

    def __init__(self, benchmark: BenchmarkProfile, config: Optional[TracingConfig] = None):
        self.benchmark = benchmark
        self.config = config or TracingConfig()

    # ------------------------------------------------------------------
    def trace(self) -> TraceFile:
        """Produce a trace covering every configured node."""
        cfg = self.config
        out = TraceFile()
        for node in range(cfg.nodes):
            streams = StreamFactory(seed=cfg.seed, replication=node)
            out.extend(self._trace_node(node, streams))
        out.sort()
        return out

    # ------------------------------------------------------------------
    def _trace_node(self, node: int, streams: StreamFactory) -> List[TraceRecord]:
        cfg = self.config
        records: List[TraceRecord] = []
        pid = 100  # arbitrary base pid per node

        for i in range(cfg.app_processes_per_node):
            records.extend(
                self._alternating(
                    node,
                    pid + i,
                    ProcessType.APPLICATION,
                    self.benchmark.profile(ProcessType.APPLICATION),
                    streams,
                    f"app{i}",
                )
            )
        pid += cfg.app_processes_per_node

        records.extend(self._paradyn_daemon(node, pid, streams))
        pid += 1

        records.extend(
            self._open_process(
                node,
                pid,
                ProcessType.PVM_DAEMON,
                self.benchmark.profile(ProcessType.PVM_DAEMON),
                streams,
                "pvmd",
            )
        )
        pid += 1

        records.extend(
            self._open_process(
                node,
                pid,
                ProcessType.OTHER,
                self.benchmark.profile(ProcessType.OTHER),
                streams,
                "other",
            )
        )
        pid += 1

        if cfg.trace_main_process:
            records.extend(self._main_process(node, pid, streams))
        return records

    # ------------------------------------------------------------------
    def _alternating(
        self,
        node: int,
        pid: int,
        ptype: ProcessType,
        profile: ProcessProfile,
        streams: StreamFactory,
        stream_name: str,
    ) -> List[TraceRecord]:
        """Closed, Figure-7 style process: CPU burst then network burst."""
        cfg = self.config
        cpu = streams.variates(f"{stream_name}/cpu", profile.cpu)
        net = streams.variates(f"{stream_name}/network", profile.network)
        records: List[TraceRecord] = []
        t = 0.0
        while t < cfg.duration:
            c = cpu()
            records.append(
                TraceRecord(t, node, pid, ptype, ResourceKind.CPU, c)
            )
            t += c
            if t >= cfg.duration:
                break
            n = net()
            records.append(
                TraceRecord(t, node, pid, ptype, ResourceKind.NETWORK, n)
            )
            t += n
        return records

    def _open_process(
        self,
        node: int,
        pid: int,
        ptype: ProcessType,
        profile: ProcessProfile,
        streams: StreamFactory,
        stream_name: str,
    ) -> List[TraceRecord]:
        """Open process: requests arrive on independent clocks."""
        cfg = self.config
        records: List[TraceRecord] = []
        if profile.cpu_interarrival is not None:
            records.extend(
                self._arrival_driven(
                    node, pid, ptype, ResourceKind.CPU,
                    profile.cpu, profile.cpu_interarrival,
                    streams, f"{stream_name}/cpu",
                )
            )
        if profile.network_interarrival is not None:
            records.extend(
                self._arrival_driven(
                    node, pid, ptype, ResourceKind.NETWORK,
                    profile.network, profile.network_interarrival,
                    streams, f"{stream_name}/network",
                )
            )
        return records

    def _arrival_driven(
        self,
        node: int,
        pid: int,
        ptype: ProcessType,
        resource: ResourceKind,
        length: Distribution,
        interarrival: Distribution,
        streams: StreamFactory,
        stream_name: str,
    ) -> List[TraceRecord]:
        cfg = self.config
        # Vectorized arrival generation (hot path for long traces).
        rng = streams.generator(stream_name)
        est = max(16, int(cfg.duration / max(interarrival.mean, 1e-9) * 1.3) + 16)
        gaps = np.asarray(interarrival.sample(rng, est), dtype=float)
        times = np.cumsum(gaps)
        while times.size and times[-1] < cfg.duration:
            more = np.asarray(interarrival.sample(rng, est), dtype=float)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        times = times[times < cfg.duration]
        lengths = np.asarray(length.sample(rng, times.size), dtype=float)
        return [
            TraceRecord(float(t), node, pid, ptype, resource, float(d))
            for t, d in zip(times, lengths)
        ]

    def _paradyn_daemon(
        self, node: int, pid: int, streams: StreamFactory
    ) -> List[TraceRecord]:
        """Daemon records: one collection per app process per period, plus
        forwarding requests every ``batch_size`` samples."""
        cfg = self.config
        profile = self.benchmark.profile(ProcessType.PARADYN_DAEMON)
        cpu = streams.variates("pd/cpu", profile.cpu)
        net = streams.variates("pd/network", profile.network)
        records: List[TraceRecord] = []
        t = cfg.sampling_period
        pending = 0
        while t < cfg.duration:
            for _ in range(cfg.app_processes_per_node):
                c = cpu()
                records.append(
                    TraceRecord(t, node, pid, ProcessType.PARADYN_DAEMON,
                                ResourceKind.CPU, c)
                )
                pending += 1
                if pending >= cfg.batch_size:
                    n = net()
                    records.append(
                        TraceRecord(t + c, node, pid, ProcessType.PARADYN_DAEMON,
                                    ResourceKind.NETWORK, n)
                    )
                    pending = 0
            t += cfg.sampling_period
        return records

    def _main_process(
        self, node: int, pid: int, streams: StreamFactory
    ) -> List[TraceRecord]:
        """Main Paradyn process: consumes one batch arrival per period."""
        cfg = self.config
        profile = self.benchmark.profile(ProcessType.PARADYN_MAIN)
        cpu = streams.variates("main/cpu", profile.cpu)
        net = streams.variates("main/network", profile.network)
        records: List[TraceRecord] = []
        t = cfg.sampling_period
        period = cfg.sampling_period * cfg.batch_size
        while t < cfg.duration:
            c = cpu()
            records.append(
                TraceRecord(t, node, pid, ProcessType.PARADYN_MAIN,
                            ResourceKind.CPU, c)
            )
            n = net()
            records.append(
                TraceRecord(t + c, node, pid, ProcessType.PARADYN_MAIN,
                            ResourceKind.NETWORK, n)
            )
            t += period
        return records
