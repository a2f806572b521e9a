"""Full-system ROCC simulation: builds and runs NOW / SMP / MPP models.

:func:`simulate` is the package's main entry point: it wires the
architecture described by a :class:`~repro.rocc.config.SimulationConfig`
— nodes with round-robin CPUs, the interconnect, pipes, application
processes, Paradyn daemons, background load, and the main Paradyn
process — runs it for ``config.duration`` µs, and returns a
:class:`~repro.rocc.metrics.SimulationResults`.

Architecture mapping (§4):

* **NOW** — ``nodes`` workstations (1 CPU each by default) on a shared
  Ethernet; one daemon per node; the main process on a separate host
  workstation (Figure 1).
* **SMP** — ``nodes`` CPUs pooled behind one round-robin ready queue;
  ``app_processes_per_node`` is the *total* application process count;
  ``daemons`` daemons share the CPUs with the apps and the main
  process; a shared bus carries all communication.
* **MPP** — like NOW but with a contention-free scalable network and
  optional binary-tree forwarding.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..des.core import Environment
from ..des.events import URGENT, Event
from ..obs.metrics import registry as obs_registry
from ..obs.spans import SIM, Tracer, current_tracer, maybe_span, sim_track_pid
from ..variates.streams import StreamFactory
from ..workload.records import ProcessType
from .application import ApplicationProcess
from .config import Architecture, ForwardingTopology, NetworkMode, SimulationConfig
from .cpu import RoundRobinCPU
from .daemon import ParadynDaemon
from .forwarding import parent_index
from .main_process import MainParadynProcess
from .metrics import Metrics, SimulationResults
from .network import BaseNetwork, ContentionFreeNetwork, FIFONetwork
from .node import CyclicBarrier, NodeContext
from .other import OtherProcesses, PVMDaemon
from .pipes import SamplePipe

__all__ = [
    "ParadynISSystem",
    "assemble_results",
    "simulate",
]

_WORKER_OWNERS = (
    ProcessType.APPLICATION,
    ProcessType.PARADYN_DAEMON,
    ProcessType.PVM_DAEMON,
    ProcessType.OTHER,
    ProcessType.PARADYN_MAIN,
)


class _OccupancyWatcher:
    """Turns one :class:`TimeWeighted` signal into trace tracks.

    Installed as the accumulator's ``on_change`` hook while a run is
    traced: busy intervals (level leaving / returning to zero) become
    sim-time spans — the Gantt bars of a node — and every level change
    becomes a counter sample.  Both are capped so a long run cannot
    balloon the trace.
    """

    #: Per-track record caps (spans / counter samples).
    MAX_SPANS = 1_000
    MAX_SAMPLES = 500

    def __init__(self, tracer: Tracer, pid: int, tid: str, counter_name: str):
        self.tracer = tracer
        self.pid = pid
        self.tid = tid
        self.counter_name = counter_name
        self.busy_since: Optional[float] = None
        self.spans = 0
        self.samples = 0

    def __call__(self, now: float, value: float) -> None:
        if value > 0.0 and self.busy_since is None:
            self.busy_since = now
        elif value <= 0.0 and self.busy_since is not None:
            if self.spans < self.MAX_SPANS:
                self.tracer.add_span(
                    "busy", cat="occupancy", ts=self.busy_since,
                    dur=now - self.busy_since, tid=self.tid,
                    pid=self.pid, domain=SIM,
                )
                self.spans += 1
            self.busy_since = None
        if self.samples < self.MAX_SAMPLES:
            self.tracer.add_counter(
                self.counter_name, now, {"level": value},
                pid=self.pid, domain=SIM,
            )
            self.samples += 1

    def finish(self, now: float) -> None:
        """Close a still-open busy interval at end of run."""
        if self.busy_since is not None and self.spans < self.MAX_SPANS:
            self.tracer.add_span(
                "busy", cat="occupancy", ts=self.busy_since,
                dur=now - self.busy_since, tid=self.tid,
                pid=self.pid, domain=SIM,
            )
            self.spans += 1
            self.busy_since = None


@dataclass
class _Snapshot:
    """Accumulator values at warmup time, subtracted from final values."""

    cpu_busy: List[Dict[ProcessType, float]] = field(default_factory=list)
    cpu_busy_integral: List[float] = field(default_factory=list)
    host_busy: Dict[ProcessType, float] = field(default_factory=dict)
    net_busy: Dict[ProcessType, float] = field(default_factory=dict)
    pipe_blocked_time: float = 0.0
    pipe_blocked_puts: int = 0


def assemble_results(system: ParadynISSystem) -> SimulationResults:
    """Turn a finished run's metrics and post-warmup accumulator deltas
    into a :class:`SimulationResults`.

    The per-CPU deltas keep strictly positive ``(node, owner)`` entries
    only; per-owner CPU totals are summed over ascending node ids.
    """
    cfg = system.config
    m = system.metrics
    snap = system._snapshot
    duration = cfg.measured_duration
    seconds = duration / 1e6
    n = cfg.nodes
    smp = cfg.architecture is Architecture.SMP

    cpu_busy = {}
    for node in range(len(system.worker_cpus)):
        for owner in _WORKER_OWNERS:
            v = system._busy(node, owner)
            if v > 0.0:
                cpu_busy[(node, owner)] = v
    node_order = sorted({node for node, _ in cpu_busy})

    def total(owner: ProcessType) -> float:
        return sum(cpu_busy.get((node, owner), 0.0) for node in node_order)

    pd_total = total(ProcessType.PARADYN_DAEMON)
    app_total = total(ProcessType.APPLICATION)
    pvmd_total = total(ProcessType.PVM_DAEMON)
    other_total = total(ProcessType.OTHER)

    if smp:
        main_busy = total(ProcessType.PARADYN_MAIN)
        worker_cpu_capacity = n  # pooled CPUs
        main_capacity = n
    else:
        main_busy = (
            system.host_cpu.busy_by_owner.get(ProcessType.PARADYN_MAIN, 0.0)
            - snap.host_busy.get(ProcessType.PARADYN_MAIN, 0.0)
        )
        worker_cpu_capacity = n * cfg.cpus_per_node
        main_capacity = 1

    net_busy = {
        k: v - snap.net_busy.get(k, 0.0)
        for k, v in system.network.busy_by_owner.items()
    }
    pd_net_busy = net_busy.get(ProcessType.PARADYN_DAEMON, 0.0)
    total_net_busy = sum(net_busy.values())

    n_daemons = len(system.daemons)
    forwarded = sum(m.forwarded_by_node.values())
    forward_calls = sum(m.forward_calls_by_node.values())

    percentiles = m.latency_percentiles()

    def node0(owner: ProcessType) -> float:
        return cpu_busy.get((0, owner), 0.0)

    return SimulationResults(
        config_summary=(
            f"{cfg.architecture.value} n={n} T={cfg.sampling_period / 1e3:g}ms "
            f"b={cfg.batch_size} {cfg.forwarding.value} "
            f"apps={cfg.app_processes_per_node} dur={seconds:g}s"
        ),
        duration=duration,
        nodes=n,
        pd_cpu_time_per_node=pd_total / n,
        main_cpu_time=main_busy,
        pvmd_cpu_time_per_node=pvmd_total / n,
        other_cpu_time_per_node=other_total / n,
        app_cpu_time_per_node=app_total / n,
        node0_pd_cpu_time=node0(ProcessType.PARADYN_DAEMON),
        node0_app_cpu_time=node0(ProcessType.APPLICATION),
        pd_cpu_utilization_per_node=pd_total / (duration * worker_cpu_capacity),
        app_cpu_utilization_per_node=app_total / (duration * worker_cpu_capacity),
        main_cpu_utilization=main_busy / (duration * main_capacity),
        is_cpu_utilization_per_node=(
            (pd_total + main_busy) / (duration * worker_cpu_capacity)
            if smp
            else pd_total / (duration * worker_cpu_capacity)
        ),
        network_utilization=total_net_busy / duration,
        pd_network_utilization=pd_net_busy / duration,
        monitoring_latency_forwarding=m.latency_forwarding.mean,
        monitoring_latency_total=m.latency_total.mean,
        monitoring_latency_p50=percentiles[50.0],
        monitoring_latency_p90=percentiles[90.0],
        monitoring_latency_p99=percentiles[99.0],
        throughput_per_daemon=(
            forwarded / n_daemons / seconds if n_daemons else 0.0
        ),
        received_throughput=m.samples_received / seconds,
        samples_generated=m.samples_generated,
        samples_received=m.samples_received,
        batches_received=m.batches_received,
        forward_calls_per_node=forward_calls / n,
        merges_total=sum(m.merges_by_node.values()),
        pipe_blocked_time=(
            sum(p.blocked_time for p in system.pipes) - snap.pipe_blocked_time
        ),
        pipe_blocked_puts=(
            sum(p.blocked_puts for p in system.pipes) - snap.pipe_blocked_puts
        ),
        barrier_wait_time=m.barrier_wait_time,
        barrier_rounds=m.barrier_rounds,
        app_cycles=m.app_cycles,
        cpu_busy=cpu_busy,
        observability=dict(system._obs_info),
    )


class ParadynISSystem:
    """A fully wired ROCC model instance, ready to run."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.env = Environment()
        self.metrics = Metrics()
        self.streams = StreamFactory(seed=config.seed, replication=config.replication)
        #: One CPU per node (NOW/MPP), or the pooled SMP CPUs as node 0.
        self.worker_cpus: List[RoundRobinCPU] = []
        self.host_cpu: Optional[RoundRobinCPU] = None
        self.network: BaseNetwork = self._build_network()
        self.pipes: List[SamplePipe] = []
        self.daemons: List[ParadynDaemon] = []
        self.apps: List[ApplicationProcess] = []
        self.barrier: Optional[CyclicBarrier] = None
        self.main: Optional[MainParadynProcess] = None
        #: Overhead regulators, one per node, when config.adaptive is set.
        self.regulators: List = []
        self._snapshot = _Snapshot()
        #: ``(signal, watcher)`` pairs installed for a traced run.
        self._watchers: List[tuple] = []
        self._obs_info: Dict[str, int] = {}

        if config.architecture is Architecture.SMP:
            self._build_smp()
        else:
            self._build_now_or_mpp()

        if config.warmup > 0:
            # URGENT, so the reset precedes every NORMAL event sharing
            # the warmup instant: "created at the epoch" then
            # deterministically means created *after* the reset, which
            # is what note_receipt's ``created_at >= epoch`` filter
            # assumes.  Left to sequence-id tie-breaking, a sample
            # generated exactly at t == warmup could be counted, erased
            # by the reset, and still pass the receipt filter —
            # breaking sample conservation by one.
            gate = Event(self.env)
            gate._value = None
            gate.callbacks.append(self._warmup_reset)
            self.env.schedule(gate, URGENT, config.warmup)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_network(self) -> BaseNetwork:
        if self.config.effective_network_mode is NetworkMode.SHARED:
            return FIFONetwork(self.env, name="shared-net")
        return ContentionFreeNetwork(self.env, name="cf-net")

    def _make_ctx(self, node_id: int, cpu: RoundRobinCPU) -> NodeContext:
        return NodeContext(
            env=self.env,
            node_id=node_id,
            cpu=cpu,
            network=self.network,
            metrics=self.metrics,
            config=self.config,
            streams=self.streams,
        )

    def _build_now_or_mpp(self) -> None:
        cfg = self.config
        quantum = cfg.workload.cpu_quantum

        # Host workstation for the main Paradyn process (Figure 1).
        self.host_cpu = RoundRobinCPU(self.env, 1, quantum, name="host.cpu")
        self.main = MainParadynProcess(self._make_ctx(-1, self.host_cpu))

        if cfg.barrier_period is not None:
            self.barrier = CyclicBarrier(
                self.env, cfg.nodes * cfg.app_processes_per_node, self.metrics
            )

        tree = cfg.forwarding is ForwardingTopology.TREE
        for i in range(cfg.nodes):
            cpu = RoundRobinCPU(self.env, cfg.cpus_per_node, quantum, name=f"node{i}.cpu")
            self.worker_cpus.append(cpu)
            ctx = self._make_ctx(i, cpu)
            pipe = SamplePipe(
                self.env,
                per_writer_capacity=cfg.pipe_capacity,
                writers=cfg.app_processes_per_node,
                name=f"node{i}.pipe",
            )
            self.pipes.append(pipe)
            if tree and i > 0:
                parent = self.daemons[parent_index(i)]
                parent.enable_tree_inbox()
                deliver = parent.deliver
            else:
                deliver = self.main.deliver
            daemon = ParadynDaemon(ctx, pipe, deliver)
            self.daemons.append(daemon)
            sampler_state = self._attach_regulator(ctx, daemon)
            for p in range(cfg.app_processes_per_node):
                self.apps.append(
                    ApplicationProcess(
                        ctx, p, pipe, self.barrier, sampler_state=sampler_state
                    )
                )
            if cfg.include_pvmd:
                PVMDaemon(ctx)
            if cfg.include_other:
                OtherProcesses(ctx)

    def _build_smp(self) -> None:
        cfg = self.config
        quantum = cfg.workload.cpu_quantum
        n_cpus = cfg.nodes
        cpu = RoundRobinCPU(self.env, n_cpus, quantum, name="smp.cpu")
        self.worker_cpus.append(cpu)
        ctx = self._make_ctx(0, cpu)

        self.main = MainParadynProcess(ctx)

        n_apps = cfg.app_processes_per_node  # total on the SMP
        if cfg.barrier_period is not None:
            self.barrier = CyclicBarrier(self.env, n_apps, self.metrics)

        k = cfg.daemons
        per_daemon = math.ceil(n_apps / k)
        for d in range(k):
            writers = min(per_daemon, n_apps - d * per_daemon)
            pipe = SamplePipe(
                self.env,
                per_writer_capacity=cfg.pipe_capacity,
                writers=max(1, writers),
                name=f"smp.pipe{d}",
            )
            self.pipes.append(pipe)
            self.daemons.append(
                ParadynDaemon(ctx, pipe, self.main.deliver, name=f"smp/pd{d}")
            )
        sampler_state = self._attach_regulator(ctx, self.daemons[0])
        for a in range(n_apps):
            pipe = self.pipes[min(a // per_daemon, k - 1)]
            self.apps.append(
                ApplicationProcess(
                    ctx, a, pipe, self.barrier, sampler_state=sampler_state
                )
            )
        if cfg.include_pvmd:
            PVMDaemon(ctx)
        if cfg.include_other:
            OtherProcesses(ctx)

    def _attach_regulator(self, ctx: NodeContext, daemon: ParadynDaemon):
        """Create the adaptive sampler + regulator for a node, if enabled.

        Returns the shared :class:`AdaptiveSampler` (or ``None`` for the
        paper's static configuration).
        """
        if self.config.adaptive is None:
            return None
        from .adaptive import AdaptiveSampler, OverheadRegulator

        sampler_state = AdaptiveSampler(period=self.config.sampling_period)
        self.regulators.append(
            OverheadRegulator(ctx, sampler_state, self.config.adaptive, daemon)
        )
        return sampler_state

    # ------------------------------------------------------------------
    # Warmup
    # ------------------------------------------------------------------
    def _warmup_reset(self, _gate: Event) -> None:
        """Snapshot the accumulators and restart the counters."""
        snap = self._snapshot
        now = self.env.now
        snap.cpu_busy = [dict(c.busy_by_owner) for c in self.worker_cpus]
        snap.cpu_busy_integral = [
            c.busy_servers.integral(now) for c in self.worker_cpus
        ]
        if self.host_cpu is not None:
            snap.host_busy = dict(self.host_cpu.busy_by_owner)
        snap.net_busy = dict(self.network.busy_by_owner)
        snap.pipe_blocked_time = sum(p.blocked_time for p in self.pipes)
        snap.pipe_blocked_puts = sum(p.blocked_puts for p in self.pipes)
        # Counters and tallies restart cleanly; samples generated before
        # warmup but received after it are not counted on either side —
        # the epoch passed to reset() makes receipt accounting skip
        # them, preserving sample conservation.
        self.metrics.reset(now=now)

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------
    def _run_label(self) -> str:
        cfg = self.config
        return (
            f"{cfg.architecture.value} n={cfg.nodes} "
            f"seed={cfg.seed} rep={cfg.replication}"
        )

    def _attach_observability(self, tracer: Tracer) -> None:
        """Install occupancy watchers for a traced run.

        Each simulation run gets one synthetic sim-time process track
        (:func:`sim_track_pid` of the run label) holding a Gantt row per
        worker CPU, the host CPU, and the shared (FIFO) interconnect.
        A contention-free network keeps no in-flight signal, so it has
        no row.
        """
        label = self._run_label()
        pid = sim_track_pid(label)
        tracer.name_process(pid, f"sim: {label}")
        tracked: List[tuple] = [
            (f"node{node}.cpu", cpu.busy_servers)
            for node, cpu in enumerate(self.worker_cpus)
        ]
        if self.host_cpu is not None:
            tracked.append(("host.cpu", self.host_cpu.busy_servers))
        if isinstance(self.network, FIFONetwork):
            tracked.append(("network", self.network.in_flight))
        for tid, signal in tracked:
            watcher = _OccupancyWatcher(tracer, pid, tid, f"{tid}.level")
            signal.on_change = watcher
            self._watchers.append((signal, watcher))

    def _finish_observability(self) -> None:
        now = self.env.now
        spans = samples = 0
        for signal, watcher in self._watchers:
            watcher.finish(now)
            signal.on_change = None
            spans += watcher.spans
            samples += watcher.samples
        self._watchers = []
        self._obs_info = {
            "occupancy_spans": spans,
            "counter_samples": samples,
            "sim_track": self._run_label(),
        }

    def _publish_metrics(self) -> None:
        """Fold this run's totals into the process-wide obs registry."""
        m = self.metrics
        reg = obs_registry()
        reg.counter("rocc.runs", "completed simulation runs").inc()
        reg.counter("rocc.samples_generated").inc(m.samples_generated)
        reg.counter("rocc.samples_received").inc(m.samples_received)
        reg.counter("rocc.batches_received").inc(m.batches_received)

    # ------------------------------------------------------------------
    # Execution and results
    # ------------------------------------------------------------------
    def run(self) -> SimulationResults:
        cfg = self.config
        tracer = current_tracer()
        if tracer is not None:
            # A traced run profiles its kernel into the obs registry.
            from ..des.profiling import KernelProfiler

            self._attach_observability(tracer)
            profiler = KernelProfiler(self.env).attach()
        t0 = time.perf_counter()
        with maybe_span(
            "simulate", cat="run",
            args={"config": self._run_label(), "duration_us": cfg.duration},
        ):
            self.env.run(
                until=cfg.duration,
                max_events=cfg.max_events,
                max_wall_seconds=cfg.max_wall_seconds,
            )
        if tracer is not None:
            profiler.detach()
            profiler.publish()
            self._finish_observability()
        self._publish_metrics()
        obs_registry().histogram(
            "rocc.run_wall_seconds", "wall time of one simulation run"
        ).observe(time.perf_counter() - t0)
        return self._results()

    def _busy(self, cpu_index: int, owner: ProcessType) -> float:
        cpu = self.worker_cpus[cpu_index]
        base = 0.0
        if self._snapshot.cpu_busy:
            base = self._snapshot.cpu_busy[cpu_index].get(owner, 0.0)
        return cpu.busy_by_owner.get(owner, 0.0) - base

    def _results(self) -> SimulationResults:
        return assemble_results(self)


def simulate(config: SimulationConfig) -> SimulationResults:
    """Build and run one ROCC simulation; returns its results."""
    return ParadynISSystem(config).run()
