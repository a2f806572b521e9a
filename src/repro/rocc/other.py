"""Background load: the PVM daemon and other user/system processes.

Both are *open* workloads in the ROCC model (Figure 5): their resource
occupancy requests arrive on independent exponential clocks (Table 2)
regardless of what the instrumented application is doing.  They matter
because the direct-overhead metrics are defined against a realistically
loaded node, and the validation run (Table 3) reproduces the measured
Pd CPU time only when this background contention is present.

Each clock is a :class:`~repro.rocc.node.LoadActor`: nothing interrupts
it, so it runs as direct kernel events (one schedule entry per sleep or
request) instead of a generator process.
"""

from __future__ import annotations

from ..workload.records import ProcessType
from .node import LoadActor, NodeContext

__all__ = ["PVMDaemon", "OtherProcesses"]


class PVMDaemon(LoadActor):
    """PVM message-passing daemon: CPU + network transaction per arrival.

    The next inter-arrival gap is drawn after the transaction finishes
    (closed-loop arrivals), so contention thins the daemon's load.
    """

    __slots__ = ("ctx", "_inter", "_cpu", "_net")

    def __init__(self, ctx: NodeContext):
        prefix = f"node{ctx.node_id}/pvmd"
        super().__init__(ctx, ProcessType.PVM_DAEMON, prefix)
        self.ctx = ctx
        wl = ctx.config.workload
        self._inter = ctx.streams.variates(f"{prefix}/inter", wl.pvmd_interarrival)
        self._cpu = ctx.streams.variates(f"{prefix}/cpu", wl.pvmd_cpu)
        self._net = ctx.streams.variates(f"{prefix}/network", wl.pvmd_network)
        self.start(PVMDaemon._wait)

    def _wait(self) -> None:
        self.sleep(self._inter(), PVMDaemon._compute)

    def _compute(self) -> None:
        self.compute(self._cpu(), PVMDaemon._communicate)

    def _communicate(self) -> None:
        self.transfer(self._net(), PVMDaemon._wait)


class _Clock(LoadActor):
    """Requests of one resource on their own arrival clock: *request* is
    :meth:`LoadActor.compute` or :meth:`LoadActor.transfer`."""

    __slots__ = ("_inter", "_work", "_request")

    def __init__(self, ctx: NodeContext, name: str, inter, work, request):
        super().__init__(ctx, ProcessType.OTHER, name)
        self._inter = inter
        self._work = work
        self._request = request
        self.start(_Clock._wait)

    def _wait(self) -> None:
        self.sleep(self._inter(), _Clock._use)

    def _use(self) -> None:
        self._request(self, self._work(), _Clock._wait)


class OtherProcesses:
    """Aggregate of other user/system processes on a node.

    CPU and network requests arrive on separate clocks (Table 2 lists
    distinct inter-arrival distributions for the two resources).
    """

    def __init__(self, ctx: NodeContext):
        self.ctx = ctx
        wl = ctx.config.workload
        prefix = f"node{ctx.node_id}/other"
        streams = ctx.streams
        cpu_inter = streams.variates(f"{prefix}/cpu_inter", wl.other_cpu_interarrival)
        cpu = streams.variates(f"{prefix}/cpu", wl.other_cpu)
        net_inter = streams.variates(
            f"{prefix}/net_inter", wl.other_network_interarrival
        )
        net = streams.variates(f"{prefix}/network", wl.other_network)
        self.cpu_clock = _Clock(ctx, f"{prefix}/cpu", cpu_inter, cpu,
                                LoadActor.compute)
        self.network_clock = _Clock(ctx, f"{prefix}/network", net_inter, net,
                                    LoadActor.transfer)
