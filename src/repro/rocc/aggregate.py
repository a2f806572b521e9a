"""Aggregated large-n mode: one detailed node + superposed phantom load.

The paper's own modeling assumption (§2.1) is that "the subnetworks at
every node ... show identical behavior" during SPMD execution.  This
module exploits that symmetry so 64–256-node MPP experiments stay
laptop-scale: **one node is simulated in full detail** (CPU round
robin, pipes, daemon, background load) while the remaining ``n - 1``
nodes are replaced by *phantom traffic*:

* a superposed Poisson stream of forwarded batches into the main
  Paradyn process at the per-node forwarding rate ``apps / (T · b)``
  times ``n - 1``, each paying the usual network occupancy; and
* (tree forwarding) a stream of en-route child batches into the
  detailed daemon's inbox at the system-average merge-arrival rate
  ``λ · (n - 1)/n`` (§3.3's accounting), whose relays are sunk rather
  than re-delivered so main-process load is not double counted.

Per-node metrics come from the detailed node; main-process and
latency metrics see the full phantom load.  The agreement between this
mode and the full simulation at small n is checked by
``benchmarks/test_bench_ablation.py`` and ``tests/rocc/test_aggregate.py``.
"""

from __future__ import annotations

from typing import Callable

from ..variates.distributions import Exponential
from ..workload.records import ProcessType
from .config import ForwardingTopology, SimulationConfig
from .metrics import SimulationResults
from .node import LoadActor, NodeContext
from .requests import Batch, Sample
from .system import ParadynISSystem

__all__ = ["AggregatedParadynISSystem", "simulate_aggregated"]


class _PhantomStream(LoadActor):
    """Batches from the phantom nodes on one Poisson clock: every tick
    calls *emit*, which makes a batch and sends it on its way."""

    __slots__ = ("_inter", "_emit")

    def __init__(self, ctx: NodeContext, name: str, inter, emit: Callable):
        super().__init__(ctx, ProcessType.PARADYN_DAEMON, name)
        self._inter = inter
        self._emit = emit
        self.start(_PhantomStream._wait)

    def _wait(self) -> None:
        self.sleep(self._inter(), _PhantomStream._tick)

    def _tick(self) -> None:
        self._emit()
        self._wait()


class AggregatedParadynISSystem(ParadynISSystem):
    """ROCC system with one detailed node and ``n - 1`` phantom nodes."""

    def __init__(self, config: SimulationConfig):
        if config.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if (
            config.effective_network_mode.value == "shared"
            and config.nodes > 1
        ):
            import warnings

            warnings.warn(
                "aggregated mode models phantom nodes' IS traffic but not "
                "their application traffic; on a *shared* interconnect "
                "(NOW Ethernet / SMP bus) contention is therefore "
                "understated — use the full simulation there",
                RuntimeWarning,
                stacklevel=3,
            )
        self.true_nodes = config.nodes
        # Build the single detailed node.  Tree forwarding is flagged on
        # the original config; the detailed daemon acts as an *average*
        # non-leaf node.
        self._tree = config.forwarding is ForwardingTopology.TREE
        detail = config.with_(nodes=1, forwarding=ForwardingTopology.DIRECT)
        super().__init__(detail)
        self.config_true = config

        if self.true_nodes > 1 and config.instrumented:
            apps = config.app_processes_per_node
            #: Per-node batch-forwarding rate, batches/µs.
            self._lambda_batches = apps / (
                config.sampling_period * config.batch_size
            )
            ctx = self.main.ctx
            rate = self._lambda_batches * (self.true_nodes - 1)
            self._main_net = self.streams.variates(
                "phantom/main_net", config.workload.pd_network)
            _PhantomStream(
                ctx, "phantom-forwarders",
                self.streams.variates("phantom/main_inter",
                                      Exponential(1.0 / rate)),
                self._phantom_main,
            )
            if self._tree:
                daemon = self.daemons[0]
                daemon.enable_tree_inbox()
                daemon.merge_deliver = lambda batch: None  # sink relays
                # System-average merge arrivals per node: λ (n-1)/n
                # (see §3.3).
                n = self.true_nodes
                rate = self._lambda_batches * (n - 1) / n
                _PhantomStream(
                    ctx, "phantom-children",
                    self.streams.variates("phantom/child_inter",
                                          Exponential(1.0 / rate)),
                    self._phantom_child,
                )

    # ------------------------------------------------------------------
    def _make_phantom_batch(self, node: int) -> Batch:
        """A batch as an average phantom node would have produced it."""
        cfg = self.config_true
        env = self.env
        b = cfg.batch_size
        apps = cfg.app_processes_per_node
        period = cfg.sampling_period
        samples = [
            Sample(
                created_at=max(0.0, env.now - (b - 1 - j) * period / apps),
                node=node,
                pid=0,
            )
            for j in range(b)
        ]
        self.metrics.samples_generated += b
        batch = Batch(samples=samples, origin=node)
        batch.sent_at = samples[0].created_at if b == 1 else env.now
        return batch

    def _phantom_main(self) -> None:
        """A forwarded batch from the n-1 phantom nodes to the main
        process, sent fire-and-forget: phantom nodes transfer
        concurrently."""
        batch = self._make_phantom_batch(node=1)
        self.network.transfer(
            self._main_net(),
            ProcessType.PARADYN_DAEMON,
            payload=batch,
            deliver=self.main.deliver,
        )

    def _phantom_child(self) -> None:
        """An en-route child batch for the detailed (average) daemon to
        merge."""
        self.daemons[0].deliver(self._make_phantom_batch(node=2))

    # ------------------------------------------------------------------
    def _results(self) -> SimulationResults:
        res = super()._results()
        n = self.true_nodes
        duration = res.duration
        # Per-node values already describe the single detailed node; the
        # report should present them as the per-node average of the
        # n-node system (symmetry assumption).
        res.nodes = n
        res.config_summary = (
            res.config_summary.replace("n=1", f"n={n}") + " [aggregated]"
        )
        res.main_cpu_utilization = res.main_cpu_time / duration
        # Throughput per daemon: detailed daemon only (phantoms bypass
        # daemon accounting); received throughput covers the full load.
        return res


def simulate_aggregated(config: SimulationConfig) -> SimulationResults:
    """Run the aggregated large-n approximation of *config*."""
    return AggregatedParadynISSystem(config).run()
