"""The main Paradyn process: central sample consumer.

Receives batches from daemons (via its inbox, fed by network delivery
callbacks), pays a per-message receive cost plus a per-sample
processing cost on its host CPU, and records receipt metrics.
Monitoring latency is stamped at *delivery* time — "receipt at a
logically central collection facility" — independent of how long the
main process then takes to digest the batch.
"""

from __future__ import annotations

from ..des.stores import Store
from ..workload.records import ProcessType
from .config import MainCostModel
from .node import NodeContext
from .requests import Batch

__all__ = ["MainParadynProcess"]


class MainParadynProcess:
    """The multithreaded main Paradyn tool process."""

    def __init__(self, ctx: NodeContext):
        self.ctx = ctx
        costs: MainCostModel = ctx.config.main_costs
        self.inbox: Store = Store(ctx.env)
        self._receive_cpu = ctx.streams.variates("main/receive_cpu", costs.receive_cpu)
        self._per_sample_rng = ctx.streams.generator("main/per_sample_cpu")
        self._per_sample_dist = costs.per_sample_cpu
        ctx.env.process(self._run(), name="paradyn-main")

    # ------------------------------------------------------------------
    def deliver(self, batch: Batch) -> None:
        """Network delivery sink: stamp receipt metrics, enqueue
        processing work."""
        now = self.ctx.env.now
        metrics = self.ctx.metrics
        counted = 0
        for sample in batch.samples:
            if metrics.note_receipt(now, sample.created_at, batch.sent_at):
                counted += 1
        # A batch made entirely of pre-warmup samples belongs to the
        # discarded transient, like its samples.
        if counted:
            metrics.batches_received += 1
        self.inbox.put(batch)

    def _run(self):
        cpu = self.ctx.cpu
        while True:
            batch = yield self.inbox.get()
            n = len(batch.samples)
            cost = self._receive_cpu()
            if n > 0:
                # One aggregate draw for the per-sample work: the sum of
                # n iid costs, drawn vectorized (hot path under BF).
                cost += float(
                    self._per_sample_dist.sample(self._per_sample_rng, n).sum()
                    if n > 1
                    else self._per_sample_dist.sample(self._per_sample_rng)
                )
            yield cpu.execute(cost, ProcessType.PARADYN_MAIN)
