"""Adaptive instrumentation-system management (the paper's §6 outlook).

The paper closes by arguing that "with an appropriate model for the IS,
users can specify tolerable limits for IS overheads ... The IS can use
the model to adapt its behavior in order to regulate overheads", citing
Paradyn's dynamic cost model (Hollingsworth & Miller, EuroPar '96) as
initial work.  This module implements that loop on top of the ROCC
simulator:

:class:`OverheadRegulator` periodically observes the daemon's direct
CPU overhead over a sliding window and adjusts the **sampling period**
(and optionally the **batch size**) to keep the overhead near a
user-specified budget — multiplicative increase of the period when over
budget, gentle decrease when comfortably under, within configured
bounds.  The regulated entity is the per-node Paradyn daemon; the
controller itself costs CPU (it is instrumentation too), which is
charged to the daemon's account.

This is an *extension beyond the paper's experiments* (flagged as such
in DESIGN.md §5); the `adaptive` example and the ablation benchmark
demonstrate it holding a 1 % budget across workload changes that would
drive the static CF configuration to 3–5×.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..workload.records import ProcessType
from .node import LoadActor, NodeContext

__all__ = ["RegulatorConfig", "RegulatorDecision", "OverheadRegulator"]


@dataclass
class RegulatorConfig:
    """Policy of the overhead regulator.

    All times in µs; ``budget`` is a CPU-utilization fraction.
    """

    #: Target ceiling for the daemon's CPU utilization on its node.
    budget: float = 0.01
    #: Controller wake-up interval.
    control_interval: float = 250_000.0
    #: Hysteresis: only act outside [low_water, 1.0] x budget.
    low_water: float = 0.5
    #: Multiplicative factor applied to the sampling period when over
    #: budget (period grows -> fewer samples).
    backoff: float = 1.5
    #: Factor applied when far enough under budget (period shrinks).
    recovery: float = 0.8
    #: Sampling-period bounds.
    min_period: float = 1_000.0
    max_period: float = 1_000_000.0
    #: Whether the regulator may also grow the batch size (towards
    #: ``max_batch``) before slowing sampling down.
    adapt_batch: bool = False
    max_batch: int = 128
    #: CPU cost of one control decision, µs (charged to the daemon).
    decision_cost: float = 50.0

    def __post_init__(self) -> None:
        if not 0 < self.budget < 1:
            raise ValueError("budget must be a fraction in (0, 1)")
        if self.control_interval <= 0:
            raise ValueError("control_interval must be positive")
        if not 0 <= self.low_water < 1:
            raise ValueError("low_water must lie in [0, 1)")
        if self.backoff <= 1.0:
            raise ValueError("backoff must exceed 1")
        if not 0 < self.recovery < 1.0:
            raise ValueError("recovery must lie in (0, 1)")
        if self.min_period <= 0 or self.max_period < self.min_period:
            raise ValueError("bad period bounds")


@dataclass(frozen=True)
class RegulatorDecision:
    """One control action, for post-run inspection."""

    time: float
    observed_utilization: float
    old_period: float
    new_period: float
    old_batch: int
    new_batch: int

    @property
    def acted(self) -> bool:
        return self.new_period != self.old_period or self.new_batch != self.old_batch


class OverheadRegulator(LoadActor):
    """Keeps a node's daemon CPU overhead near a budget.

    Attach to a node by constructing it with the node's context and the
    mutable knobs it may adjust.  The regulator reads the daemon's CPU
    busy counter differentially over each control interval, compares
    the window utilization against the budget, and updates the
    ``sampling`` object's ``period`` (the per-node sampler exposes one)
    and optionally the daemon's batch size.
    """

    __slots__ = ("ctx", "sampler", "config", "daemon", "decisions",
                 "_last_busy")

    def __init__(
        self,
        ctx: NodeContext,
        sampler: "AdaptiveSampler",
        config: Optional[RegulatorConfig] = None,
        daemon=None,
    ):
        super().__init__(ctx, ProcessType.PARADYN_DAEMON,
                         f"node{ctx.node_id}/regulator")
        self.ctx = ctx
        self.sampler = sampler
        self.config = config or RegulatorConfig()
        self.daemon = daemon
        self.decisions: List[RegulatorDecision] = []
        self._last_busy = 0.0
        self.start(OverheadRegulator._wait)

    # ------------------------------------------------------------------
    def _observe(self) -> float:
        """Daemon CPU utilization over the last control window."""
        busy = self.ctx.cpu.busy_time(ProcessType.PARADYN_DAEMON)
        window = busy - self._last_busy
        self._last_busy = busy
        return window / (self.config.control_interval * self.ctx.cpu.n_cpus)

    def _wait(self) -> None:
        self.sleep(self.config.control_interval, OverheadRegulator._decide)

    def _decide(self) -> None:
        cfg = self.config
        util = self._observe()
        old_period = self.sampler.period
        old_batch = self._batch()
        new_period, new_batch = old_period, old_batch

        if util > cfg.budget:
            if (
                cfg.adapt_batch
                and self.daemon is not None
                and old_batch < cfg.max_batch
            ):
                new_batch = min(cfg.max_batch, max(old_batch * 2, 2))
            else:
                new_period = min(cfg.max_period, old_period * cfg.backoff)
        elif util < cfg.low_water * cfg.budget:
            new_period = max(cfg.min_period, old_period * cfg.recovery)

        if new_period != old_period:
            self.sampler.period = new_period
        if new_batch != old_batch and self.daemon is not None:
            self._set_batch(new_batch)
        self.decisions.append(
            RegulatorDecision(
                time=self.env.now,
                observed_utilization=util,
                old_period=old_period,
                new_period=new_period,
                old_batch=old_batch,
                new_batch=new_batch,
            )
        )
        # The controller is instrumentation too: charge its work.
        if cfg.decision_cost > 0:
            self.compute(cfg.decision_cost, OverheadRegulator._wait)
        else:
            self._wait()

    def _batch(self) -> int:
        if self.daemon is None:
            return self.ctx.config.batch_size
        return getattr(self.daemon, "batch_size", self.ctx.config.batch_size)

    def _set_batch(self, value: int) -> None:
        self.daemon.batch_size = value


@dataclass
class AdaptiveSampler:
    """A mutable sampling-period holder shared by samplers and regulator.

    The stock :class:`~repro.rocc.application.ApplicationProcess` reads
    the period from the frozen config; adaptive runs use this object so
    the regulator can change the rate mid-run.
    """

    period: float

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")


__all__.append("AdaptiveSampler")
