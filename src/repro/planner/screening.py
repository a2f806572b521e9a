"""Analytic screening of a factorial design: decide what to simulate.

The screen walks every cell of a 2^k design, evaluates the analytic
model (:mod:`repro.planner.analytic`), and classifies each cell:

* **trusted** — the model applies, no resource is near saturation
  (``max_utilization ≤ trust_utilization``), the cell is not in the
  shared-network sample-loss regime, and its analytic landscape is
  locally flat (no trusted Hamming-1 neighbor differs in max
  utilization by more than ``gradient_threshold``).  Trusted cells are
  candidates for pruning: the analytic value (plus an interpolated
  correction) stands in for simulation.
* everything else is **simulated** — saturation, steep gradients and
  model inapplicability are exactly where simulation earns its keep.

A final deterministic *anchor pass* (in standard-order index order)
un-prunes any pruned cell with no simulated Hamming-1 neighbor left, so
every surrogate has at least one simulated anchor to interpolate its
correction from and a design can never be pruned to nothing.  The pass
is monotone — it only adds simulated cells — so it terminates with
every pruned cell anchored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..expdesign.factorial import FactorialDesign
from ..rocc.config import SimulationConfig
from .analytic import AnalyticPrediction, predict

__all__ = ["ScreeningPolicy", "CellDecision", "ScreeningReport", "screen"]


@dataclass(frozen=True)
class ScreeningPolicy:
    """Knobs of the analytic screen.

    ``trust_utilization`` bounds how close to saturation a cell may sit
    and still be pruned — operational predictions degrade as queueing
    grows nonlinear.  ``gradient_threshold`` bounds the max-utilization
    difference between adjacent trusted cells; a steep gradient flags a
    regime boundary worth simulating from both sides.
    """

    trust_utilization: float = 0.5
    gradient_threshold: float = 0.35

    def __post_init__(self) -> None:
        if not 0 < self.trust_utilization < 1:
            raise ValueError("trust_utilization must be in (0, 1)")
        if self.gradient_threshold <= 0:
            raise ValueError("gradient_threshold must be positive")


@dataclass(frozen=True)
class CellDecision:
    """Screening outcome for one design cell (standard-order index)."""

    index: int
    label: str
    simulate: bool
    #: Human-readable reason for the decision.
    reason: str
    prediction: AnalyticPrediction
    #: Whether the cell's own analytic prediction is in the trusted
    #: region (pruned cells always are; a *kept* cell may also be, e.g.
    #: an anchor un-pruned for connectivity — those cells double as
    #: calibration points).
    trusted: bool


@dataclass
class ScreeningReport:
    """All decisions for one design, plus index conveniences."""

    design: FactorialDesign
    decisions: List[CellDecision] = field(default_factory=list)

    @property
    def pruned(self) -> List[int]:
        return [d.index for d in self.decisions if not d.simulate]

    @property
    def simulated(self) -> List[int]:
        return [d.index for d in self.decisions if d.simulate]

    def neighbors(self, index: int) -> List[int]:
        """Hamming-1 neighbors in standard order (factor j ↔ bit j)."""
        return [index ^ (1 << bit) for bit in range(self.design.k)]


def neighbors(design: FactorialDesign, index: int) -> List[int]:
    """Standard-order indices differing from *index* in one factor."""
    return [index ^ (1 << bit) for bit in range(design.k)]


def screen(
    design: FactorialDesign,
    configs: Sequence[SimulationConfig],
    policy: ScreeningPolicy = ScreeningPolicy(),
) -> ScreeningReport:
    """Classify every cell of *design* as simulate or prune."""
    if len(configs) != design.n_runs:
        raise ValueError(
            f"need one config per run: got {len(configs)} for "
            f"{design.n_runs} runs"
        )
    preds: List[AnalyticPrediction] = [predict(c) for c in configs]

    # Pointwise trust: applicable, far from saturation, no sample loss.
    trusted: Dict[int, bool] = {}
    reasons: Dict[int, str] = {}
    for i, p in enumerate(preds):
        if not p.applicable:
            trusted[i], reasons[i] = False, f"simulate: {p.reason}"
        elif p.saturated:
            trusted[i], reasons[i] = False, "simulate: analytic saturation"
        elif p.drop_risk:
            trusted[i], reasons[i] = (
                False,
                "simulate: shared-network sample-loss regime",
            )
        elif p.max_utilization > policy.trust_utilization:
            trusted[i], reasons[i] = (
                False,
                f"simulate: utilization {p.max_utilization:.2f} above "
                f"trust bound {policy.trust_utilization:.2f}",
            )
        else:
            trusted[i], reasons[i] = True, "pruned: analytic trusted"

    # Gradient pass: a steep analytic gradient between two *trusted*
    # neighbors marks a regime boundary — simulate both sides.  (Pairs
    # with an untrusted cell are already simulated on one side.)
    for i, p in enumerate(preds):
        if not trusted[i]:
            continue
        for j in neighbors(design, i):
            if not trusted.get(j, False):
                continue
            delta = abs(p.max_utilization - preds[j].max_utilization)
            if delta > policy.gradient_threshold:
                trusted[i] = False
                reasons[i] = (
                    f"simulate: steep analytic gradient ({delta:.2f}) "
                    f"vs run {j}"
                )
                break

    simulate = {i: not trusted[i] for i in range(design.n_runs)}

    # Anchor pass: every pruned cell needs one simulated neighbor for
    # surrogate correction.  Deterministic index order; monotone.
    for i in range(design.n_runs):
        if simulate[i]:
            continue
        if not any(simulate[j] for j in neighbors(design, i)):
            simulate[i] = True
            reasons[i] = "simulate: anchor for surrounding pruned cells"

    report = ScreeningReport(design=design)
    for i in range(design.n_runs):
        report.decisions.append(
            CellDecision(
                index=i,
                label=design.run_label(i),
                simulate=simulate[i],
                reason=reasons[i],
                prediction=preds[i],
                trusted=trusted[i],
            )
        )
    return report
