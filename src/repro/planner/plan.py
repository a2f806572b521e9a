"""The hybrid analytic–simulation experiment planner.

:func:`run_planned` glues the stages together for one factorial design:

1. **Screen** (:mod:`.screening`): evaluate the analytic model over all
   2^k cells, prune cells where the prediction is trusted, keep the
   rest for simulation (always at least the anchors).
2. **Simulate** kept cells at the minimum replication count through the
   ambient experiment engine — identical cell construction to the
   fixed-r runners, so results are bit-identical and cache-shared.
3. **Calibrate**: compare simulation against the analytic prediction on
   the kept cells where the model claims comparability (applicable,
   non-saturated, no sample-loss regime).  If the median relative error
   of the calibration metric exceeds the tolerance, the analytic model
   is not to be trusted *for this design*: every pruned cell is
   un-pruned and simulated after all.  The tolerance defaults to 0.15 —
   generous against the ≲10 % typical agreement of the cross-validation
   experiments, tight against the ≳50 % errors of a broken-flow-balance
   regime — and the gate uses the median so a single outlier cell
   cannot flip the decision.
4. **Adapt** (:mod:`.replication`): top up replications per kept cell
   until the CI precision target, the per-cell cap, or the shared
   budget is reached.
5. **Surrogate** (:mod:`.surrogate`): fill pruned cells with analytic
   values plus anchor-interpolated corrections, explicitly tagged.

The planner reports replications used vs. the fixed-r baseline and
feeds the ambient engine's ``cells_pruned`` / ``replications_saved``
stats, plus ``planner.*`` observability counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..expdesign.factorial import FactorialDesign
from ..experiments.engine import ExperimentEngine, current_engine
from ..experiments.runners import MeanResults, replicate
from ..obs import registry as obs_registry
from ..rocc.config import SimulationConfig
from .replication import (
    ReplicationBudget,
    ReplicationPolicy,
    continue_replication,
)
from .screening import CellDecision, ScreeningPolicy, ScreeningReport, screen
from .surrogate import SurrogateCell, build_surrogates

__all__ = ["PlannerConfig", "PlannedCell", "PlannedDesign", "run_planned"]


@dataclass(frozen=True)
class PlannerConfig:
    """All planner knobs in one bag (CLI flags map onto this)."""

    screening: ScreeningPolicy = ScreeningPolicy()
    replication: ReplicationPolicy = ReplicationPolicy()
    #: Cap on total cell-replications (``None`` = the fixed-r baseline
    #: count, i.e. "never simulate more than the unplanned run would").
    budget: Optional[int] = None
    #: Calibration gate: median relative error bound on the calibration
    #: metric over comparable kept cells.
    calibration_tolerance: float = 0.15
    calibration_metric: str = "pd_cpu_utilization_per_node"

    def __post_init__(self) -> None:
        if self.calibration_tolerance <= 0:
            raise ValueError("calibration_tolerance must be positive")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1 (or None)")


@dataclass
class PlannedCell:
    """One design cell of a planned run: simulated or surrogate."""

    index: int
    label: str
    source: str  # "simulated" | "surrogate"
    decision: CellDecision
    results: Optional[MeanResults] = None
    surrogate: Optional[SurrogateCell] = None

    @property
    def value(self) -> Union[MeanResults, SurrogateCell]:
        """The object to read metrics from (both expose metric names
        as attributes)."""
        if self.results is not None:
            return self.results
        assert self.surrogate is not None
        return self.surrogate

    @property
    def tag(self) -> str:
        if self.surrogate is not None:
            return self.surrogate.tag
        n = len(self.results.results) if self.results else 0
        return f"simulated ({n} reps)"


@dataclass
class PlannedDesign:
    """Outcome of one planned factorial run."""

    design: FactorialDesign
    screening: ScreeningReport
    cells: List[PlannedCell] = field(default_factory=list)
    #: Fixed-r baseline this plan is measured against.
    baseline_replications: int = 0
    replications_used: int = 0
    #: Median relative calibration error (NaN with no comparable cells).
    calibration_error: float = float("nan")
    #: Whether the calibration gate rejected the analytic model and the
    #: plan fell back to simulating everything.
    calibration_failed: bool = False

    @property
    def cells_pruned(self) -> int:
        return sum(1 for c in self.cells if c.source == "surrogate")

    @property
    def replications_saved(self) -> int:
        return max(0, self.baseline_replications - self.replications_used)

    def cell(self, index: int) -> PlannedCell:
        return self.cells[index]

    def summary(self) -> str:
        cal = (
            "n/a"
            if math.isnan(self.calibration_error)
            else f"{self.calibration_error:.1%}"
        )
        return (
            f"{self.cells_pruned}/{self.design.n_runs} cells pruned, "
            f"{self.replications_used}/{self.baseline_replications} "
            f"cell-replications simulated, median calibration error {cal}"
            + (" [calibration FAILED: analytic distrusted]"
               if self.calibration_failed else "")
        )


def _calibration_cells(report: ScreeningReport) -> List[int]:
    """Kept cells where the analytic model claims comparability."""
    return [
        d.index
        for d in report.decisions
        if d.simulate
        and d.prediction.applicable
        and not d.prediction.saturated
        and not d.prediction.drop_risk
    ]


def _calibration_error(
    report: ScreeningReport,
    simulated: Dict[int, MeanResults],
    metric: str,
) -> float:
    """Median relative error of *metric*, simulation as ground truth."""
    errors: List[float] = []
    for i in _calibration_cells(report):
        if i not in simulated:
            continue
        analytic = report.decisions[i].prediction.metrics.get(metric)
        observed = getattr(simulated[i], metric, float("nan"))
        if analytic is None or not math.isfinite(analytic):
            continue
        if not math.isfinite(observed) or observed == 0:
            continue
        errors.append(abs(observed - analytic) / abs(observed))
    if not errors:
        return float("nan")
    # The sorted middle element, or the mean of the two middle ones: what
    # ``statistics.median`` returns, without loading ``statistics``.
    errors.sort()
    half = len(errors) // 2
    if len(errors) % 2:
        return errors[half]
    return (errors[half - 1] + errors[half]) / 2


def run_planned(
    design: FactorialDesign,
    make_config: Callable[[Dict[str, object]], SimulationConfig],
    repetitions: int,
    planner: PlannerConfig = PlannerConfig(),
    aggregated: bool = False,
    engine: Optional[ExperimentEngine] = None,
) -> PlannedDesign:
    """Run *design* under the hybrid planner (see module docstring).

    *repetitions* is the fixed-r baseline: it seeds the minimum
    replication count and defines the budget and the savings
    accounting.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    engine = engine or current_engine()
    configs = design.configs(make_config)
    report = screen(design, configs, planner.screening)

    baseline = design.n_runs * repetitions
    budget = ReplicationBudget(
        total=baseline if planner.budget is None else planner.budget
    )
    policy = planner.replication
    if policy.min_replications != repetitions:
        policy = ReplicationPolicy(
            ci_target=policy.ci_target,
            level=policy.level,
            min_replications=repetitions,
            max_replications=max(policy.max_replications, repetitions),
            metrics=policy.metrics,
        )

    # Stage 2: minimum replications for every kept cell, as one batch so
    # a parallel engine overlaps the whole design.
    simulated: Dict[int, MeanResults] = {}
    kept = report.simulated
    grant = {i: budget.take(repetitions) for i in kept}
    flat: List[SimulationConfig] = []
    order: List[int] = []
    for i in kept:
        reps = [
            configs[i].with_(replication=configs[i].replication + r)
            for r in range(grant[i])
        ]
        flat.extend(reps)
        order.extend([i] * len(reps))
    outcomes = engine.run_cells(flat, aggregated=aggregated)
    per_cell: Dict[int, List] = {i: [] for i in kept}
    for i, outcome in zip(order, outcomes):
        per_cell[i].append(outcome)
    for i in kept:
        simulated[i] = MeanResults(per_cell[i])

    # Stage 3: calibration gate.
    cal_error = _calibration_error(
        report, simulated, planner.calibration_metric
    )
    calibration_failed = False
    if report.pruned and not (cal_error <= planner.calibration_tolerance):
        # Median error above tolerance — or no comparable cell at all
        # (NaN): the analytic model is unvalidated here, so pruning is
        # not honest.  Simulate everything.
        calibration_failed = True
        for i in report.pruned:
            reps = [
                configs[i].with_(replication=configs[i].replication + r)
                for r in range(budget.take(repetitions))
            ]
            if reps:
                simulated[i] = MeanResults(
                    list(engine.run_cells(reps, aggregated=aggregated))
                )
            else:  # budget exhausted: fall back to one replication
                simulated[i] = replicate(
                    configs[i], repetitions=1, aggregated=aggregated,
                    engine=engine,
                )

    # Stage 4: adaptive top-up toward the precision target.
    for i in sorted(simulated):
        res = simulated[i]
        have = len(res.results)
        cell_policy = ReplicationPolicy(
            ci_target=policy.ci_target,
            level=policy.level,
            min_replications=max(1, have),
            max_replications=max(policy.max_replications, have),
            metrics=policy.metrics,
        )
        simulated[i] = continue_replication(
            configs[i], res, cell_policy, budget,
            aggregated=aggregated, engine=engine,
        )

    # Stage 5: surrogates for the (still-)pruned cells.
    pruned = [] if calibration_failed else report.pruned
    surrogates = (
        build_surrogates(report, simulated) if pruned else {}
    )

    planned = PlannedDesign(
        design=design,
        screening=report,
        baseline_replications=baseline,
        replications_used=budget.used,
        calibration_error=cal_error,
        calibration_failed=calibration_failed,
    )
    for d in report.decisions:
        if d.index in surrogates:
            planned.cells.append(
                PlannedCell(
                    index=d.index, label=d.label, source="surrogate",
                    decision=d, surrogate=surrogates[d.index],
                )
            )
        else:
            planned.cells.append(
                PlannedCell(
                    index=d.index, label=d.label, source="simulated",
                    decision=d, results=simulated[d.index],
                )
            )

    stats = getattr(engine, "stats", None)
    if stats is not None:
        stats.cells_pruned += planned.cells_pruned
        stats.replications_saved += planned.replications_saved
    reg = obs_registry()
    reg.counter(
        "planner.cells_pruned",
        "design cells served by analytic surrogates instead of simulation",
    ).inc(planned.cells_pruned)
    reg.counter(
        "planner.replications_saved",
        "cell-replications avoided vs the fixed-r baseline",
    ).inc(planned.replications_saved)
    return planned
