"""Planned (hybrid analytic–simulation) variants of the factorial runs.

``planned_now`` / ``planned_smp`` / ``planned_mpp`` /
``planned_validation`` run the same designs as ``table4`` / ``table5``
/ ``table6`` / ``figure30``, but through :func:`repro.planner.
run_planned`: analytic screening prunes trusted cells, adaptive
replication spends the budget where variance demands it, and pruned
cells appear as explicitly-tagged surrogates.  Simulated cells are
bit-identical to the classic runners' (same configs, seeds and
replication numbering), which ``repro.verify``'s ``planner``
differential check asserts.

Each runner accepts a ``plan`` keyword (a
:class:`~repro.planner.PlannerConfig`); the experiments CLI builds it
from ``--plan`` / ``--ci-target`` / ``--budget``.
"""

from __future__ import annotations

from typing import Optional

from ..planner import PlannedDesign, PlannerConfig, run_planned
from .reporting import ArtifactGroup, Table
from .specs import DesignSpec

__all__ = [
    "run_planned_spec",
    "planned_now",
    "planned_smp",
    "planned_mpp",
    "planned_validation",
]


def run_planned_spec(
    spec: DesignSpec, plan: Optional[PlannerConfig] = None
) -> PlannedDesign:
    """Execute one :class:`DesignSpec` under the planner."""
    return run_planned(
        spec.design,
        spec.make,
        repetitions=spec.repetitions,
        planner=plan if plan is not None else PlannerConfig(),
    )


def _decision_table(planned: PlannedDesign) -> Table:
    table = Table(
        title="Planner decisions (analytic screening)",
        headers=["run", "cell", "decision", "max_util", "reason"],
    )
    for d in planned.screening.decisions:
        table.add_row(
            d.index,
            d.label,
            "simulate" if d.simulate else "prune",
            d.prediction.max_utilization if d.prediction.applicable
            else float("nan"),
            d.reason,
        )
    return table


def _results_table(planned: PlannedDesign, spec: DesignSpec) -> Table:
    factor_names = [f.name for f in spec.design.factors]
    table = Table(
        title="Planned results (simulated cells + tagged surrogates)",
        headers=["run", *factor_names, *spec.metrics, "source"],
        notes=[
            "surrogate rows are analytic predictions (plus neighbor "
            "correction where available), NOT simulation output",
        ],
    )
    runs = list(spec.design.runs())
    for cell in planned.cells:
        run = runs[cell.index]
        values = [
            getattr(cell.value, m, float("nan")) for m in spec.metrics
        ]
        table.add_row(
            cell.index,
            *[run[name] for name in factor_names],
            *values,
            cell.tag,
        )
    return table


def _planned_artifact(
    spec: DesignSpec, plan: Optional[PlannerConfig], title: str
) -> ArtifactGroup:
    planned = run_planned_spec(spec, plan)
    group = ArtifactGroup(title=title)
    group.add(_decision_table(planned))
    group.add(_results_table(planned, spec))
    group.notes.append(f"planner: {planned.summary()}")
    return group


def planned_now(
    quick: bool = True, plan: Optional[PlannerConfig] = None
) -> ArtifactGroup:
    """Hybrid planned run of the NOW 2^4 design (cf. ``table4``)."""
    from . import now_exp

    return _planned_artifact(
        now_exp.design_spec(quick), plan,
        "Planned NOW factorial (hybrid analytic-simulation)",
    )


def planned_smp(
    quick: bool = True, plan: Optional[PlannerConfig] = None
) -> ArtifactGroup:
    """Hybrid planned run of the SMP 2^4 design (cf. ``table5``)."""
    from . import smp_exp

    return _planned_artifact(
        smp_exp.design_spec(quick), plan,
        "Planned SMP factorial (hybrid analytic-simulation)",
    )


def planned_mpp(
    quick: bool = True, plan: Optional[PlannerConfig] = None
) -> ArtifactGroup:
    """Hybrid planned run of the MPP 2^4 design (cf. ``table6``)."""
    from . import mpp_exp

    return _planned_artifact(
        mpp_exp.design_spec(quick), plan,
        "Planned MPP factorial (hybrid analytic-simulation)",
    )


def planned_validation(
    quick: bool = True, plan: Optional[PlannerConfig] = None
) -> ArtifactGroup:
    """Hybrid planned run of the testbed 2^2 design (cf. ``figure30``)."""
    from . import validation

    return _planned_artifact(
        validation.design_spec(quick), plan,
        "Planned testbed factorial (hybrid analytic-simulation)",
    )
