"""``repro.planner`` — hybrid analytic–simulation experiment planning.

The paper evaluates each architecture with full 2^k·r factorial
simulation sweeps, *after* Section 3 has already produced closed-form
operational predictions for much of the same space.  This package puts
the two together: analytic screening prunes design cells where the
Section 3 model is validated and trusted, adaptive replication spends
the simulation budget where variance actually demands it, and pruned
cells are reported as explicitly-tagged surrogates (analytic value plus
a correction interpolated from simulated neighbors).

Entry points:

* :func:`run_planned` — plan and execute one factorial design.
* :func:`adaptive_replicate` — precision-driven replication of a single
  configuration (the ``rocc --plan`` path).
* :func:`screen` / :func:`predict` — the analytic stages, usable (and
  golden-mastered) without running any simulation.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AnalyticPrediction": "analytic",
    "applicability": "analytic",
    "predict": "analytic",
    "ScreeningPolicy": "screening",
    "CellDecision": "screening",
    "ScreeningReport": "screening",
    "screen": "screening",
    "ReplicationPolicy": "replication",
    "ReplicationBudget": "replication",
    "adaptive_replicate": "replication",
    "continue_replication": "replication",
    "SurrogateCell": "surrogate",
    "build_surrogates": "surrogate",
    "PlannerConfig": "plan",
    "PlannedCell": "plan",
    "PlannedDesign": "plan",
    "run_planned": "plan",
})
