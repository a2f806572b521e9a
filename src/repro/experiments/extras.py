"""Extension experiments beyond the paper's artifact list.

These implement the §6 outlook and §1 motivation quantitatively:

* ``extra_adaptive`` — the overhead-regulation study: static CF at an
  aggressive rate vs the adaptive controller under two strategies.
* ``extra_perturbation`` — the instrumentation-perturbation table: the
  "10 % to more than 50 %" degradation range the paper's introduction
  cites, mapped across sampling periods and policies.  Its instrumented
  and baseline cells go through the engine, so a rerun on a filled
  cache simulates nothing.  ``extra_adaptive`` runs its regulated
  systems directly: it reads the regulator decisions off the
  :class:`ParadynISSystem` object, which a cached result does not keep.

They are registered like the paper artifacts (``python -m
repro.experiments extra_adaptive``) but use the ``extra_`` prefix so the
paper-reproduction index stays unambiguous.
"""

from __future__ import annotations

from ..rocc.adaptive import RegulatorConfig
from ..rocc.config import SimulationConfig
from ..rocc.perturbation import PerturbationReport
from ..rocc.system import ParadynISSystem, simulate
from .engine import CellError, current_engine
from .reporting import ArtifactGroup, Table

__all__ = ["extra_adaptive", "extra_perturbation"]


def extra_adaptive(quick: bool = True) -> ArtifactGroup:
    """Static vs regulated overhead at a 1 % budget, two strategies."""
    duration = 8_000_000.0 if quick else 30_000_000.0
    base = SimulationConfig(
        nodes=2, sampling_period=1_000.0, batch_size=1,
        duration=duration, seed=44,
    )
    budget = 0.01

    group = ArtifactGroup(
        title="Extension: adaptive overhead regulation (budget 1 %)"
    )
    table = Table(
        title="static vs regulated",
        headers=[
            "strategy", "settled_overhead_pct", "run_avg_overhead_pct",
            "final_period_ms", "final_batch", "samples_delivered",
        ],
    )

    static = simulate(base)
    table.add_row(
        "static CF @ 1ms",
        100 * static.pd_cpu_utilization_per_node,
        100 * static.pd_cpu_utilization_per_node,
        1.0,
        1,
        static.samples_received,
    )

    for label, reg in (
        ("regulated: period backoff", RegulatorConfig(budget=budget)),
        (
            "regulated: batch first",
            RegulatorConfig(budget=budget, adapt_batch=True, max_batch=64),
        ),
    ):
        system = ParadynISSystem(base.with_(adaptive=reg))
        results = system.run()
        decisions = system.regulators[0].decisions
        tail = [d for d in decisions if d.time > duration / 2]
        settled = sum(d.observed_utilization for d in tail) / max(len(tail), 1)
        table.add_row(
            label,
            100 * settled,
            100 * results.pd_cpu_utilization_per_node,
            system.apps[0].sampler_state.period / 1e3,
            system.daemons[0].batch_size,
            results.samples_received,
        )
    group.add(table)
    group.notes.append(
        "batch-first regulation keeps several times more samples per "
        "second at the same settled overhead — the CF→BF conclusion, "
        "reached automatically"
    )
    return group


def extra_perturbation(quick: bool = True) -> Table:
    """Application slowdown vs sampling period and policy."""
    duration = 2_000_000.0 if quick else 10_000_000.0
    table = Table(
        title="Instrumentation perturbation of the application",
        headers=[
            "period_ms", "policy", "slowdown_pct", "direct_pct",
            "indirect_pct",
        ],
        notes=[
            "slowdown = lost application cycles vs the uninstrumented "
            "baseline (common random numbers); direct = IS CPU occupancy; "
            "indirect = the rest (scheduling displacement, pipe blocking)",
        ],
    )
    periods_ms = [0.5, 2, 10, 40] if quick else [0.5, 1, 2, 5, 10, 20, 40]
    points = [
        (period, policy, SimulationConfig(
            nodes=2,
            app_processes_per_node=2,
            sampling_period=period * 1000.0,
            batch_size=batch,
            duration=duration,
            seed=61,
        ))
        for period in periods_ms
        for policy, batch in (("CF", 1), ("BF", 32))
    ]
    # Instrumented and uninstrumented runs of each point share the seed
    # (common random numbers).
    configs = []
    for _, _, config in points:
        configs += (config, config.with_(instrumented=False))
    outcomes = current_engine().run_cells(configs)
    for i, (period, policy, _) in enumerate(points):
        instrumented, baseline = outcomes[2 * i], outcomes[2 * i + 1]
        if isinstance(instrumented, CellError) or isinstance(baseline, CellError):
            continue  # failed under --no-strict; the engine note counts it
        report = PerturbationReport(instrumented=instrumented, baseline=baseline)
        table.add_row(
            period,
            policy,
            report.slowdown_percent,
            report.direct_overhead_percent,
            report.indirect_percent,
        )
    return table
