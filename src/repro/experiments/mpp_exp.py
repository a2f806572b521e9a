"""Simulation experiments for the MPP system: Table 6, Figures 25–28.

§4.4: contention-free scalable network, one application process and one
daemon per node, direct or binary-tree forwarding.  Large node counts
(every Figure 26 cell, Figure 27 above 16 nodes) use the aggregated
large-n mode (:mod:`repro.rocc.aggregate`).  Its cells were checked
against full simulation only on Pd CPU time and application CPU
utilization (``benchmarks/test_bench_ablation.py::test_full_vs_aggregate``,
n = 12).  On tree merges, main Paradyn process CPU utilization and total
monitoring latency the two modes differ (ROADMAP.md tabulates the gap).
An aggregation is valid only for the outputs it was checked on
(Thomasian, arXiv 2401.09292), so those panels of Figures 26–27 are not
validated; both artifacts say so in a note.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..expdesign.effects import allocate_variation
from ..expdesign.factorial import Factor, FactorialDesign
from ..rocc.config import Architecture, ForwardingTopology, SimulationConfig
from .reporting import ArtifactGroup, SeriesSet, Table
from .runners import mean, replicate, run_design
from .specs import DesignSpec

__all__ = [
    "design_spec", "table6", "figure25", "figure26", "figure27", "figure28",
]

_BF_BATCH = 32

#: Note on every artifact that plots aggregated cells (module docstring).
_AGGREGATED_NOTE = (
    "aggregated cells were checked against full simulation only on Pd "
    "CPU time and application CPU utilization "
    "(benchmarks/test_bench_ablation.py::test_full_vs_aggregate); their "
    "Paradyn CPU utilization and monitoring latency differ from full "
    "simulation and are not validated"
)


def _mpp_base(duration: float, **kw) -> SimulationConfig:
    return SimulationConfig(
        architecture=Architecture.MPP, duration=duration, **kw
    )


def _mpp_design(quick: bool = False) -> FactorialDesign:
    # Quick mode lowers the BF batch level so batches complete within
    # the shortened duration (see now_exp._now_design).
    return FactorialDesign(
        [
            Factor("nodes", 5, 50, "A"),
            Factor("sampling_period", 2_000.0, 50_000.0, "B"),
            Factor("batch_size", 1, 32 if quick else 128, "C"),
            Factor(
                "forwarding",
                ForwardingTopology.DIRECT,
                ForwardingTopology.TREE,
                "D",
            ),
        ]
    )


def design_spec(quick: bool = True) -> DesignSpec:
    """The MPP 2^4·r design as a :class:`DesignSpec` (planner seam)."""
    duration = 2_500_000.0 if quick else 10_000_000.0

    def make(run) -> SimulationConfig:
        return _mpp_base(
            duration,
            nodes=int(run["nodes"]),
            sampling_period=run["sampling_period"],
            batch_size=int(run["batch_size"]),
            forwarding=run["forwarding"],
            seed=60,
        )

    return DesignSpec(
        name="mpp",
        design=_mpp_design(quick),
        make=make,
        repetitions=2 if quick else 5,
    )


@lru_cache(maxsize=4)
def _mpp_factorial(quick: bool) -> Tuple[FactorialDesign, tuple, tuple]:
    spec = design_spec(quick)
    design, make, reps = spec.design, spec.make, spec.repetitions

    cells = run_design(design, make, repetitions=reps)
    cpu_rows = [
        [r.pd_cpu_time_per_node / 1e6 for r in cell.results] for cell in cells
    ]
    lat_rows = [
        [r.monitoring_latency_forwarding / 1e3 for r in cell.results]
        for cell in cells
    ]
    return design, tuple(map(tuple, cpu_rows)), tuple(map(tuple, lat_rows))


def table6(quick: bool = True) -> Table:
    """Pd CPU time per node and monitoring latency, direct vs tree."""
    design, cpu_rows, lat_rows = _mpp_factorial(quick)
    table = Table(
        title="Table 6: MPP factorial results",
        headers=[
            "period_ms", "nodes", "batch", "forwarding",
            "pd_cpu_s_per_node", "latency_ms",
        ],
    )
    for run, cpu, lat in zip(design.runs(), cpu_rows, lat_rows):
        table.add_row(
            run["sampling_period"] / 1e3,
            run["nodes"],
            run["batch_size"],
            run["forwarding"].value,
            mean(cpu),
            mean(lat),
        )
    return table


def figure25(quick: bool = True) -> ArtifactGroup:
    """Paper: sampling period (B) dominates Pd CPU time, then policy (C);
    node count (A) and period (B) dominate monitoring latency."""
    design, cpu_rows, lat_rows = _mpp_factorial(quick)
    group = ArtifactGroup(
        title="Figure 25: MPP variation explained "
        "(A=nodes, B=sampling period, C=policy, D=network configuration)"
    )
    for name, rows in (("Pd CPU time", cpu_rows), ("monitoring latency", lat_rows)):
        alloc = allocate_variation(design, rows)
        t = Table(
            title=f"variation explained for {name}",
            headers=["effect", "percent"],
            notes=[alloc.format()],
        )
        for share in alloc.top(8):
            t.add_row(share.label, 100.0 * share.fraction)
        t.add_row("error", 100.0 * alloc.error_fraction)
        group.add(t)
    return group


def _mpp_panels(x, runs_by_key, x_label, uninstrumented=None, latency="total"):
    lat_metric = (
        "monitoring_latency_total"
        if latency == "total"
        else "monitoring_latency_forwarding"
    )
    specs = [
        ("Pd CPU utilization/node (%)", "pd_cpu_utilization_per_node", 100.0),
        ("Paradyn CPU utilization/node (%)", "main_cpu_utilization", 100.0),
        ("Appl. CPU utilization/node (%)", "app_cpu_utilization_per_node", 100.0),
        (f"Monitoring latency/sample (s, {latency})", lat_metric, 1e-6),
    ]
    panels = []
    for name, metric, scale in specs:
        panel = SeriesSet(
            title=name, x_label=x_label, y_label=name, x=[float(v) for v in x]
        )
        for key, runs in runs_by_key.items():
            panel.add_series(key, [scale * getattr(r, metric) for r in runs])
        if uninstrumented is not None and "Appl." in name:
            panel.add_series(
                "uninstrumented",
                [scale * getattr(r, metric) for r in uninstrumented],
            )
        panels.append(panel)
    return panels


def figure26(quick: bool = True) -> ArtifactGroup:
    """BF policy; CF shown for the direct-overhead comparison (§4.4.2).
    The BF total latency includes batch accumulation — the trade-off the
    paper highlights."""
    duration = 2_000_000.0 if quick else 10_000_000.0
    reps = 2 if quick else 5
    nodes = 64 if quick else 256
    periods_ms = [1, 4, 16, 64] if quick else [1, 2, 4, 8, 16, 32, 64]
    runs_by_key = {}
    for key, batch, fwd in (
        ("CF direct", 1, ForwardingTopology.DIRECT),
        ("BF direct", _BF_BATCH, ForwardingTopology.DIRECT),
        ("BF tree", _BF_BATCH, ForwardingTopology.TREE),
    ):
        runs_by_key[key] = [
            replicate(
                _mpp_base(
                    duration,
                    nodes=nodes,
                    sampling_period=p * 1000.0,
                    batch_size=batch,
                    forwarding=fwd,
                    seed=26,
                ),
                repetitions=reps,
                aggregated=True,
            )
            for p in periods_ms
        ]
    uninst = [
        replicate(
            _mpp_base(duration, nodes=nodes, instrumented=False, seed=26),
            repetitions=reps,
            aggregated=True,
        )
        for _ in periods_ms
    ]
    group = ArtifactGroup(
        title=f"Figure 26: MPP vs sampling period (n={nodes}, aggregated mode)",
        notes=[_AGGREGATED_NOTE],
    )
    for panel in _mpp_panels(periods_ms, runs_by_key, "period_ms", uninst):
        group.add(panel)
    return group


def figure27(quick: bool = True) -> ArtifactGroup:
    """T = 40 ms, BF; tree forwarding raises Pd CPU overhead (merge work)
    without helping latency at these rates (§4.4.2)."""
    duration = 2_000_000.0 if quick else 10_000_000.0
    reps = 2 if quick else 5
    nodes = [2, 8, 32, 128] if quick else [2, 4, 8, 16, 32, 64, 128, 256]
    runs_by_key = {}
    for key, fwd in (
        ("direct", ForwardingTopology.DIRECT),
        ("tree", ForwardingTopology.TREE),
    ):
        runs_by_key[key] = [
            replicate(
                _mpp_base(
                    duration,
                    nodes=n,
                    sampling_period=40_000.0,
                    batch_size=_BF_BATCH,
                    forwarding=fwd,
                    seed=27,
                ),
                repetitions=reps,
                aggregated=n > 16,
            )
            for n in nodes
        ]
    uninst = [
        replicate(
            _mpp_base(duration, nodes=n, instrumented=False, seed=27),
            repetitions=reps,
            aggregated=n > 16,
        )
        for n in nodes
    ]
    group = ArtifactGroup(
        title="Figure 27: MPP vs number of nodes (T=40ms, BF, "
        "aggregated above 16 nodes)",
        notes=[_AGGREGATED_NOTE],
    )
    for panel in _mpp_panels(nodes, runs_by_key, "nodes", uninst):
        group.add(panel)
    return group


def figure28(quick: bool = True) -> ArtifactGroup:
    """Frequent barriers idle the application, raising the daemon's share
    of the (busy) CPU and lowering application CPU occupancy (§4.4.3)."""
    duration = 1_500_000.0 if quick else 10_000_000.0
    reps = 2 if quick else 5
    nodes = 8 if quick else 64  # paper: 256; full simulation required
    barrier_ms = [0.1, 1, 10, 100, 1000] if quick else [
        0.01, 0.1, 1, 10, 100, 1000, 10000
    ]
    runs = [
        replicate(
            _mpp_base(
                duration,
                nodes=nodes,
                sampling_period=40_000.0,
                batch_size=_BF_BATCH,
                barrier_period=b * 1000.0,
                seed=28,
            ),
            repetitions=reps,
        )
        for b in barrier_ms
    ]
    group = ArtifactGroup(
        title=f"Figure 28: barrier-period sweep (n={nodes}, T=40ms, BF)"
    )
    specs = [
        ("Pd CPU utilization/node (%)", "pd_cpu_utilization_per_node", 100.0),
        ("Paradyn CPU utilization/node (%)", "main_cpu_utilization", 100.0),
        ("Appl. CPU utilization/node (%)", "app_cpu_utilization_per_node", 100.0),
        ("Monitoring latency/sample (s)", "monitoring_latency_total", 1e-6),
    ]
    for name, metric, scale in specs:
        panel = SeriesSet(
            title=name, x_label="barrier_period_ms", y_label=name,
            x=[float(b) for b in barrier_ms],
        )
        panel.add_series("BF", [scale * getattr(r, metric) for r in runs])
        group.add(panel)
    # The paper's headline panel: the daemon's share of *busy* CPU time,
    # which rises as barriers idle the application.
    share_panel = SeriesSet(
        title="Pd share of busy CPU time (%)",
        x_label="barrier_period_ms",
        y_label="percent",
        x=[float(b) for b in barrier_ms],
    )
    share_panel.add_series(
        "BF",
        [
            100.0
            * r.pd_cpu_time_per_node
            / max(
                1e-9,
                r.pd_cpu_time_per_node
                + r.app_cpu_time_per_node
                + r.pvmd_cpu_time_per_node
                + r.other_cpu_time_per_node,
            )
            for r in runs
        ],
    )
    group.add(share_panel)
    return group
