"""Simulation experiments for the SMP system: Table 5, Figures 20–24.

§4.3: ``n`` CPUs behind one ready queue and a shared bus; as many
application processes as the experiment dictates; 1–4 Paradyn daemons
share the CPUs with the applications and the main Paradyn process.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..expdesign.effects import allocate_variation
from ..expdesign.factorial import Factor, FactorialDesign
from ..rocc.config import Architecture, SimulationConfig
from .reporting import ArtifactGroup, SeriesSet, Table
from .runners import mean, replicate, run_design
from .specs import DesignSpec

__all__ = [
    "design_spec",
    "table5", "figure20", "figure21", "figure22", "figure23", "figure24",
]

_BF_BATCH = 32


def _smp_base(duration: float, **kw) -> SimulationConfig:
    return SimulationConfig(
        architecture=Architecture.SMP, duration=duration, **kw
    )


def _smp_design(quick: bool = False) -> FactorialDesign:
    # Quick mode lowers the BF batch level so batches complete within
    # the shortened duration (see now_exp._now_design).
    return FactorialDesign(
        [
            Factor("nodes", 5, 50, "A"),
            Factor("sampling_period", 1_000.0, 32_000.0, "B"),
            Factor("batch_size", 1, 32 if quick else 128, "C"),
            Factor("app_network_us", 200.0, 2_000.0, "D"),
        ]
    )


def design_spec(quick: bool = True) -> DesignSpec:
    """The SMP 2^4·r design as a :class:`DesignSpec` (planner seam)."""
    duration = 2_000_000.0 if quick else 10_000_000.0

    def make(run) -> SimulationConfig:
        n = int(run["nodes"])
        cfg = _smp_base(
            duration,
            nodes=n,
            app_processes_per_node=n,  # apps == CPUs (§4.3.1 caption)
            sampling_period=run["sampling_period"],
            batch_size=int(run["batch_size"]),
            seed=50,
        )
        return cfg.with_(
            workload=cfg.workload.with_network_demand(run["app_network_us"])
        )

    return DesignSpec(
        name="smp",
        design=_smp_design(quick),
        make=make,
        repetitions=2 if quick else 5,
    )


@lru_cache(maxsize=4)
def _smp_factorial(quick: bool) -> Tuple[FactorialDesign, tuple, tuple]:
    spec = design_spec(quick)
    design, make, reps = spec.design, spec.make, spec.repetitions

    cells = run_design(design, make, repetitions=reps)
    cpu_rows = [
        [
            (r.pd_cpu_time_per_node + r.main_cpu_time / r.nodes) / 1e6
            for r in cell.results
        ]
        for cell in cells
    ]
    lat_rows = [
        [r.monitoring_latency_forwarding / 1e3 for r in cell.results]
        for cell in cells
    ]
    return design, tuple(map(tuple, cpu_rows)), tuple(map(tuple, lat_rows))


def table5(quick: bool = True) -> Table:
    """IS CPU time per node and monitoring latency for all 16 cells."""
    design, cpu_rows, lat_rows = _smp_factorial(quick)
    table = Table(
        title="Table 5: SMP factorial results "
        "(app processes = number of nodes)",
        headers=[
            "period_ms", "nodes", "batch", "app_net_us",
            "is_cpu_s_per_node", "latency_ms",
        ],
    )
    for run, cpu, lat in zip(design.runs(), cpu_rows, lat_rows):
        table.add_row(
            run["sampling_period"] / 1e3,
            run["nodes"],
            run["batch_size"],
            run["app_network_us"],
            mean(cpu),
            mean(lat),
        )
    return table


def figure20(quick: bool = True) -> ArtifactGroup:
    """Paper: node count (A) dominates IS CPU time; policy (C) and node
    count (A) dominate monitoring latency."""
    design, cpu_rows, lat_rows = _smp_factorial(quick)
    group = ArtifactGroup(
        title="Figure 20: SMP variation explained "
        "(A=nodes, B=sampling period, C=policy, D=application type)"
    )
    for name, rows in (("IS CPU time", cpu_rows), ("monitoring latency", lat_rows)):
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


def figure21(quick: bool = True) -> ArtifactGroup:
    """Under CF more daemons help at high CPU counts; under BF one daemon
    suffices up to 16 CPUs (§4.3.2)."""
    duration = 2_000_000.0 if quick else 20_000_000.0
    reps = 2 if quick else 5
    # The paper sweeps 1–16 CPUs; our cost model moves the single-daemon
    # saturation point to ~32 CPUs, so the sweep extends there to show
    # the same crossover (EXPERIMENTS.md, figure21).
    cpus = [1, 4, 8, 16, 32] if quick else [1, 2, 4, 8, 12, 16, 24, 32]
    group = ArtifactGroup(
        title="Figure 21: SMP Pd forwarding throughput (T=40ms, apps=CPUs)"
    )
    for policy, batch in (("CF", 1), (f"BF (batch {_BF_BATCH})", _BF_BATCH)):
        panel = SeriesSet(
            title=f"{policy}: throughput per daemon (samples/s) vs CPUs",
            x_label="cpus", y_label="samples_per_s_per_daemon",
            x=[float(c) for c in cpus],
        )
        for k in (1, 2, 3, 4):
            values = []
            for c in cpus:
                cfg = _smp_base(
                    duration,
                    nodes=c,
                    app_processes_per_node=c,
                    daemons=min(k, c),
                    sampling_period=40_000.0,
                    batch_size=batch,
                    seed=21,
                )
                values.append(
                    replicate(cfg, repetitions=reps).throughput_per_daemon
                )
            panel.add_series(f"{k} Pd" + ("s" if k > 1 else ""), values)
        group.add(panel)
    return group


def _is_cpu_per_sample(r) -> float:
    """IS (daemons + main) CPU µs per delivered sample.

    Throughput-normalized overhead: a starved CF daemon does *less*
    total work only because it delivers fewer samples, so raw CPU time
    can invert; per-delivered-sample cost cannot.
    """
    if r.received_throughput <= 0:
        return float("nan")
    busy_per_s = r.is_cpu_utilization_per_node * r.nodes * 1e6
    return busy_per_s / r.received_throughput


def _smp_metric_panels(x, runs_by_key, x_label, uninstrumented=None):
    specs = [
        ("IS CPU utilization/node (%)", "is_cpu_utilization_per_node", 100.0),
        ("Monitoring latency/samp. (ms)", "monitoring_latency_forwarding", 1e-3),
        ("Application CPU utilization/node (%)", "app_cpu_utilization_per_node", 100.0),
    ]
    panels = []
    for name, metric, scale in specs:
        panel = SeriesSet(
            title=name, x_label=x_label, y_label=name, x=[float(v) for v in x]
        )
        for key, runs in runs_by_key.items():
            panel.add_series(key, [scale * getattr(r, metric) for r in runs])
        if uninstrumented is not None and "Application" in name:
            panel.add_series(
                "uninstrumented",
                [scale * getattr(r, metric) for r in uninstrumented],
            )
        panels.append(panel)
    eff = SeriesSet(
        title="IS CPU per delivered sample (µs)",
        x_label=x_label,
        y_label="us_per_sample",
        x=[float(v) for v in x],
    )
    for key, runs in runs_by_key.items():
        eff.add_series(key, [_is_cpu_per_sample(r) for r in runs])
    panels.append(eff)
    return panels


def _smp_daemon_figure(
    title: str,
    parameter: str,
    values,
    x_label: str,
    quick: bool,
    *,
    nodes: int = 16,
    apps: int = 32,
    sampling_period: float = 40_000.0,
) -> ArtifactGroup:
    duration = 1_500_000.0 if quick else 10_000_000.0
    reps = 1 if quick else 3
    group = ArtifactGroup(title=title)
    daemon_counts = (1, 4) if quick else (1, 2, 3, 4)

    def config(v, **overrides):
        kw = dict(
            nodes=nodes,
            app_processes_per_node=apps,
            sampling_period=sampling_period,
            seed=22,
        )
        kw[parameter] = v
        kw.update(overrides)
        return _smp_base(duration, **kw)

    # The uninstrumented baseline is shared by the CF and BF sections.
    uninst = [
        replicate(config(v, instrumented=False), repetitions=reps)
        for v in values
    ]
    for policy, batch in (("CF", 1), ("BF", _BF_BATCH)):
        runs_by_key = {}
        for k in daemon_counts:
            runs = [
                replicate(config(v, daemons=k, batch_size=batch),
                          repetitions=reps)
                for v in values
            ]
            runs_by_key[f"{k} Pd" + ("s" if k > 1 else "")] = runs
        for panel in _smp_metric_panels(
            [v / 1e3 if parameter == "sampling_period" else v for v in values],
            runs_by_key,
            x_label,
            uninst,
        ):
            panel.title = f"({policy}) {panel.title}"
            group.add(panel)
    return group


def figure22(quick: bool = True) -> ArtifactGroup:
    """T = 40 ms, 32 application processes; shows the bus bottleneck at
    large CPU counts (§4.3.3)."""
    nodes = [2, 8, 32] if quick else [2, 4, 8, 16, 32]
    return _smp_daemon_figure(
        "Figure 22: SMP metrics vs number of nodes (T=40ms, 32 apps)",
        "nodes",
        nodes,
        "nodes",
        quick,
    )


def figure23(quick: bool = True) -> ArtifactGroup:
    """n = 16, 32 apps; the small-period pipe-full anomaly (§4.3.3)."""
    periods = [2_000.0, 8_000.0, 40_000.0] if quick else [
        1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 40_000.0, 64_000.0
    ]
    return _smp_daemon_figure(
        "Figure 23: SMP metrics vs sampling period (n=16, 32 apps)",
        "sampling_period",
        periods,
        "period_ms",
        quick,
    )


def figure24(quick: bool = True) -> ArtifactGroup:
    """T = 40 ms, n = 16 CPUs; work scales with the process count."""
    apps = [4, 16, 64] if quick else [1, 2, 4, 8, 16, 32, 64]
    return _smp_daemon_figure(
        "Figure 24: SMP metrics vs number of application processes "
        "(T=40ms, n=16)",
        "app_processes_per_node",
        apps,
        "app_processes",
        quick,
    )
