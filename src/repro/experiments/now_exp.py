"""Simulation experiments for the NOW system: Table 4, Figures 16–19.

§4.2: nodes on a shared Ethernet, one application process and one
daemon per node, direct forwarding.  Factors: number of nodes (A),
sampling period (B), forwarding policy / batch size (C), application
type i.e. network occupancy requirement (D).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from ..expdesign.effects import VariationResult, allocate_variation
from ..expdesign.factorial import Factor, FactorialDesign
from ..rocc.config import NetworkMode, SimulationConfig
from .reporting import ArtifactGroup, SeriesSet, Table
from .runners import mean, metric_series, run_design, sweep
from .specs import DesignSpec

__all__ = [
    "design_spec", "table4", "figure16", "figure17", "figure18", "figure19",
]

_BF_BATCH = 32


def _now_design(quick: bool = False) -> FactorialDesign:
    # Quick mode lowers the BF batch level to 32 so that batches fill
    # (and latency is observable) within the shortened duration; full
    # mode uses the paper's 128.
    return FactorialDesign(
        [
            Factor("nodes", 5, 50, "A"),
            Factor("sampling_period", 2_000.0, 32_000.0, "B"),
            Factor("batch_size", 1, 32 if quick else 128, "C"),
            Factor("app_network_us", 200.0, 2_000.0, "D"),
        ]
    )


def design_spec(quick: bool = True) -> DesignSpec:
    """The NOW 2^4·r design as a :class:`DesignSpec` (planner seam)."""
    duration = 2_000_000.0 if quick else 10_000_000.0

    def make(run) -> SimulationConfig:
        cfg = SimulationConfig(
            nodes=int(run["nodes"]),
            sampling_period=run["sampling_period"],
            batch_size=int(run["batch_size"]),
            duration=duration,
            seed=40,
        )
        return cfg.with_(
            workload=cfg.workload.with_network_demand(run["app_network_us"])
        )

    return DesignSpec(
        name="now",
        design=_now_design(quick),
        make=make,
        repetitions=2 if quick else 5,
    )


@lru_cache(maxsize=4)
def _now_factorial(quick: bool) -> Tuple[FactorialDesign, tuple, tuple]:
    """Run the 2^4·r NOW design; returns (design, cpu_rows, latency_rows)."""
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


def table4(quick: bool = True) -> Table:
    """Pd CPU time per node and monitoring latency for all 16 cells."""
    design, cpu_rows, lat_rows = _now_factorial(quick)
    table = Table(
        title="Table 4: NOW factorial results",
        headers=[
            "period_ms", "nodes", "batch", "app_net_us",
            "pd_cpu_s_per_node", "latency_ms",
        ],
        notes=[
            "CF = batch 1; the BF level is 32 in quick mode, 128 at paper "
            "scale; latency is the forwarding-unit residence time (see "
            "EXPERIMENTS.md on the two definitions)",
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


def figure16(quick: bool = True) -> ArtifactGroup:
    """Shares of variation for Pd CPU time and monitoring latency.

    Paper: sampling period (B) dominates Pd CPU time (68 %), followed by
    forwarding policy (C); node count (A) and policy (C) dominate latency.
    """
    design, cpu_rows, lat_rows = _now_factorial(quick)
    group = ArtifactGroup(
        title="Figure 16: NOW variation explained "
        "(A=nodes, B=sampling period, C=policy, D=application type)"
    )
    for name, rows in (("Pd CPU time", cpu_rows), ("monitoring latency", lat_rows)):
        alloc: VariationResult = allocate_variation(design, rows)
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


def figure17(quick: bool = True) -> ArtifactGroup:
    """CF vs BF(32) at one node: vs sampling period (8 app processes) and
    vs application-process count (T = 40 ms)."""
    duration = 2_000_000.0 if quick else 20_000_000.0
    reps = 2 if quick else 5
    group = ArtifactGroup(
        title="Figure 17: NOW local metrics, CF vs BF (batch 32)",
        notes=[
            "panel (a) follows Table 4's operating point: P = 8 application "
            "processes system-wide (8 nodes x 1 process); the contention-"
            "free network matches the captions of the companion figures",
        ],
    )

    periods_ms = [5, 10, 20, 40, 50] if quick else [5, 10, 15, 20, 30, 40, 50]
    base = SimulationConfig(
        nodes=8, app_processes_per_node=1, duration=duration, seed=17,
        network_mode=NetworkMode.CONTENTION_FREE,
    )
    panel_cpu = SeriesSet(
        title="(a) Pd CPU time (s) vs sampling period, 8 app processes",
        x_label="period_ms", y_label="pd_cpu_s", x=[float(p) for p in periods_ms],
    )
    panel_thr = SeriesSet(
        title="(a) forwarding throughput (samples/s) vs sampling period",
        x_label="period_ms", y_label="samples_per_s", x=[float(p) for p in periods_ms],
    )
    for policy, batch in (("CF", 1), ("BF", _BF_BATCH)):
        runs = sweep(
            base.with_(batch_size=batch),
            "sampling_period",
            [p * 1000.0 for p in periods_ms],
            repetitions=reps,
        )
        panel_cpu.add_series(
            policy, [r.node0_pd_cpu_time / 1e6 for r in runs]
        )
        panel_thr.add_series(policy, metric_series(runs, "throughput_per_daemon"))
    group.add(panel_cpu)
    group.add(panel_thr)

    apps = [1, 4, 8, 16, 32] if quick else [1, 2, 4, 8, 16, 24, 32]
    base_b = SimulationConfig(
        nodes=2, duration=duration, seed=18,
        network_mode=NetworkMode.CONTENTION_FREE,
    )
    panel_cpu_b = SeriesSet(
        title="(b) Pd CPU time (s) vs number of application processes, T=40ms",
        x_label="app_processes", y_label="pd_cpu_s", x=[float(a) for a in apps],
    )
    panel_thr_b = SeriesSet(
        title="(b) forwarding throughput (samples/s) vs application processes",
        x_label="app_processes", y_label="samples_per_s", x=[float(a) for a in apps],
    )
    for policy, batch in (("CF", 1), ("BF", _BF_BATCH)):
        runs = sweep(
            base_b.with_(batch_size=batch),
            "app_processes_per_node",
            apps,
            repetitions=reps,
        )
        panel_cpu_b.add_series(policy, [r.node0_pd_cpu_time / 1e6 for r in runs])
        panel_thr_b.add_series(policy, metric_series(runs, "throughput_per_daemon"))
    group.add(panel_cpu_b)
    group.add(panel_thr_b)
    return group


def _now_global_panels(
    x, runs_by_policy, x_label: str, uninstrumented=None
) -> List[SeriesSet]:
    specs = [
        ("Pd CPU utilization/node (%)", "pd_cpu_utilization_per_node", 100.0),
        ("Paradyn CPU utilization (%)", "main_cpu_utilization", 100.0),
        ("Appl. CPU utilization/node (%)", "app_cpu_utilization_per_node", 100.0),
        ("Monitoring latency/samp. (ms)", "monitoring_latency_forwarding", 1e-3),
    ]
    panels = []
    for name, metric, scale in specs:
        panel = SeriesSet(
            title=name, x_label=x_label, y_label=name, x=[float(v) for v in x]
        )
        for policy, runs in runs_by_policy.items():
            panel.add_series(
                policy, [scale * getattr(r, metric) for r in runs]
            )
        if uninstrumented is not None and "Appl." in name:
            panel.add_series(
                "uninstrumented",
                [scale * getattr(r, metric) for r in uninstrumented],
            )
        panels.append(panel)
    return panels


def figure18(quick: bool = True) -> ArtifactGroup:
    """CF vs BF on a contention-free network (the figure's caption), with
    the uninstrumented application baseline."""
    duration = 2_000_000.0 if quick else 20_000_000.0
    reps = 2 if quick else 5
    group = ArtifactGroup(title="Figure 18: NOW global metrics, CF vs BF")
    base = SimulationConfig(
        nodes=8, duration=duration, seed=20,
        network_mode=NetworkMode.CONTENTION_FREE,
    )

    nodes = [2, 4, 8, 16, 32] if quick else [2, 4, 8, 16, 24, 32]
    runs_a = {
        policy: sweep(base.with_(batch_size=b), "nodes", nodes, repetitions=reps)
        for policy, b in (("CF", 1), ("BF", _BF_BATCH))
    }
    uninst_a = sweep(
        base.with_(instrumented=False), "nodes", nodes, repetitions=reps
    )
    for panel in _now_global_panels(nodes, runs_a, "nodes", uninst_a):
        panel.title = f"(a) T=40ms — {panel.title}"
        group.add(panel)

    periods_ms = [1, 4, 16, 64] if quick else [1, 2, 4, 8, 16, 32, 64]
    runs_b = {
        policy: sweep(
            base.with_(batch_size=b),
            "sampling_period",
            [p * 1000.0 for p in periods_ms],
            repetitions=reps,
        )
        for policy, b in (("CF", 1), ("BF", _BF_BATCH))
    }
    uninst_b = sweep(
        base.with_(instrumented=False),
        "sampling_period",
        [p * 1000.0 for p in periods_ms],
        repetitions=reps,
    )
    for panel in _now_global_panels(periods_ms, runs_b, "period_ms", uninst_b):
        panel.title = f"(b) n=8 — {panel.title}"
        group.add(panel)
    return group


def figure19(quick: bool = True) -> ArtifactGroup:
    """Metrics vs batch size at n = 8 for three sampling periods; shows
    the knee right after the CF→BF transition (§4.2.4)."""
    # Duration must comfortably exceed the largest batch fill time
    # (128 × 40 ms ≈ 5.1 s) or the large-batch cells never forward.
    duration = 6_000_000.0 if quick else 12_000_000.0
    reps = 2 if quick else 5
    batches = [1, 2, 4, 8, 16, 32, 64, 128]
    base = SimulationConfig(
        nodes=8, duration=duration, seed=19,
        network_mode=NetworkMode.CONTENTION_FREE,
    )
    group = ArtifactGroup(title="Figure 19: NOW metrics vs batch size (n=8)")
    specs = [
        ("Pd CPU utilization/node (%)", "pd_cpu_utilization_per_node", 100.0),
        ("Paradyn CPU utilization/node (%)", "main_cpu_utilization", 100.0),
        ("Appl. CPU utilization/node (%)", "app_cpu_utilization_per_node", 100.0),
        ("Monitoring latency/samp. (ms)", "monitoring_latency_forwarding", 1e-3),
    ]
    period_list = [(1, 1_000.0), (40, 40_000.0)] if quick else [
        (1, 1_000.0), (40, 40_000.0), (64, 64_000.0)
    ]
    run_cache = {
        label: sweep(
            base.with_(sampling_period=period),
            "batch_size",
            batches,
            repetitions=reps,
        )
        for label, period in period_list
    }
    for name, metric, scale in specs:
        panel = SeriesSet(
            title=name, x_label="batch_size", y_label=name,
            x=[float(b) for b in batches],
        )
        for label, runs in run_cache.items():
            panel.add_series(
                f"T={label}ms", [scale * getattr(r, metric) for r in runs]
            )
        group.add(panel)
    return group
