"""Analytical (Section 3) figures: 9, 10, 12, 13, 14, 15.

These are pure operational-analysis sweeps — equations (1)–(16) — so
they run instantly; ``quick`` only trims the sweep grids slightly.
"""

from __future__ import annotations

from typing import List, Sequence

from ..analytical.mpp import MPPAnalyticalModel
from ..analytical.now import NOWAnalyticalModel
from ..analytical.smp import SMPAnalyticalModel
from .reporting import ArtifactGroup, SeriesSet

__all__ = ["figure9", "figure10", "figure12", "figure13", "figure14", "figure15"]

_BF_BATCH = 32  # the paper's "arbitrarily selected" BF batch size


def _panel(title: str, x_label: str, y_label: str, x: Sequence[float]) -> SeriesSet:
    return SeriesSet(
        title=title, x_label=x_label, y_label=y_label, x=[float(v) for v in x]
    )


def _now_metrics(
    x: Sequence[float],
    make_model,
) -> List[SeriesSet]:
    """Build the four standard NOW panels from a model factory."""
    panels = []
    specs = [
        ("Pd CPU utilization/node (%)", lambda m: 100 * m.pd_cpu_utilization()),
        ("Paradyn CPU utilization (%)", lambda m: 100 * m.paradyn_cpu_utilization()),
        ("Appl. CPU utilization/node (%)", lambda m: 100 * m.app_cpu_utilization()),
        ("Monitoring latency/sample (s)", lambda m: m.monitoring_latency() / 1e6),
    ]
    for name, extract in specs:
        panel = _panel(name, "x", name, x)
        for policy, batch in (("CF", 1), ("BF", _BF_BATCH)):
            panel.add_series(policy, [extract(make_model(v, batch)) for v in x])
        panels.append(panel)
    return panels


def figure9(quick: bool = True) -> ArtifactGroup:
    """Equations (1)–(6) swept over nodes (T = 40 ms) and periods (n = 8)."""
    group = ArtifactGroup(title="Figure 9: analytic NOW, CF vs BF")
    nodes = [2, 4, 8, 16, 32]
    for panel in _now_metrics(
        nodes,
        lambda n, b: NOWAnalyticalModel(nodes=int(n), sampling_period=40_000, batch_size=b),
    ):
        panel.title = f"(a) vs number of nodes, T=40ms — {panel.title}"
        panel.x_label = "nodes"
        group.add(panel)
    periods_ms = [1, 2, 4, 8, 16, 32, 64]
    for panel in _now_metrics(
        periods_ms,
        lambda t, b: NOWAnalyticalModel(
            nodes=8, sampling_period=t * 1000.0, batch_size=b
        ),
    ):
        panel.title = f"(b) vs sampling period, n=8 — {panel.title}"
        panel.x_label = "period_ms"
        group.add(panel)
    return group


def figure10(quick: bool = True) -> ArtifactGroup:
    """Equations (1)–(6) swept over the BF batch size at n = 8."""
    group = ArtifactGroup(title="Figure 10: analytic NOW vs batch size (n=8)")
    batches = [1, 2, 4, 8, 16, 32, 64, 128]
    specs = [
        ("Pd CPU utilization/node (%)", lambda m: 100 * m.pd_cpu_utilization()),
        ("Paradyn CPU utilization/node (%)", lambda m: 100 * m.paradyn_cpu_utilization()),
        ("Appl. CPU utilization/node (%)", lambda m: 100 * m.app_cpu_utilization()),
        ("Monitoring latency/samp. (s)", lambda m: m.monitoring_latency() / 1e6),
    ]
    for name, extract in specs:
        panel = _panel(name, "batch_size", name, batches)
        for label, period in (("T=1ms", 1_000.0), ("T=40ms", 40_000.0), ("T=64ms", 64_000.0)):
            panel.add_series(
                label,
                [
                    extract(
                        NOWAnalyticalModel(
                            nodes=8, sampling_period=period, batch_size=b
                        )
                    )
                    for b in batches
                ],
            )
        group.add(panel)
    return group


def _smp_group(
    title: str,
    x: Sequence[float],
    make_model,
    x_label: str,
) -> ArtifactGroup:
    group = ArtifactGroup(title=title)
    specs = [
        ("IS CPU utilization/node (%)", lambda m: 100 * m.is_cpu_utilization()),
        ("Monitoring latency/samp. (s)", lambda m: m.monitoring_latency() / 1e6),
        ("Application CPU utilization/node (%)", lambda m: 100 * m.app_cpu_utilization()),
    ]
    for policy, batch in (("CF", 1), ("BF", _BF_BATCH)):
        for name, extract in specs:
            panel = _panel(f"({policy}) {name}", x_label, name, x)
            for k in (1, 2, 3, 4):
                panel.add_series(
                    f"{k} Pd" + ("s" if k > 1 else ""),
                    [extract(make_model(v, batch, k)) for v in x],
                )
            group.add(panel)
    return group


def figure12(quick: bool = True) -> ArtifactGroup:
    """Equations (7)–(12), n = 16 CPUs, 32 application processes."""
    periods_ms = [1, 2, 4, 8, 16, 32, 64]
    return _smp_group(
        "Figure 12: analytic SMP vs sampling period (n=16, 32 apps)",
        periods_ms,
        lambda t, b, k: SMPAnalyticalModel(
            nodes=16, sampling_period=t * 1000.0, batch_size=b,
            app_processes=32, daemons=k,
        ),
        "period_ms",
    )


def figure13(quick: bool = True) -> ArtifactGroup:
    """Equations (7)–(12), T = 40 ms, n = 16 CPUs."""
    apps = [1, 2, 3, 4, 5, 6]
    return _smp_group(
        "Figure 13: analytic SMP vs number of application processes "
        "(T=40ms, n=16)",
        apps,
        lambda a, b, k: SMPAnalyticalModel(
            nodes=16, sampling_period=40_000.0, batch_size=b,
            app_processes=int(a), daemons=k,
        ),
        "app_processes",
    )


def _mpp_group(
    title: str,
    x: Sequence[float],
    make_model,
    x_label: str,
) -> ArtifactGroup:
    group = ArtifactGroup(title=title)
    specs = [
        ("Pd CPU utilization/node (%)", lambda m: 100 * m.pd_cpu_utilization()),
        ("Paradyn CPU utilization/node (%)", lambda m: 100 * m.paradyn_cpu_utilization()),
        ("Appl. CPU utilization/node (%)", lambda m: 100 * m.app_cpu_utilization()),
        ("Monitoring latency/sample (s)", lambda m: m.monitoring_latency() / 1e6),
    ]
    for name, extract in specs:
        panel = _panel(name, x_label, name, x)
        for topo, tree in (("direct", False), ("tree", True)):
            panel.add_series(topo, [extract(make_model(v, tree)) for v in x])
        group.add(panel)
    return group


def figure14(quick: bool = True) -> ArtifactGroup:
    """Equations (13)–(16), n = 256, BF policy."""
    periods_ms = [1, 2, 4, 8, 16, 32, 64]
    return _mpp_group(
        "Figure 14: analytic MPP vs sampling period (n=256, BF)",
        periods_ms,
        lambda t, tree: MPPAnalyticalModel(
            nodes=256, sampling_period=t * 1000.0, batch_size=_BF_BATCH, tree=tree
        ),
        "period_ms",
    )


def figure15(quick: bool = True) -> ArtifactGroup:
    """Equations (13)–(16), T = 40 ms, BF policy."""
    nodes = [2, 4, 8, 16, 32, 64, 128, 256]
    return _mpp_group(
        "Figure 15: analytic MPP vs number of nodes (T=40ms, BF)",
        nodes,
        lambda n, tree: MPPAnalyticalModel(
            nodes=int(n), sampling_period=40_000.0, batch_size=_BF_BATCH, tree=tree
        ),
        "nodes",
    )
