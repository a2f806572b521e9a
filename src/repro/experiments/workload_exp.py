"""Workload-characterization experiments: Tables 1–3 and Figure 8.

These reproduce §2.3–2.4: synthesize an AIX-like trace of NAS ``pvmbt``
under the Paradyn IS (the measurement substitute, see DESIGN.md §2),
push it through the same summary → fitting pipeline the paper used,
and validate the parameterized simulator against the "measurement".
"""

from __future__ import annotations

from ..rocc.config import SimulationConfig
from ..variates.fitting import fit_best
from ..variates.goodness import histogram_series, qq_series
from ..workload.characterize import fit_requests, summarize
from ..workload.nas import PVMBT
from ..workload.records import ProcessType, ResourceKind
from ..workload.tracing import AIXTraceFacility, TracingConfig
from .reporting import ArtifactGroup, SeriesSet, Table

__all__ = ["table1", "figure8", "table2", "table3"]


def _pvmbt_trace(quick: bool, seed: int = 11):
    duration = 5_000_000.0 if quick else 60_000_000.0
    cfg = TracingConfig(
        duration=duration,
        nodes=1,
        app_processes_per_node=1,
        sampling_period=40_000.0,
        batch_size=1,
        trace_main_process=True,
        seed=seed,
    )
    return AIXTraceFacility(PVMBT, cfg).trace()


def table1(quick: bool = True, seed: int = 11) -> Table:
    """Summary statistics of CPU/network occupancy requests per process."""
    trace = _pvmbt_trace(quick, seed)
    summary = summarize(trace)
    table = Table(
        title="Table 1: occupancy-request statistics (µs), NAS pvmbt",
        headers=[
            "process", "cpu_mean", "cpu_std", "cpu_min", "cpu_max",
            "net_mean", "net_std", "net_min", "net_max",
        ],
        notes=[
            "synthetic AIX trace (generative pvmbt profile); paper values: "
            "app cpu 2213/3034, pd cpu 267/197, pvmd cpu 294/206, "
            "other cpu 367/819, main cpu 3208/3287",
        ],
    )
    for ptype in ProcessType:
        c = summary.cpu.get(ptype)
        n = summary.network.get(ptype)
        if c is None and n is None:
            continue

        def cell(stats, attr):
            return getattr(stats, attr) if stats is not None else float("nan")

        table.add_row(
            ptype.value,
            cell(c, "mean"), cell(c, "std"), cell(c, "minimum"), cell(c, "maximum"),
            cell(n, "mean"), cell(n, "std"), cell(n, "minimum"), cell(n, "maximum"),
        )
    return table


def figure8(quick: bool = True, seed: int = 11) -> ArtifactGroup:
    """Distribution fitting for application CPU (lognormal wins) and
    network (exponential wins) occupancy requests."""
    trace = _pvmbt_trace(quick, seed)
    group = ArtifactGroup(title="Figure 8: application request-length fitting")
    for resource, expected in (
        (ResourceKind.CPU, "lognormal"),
        (ResourceKind.NETWORK, "exponential"),
    ):
        data = trace.durations(
            process_type=ProcessType.APPLICATION, resource=resource
        )
        best, results = fit_best(data)
        fits = Table(
            title=f"{resource.value} requests: candidate fits",
            headers=["family", "loglik", "ks", "mean", "std"],
            notes=[f"paper's winner: {expected}"],
        )
        for r in sorted(results, key=lambda r: -r.loglik):
            fits.add_row(
                r.family, r.loglik, r.ks_statistic,
                r.distribution.mean, r.distribution.std,
            )
        group.add(fits)

        hist = histogram_series(
            data, {r.family: r.distribution for r in results}, n_bins=24
        )
        centers = (hist.edges[:-1] + hist.edges[1:]) / 2.0
        panel = SeriesSet(
            title=f"{resource.value} requests: histogram vs fitted pdfs "
            f"(sampled at bin centers)",
            x_label="length_us",
            y_label="density",
            x=[float(c) for c in centers],
        )
        panel.add_series("observed", [float(f) for f in hist.frequencies])
        for fam, curve in hist.pdf_curves.items():
            import numpy as np

            at_centers = np.interp(centers, hist.pdf_x, curve)
            panel.add_series(fam, [float(v) for v in at_centers])
        group.add(panel)

        qq = qq_series(data, best.distribution)
        qq_summary = Table(
            title=f"{resource.value} requests: Q-Q diagnostics vs {best.family}",
            headers=["statistic", "value"],
        )
        qq_summary.add_row("linearity (corr)", qq.linearity())
        qq_summary.add_row("max tail deviation (µs)", qq.max_tail_deviation())
        qq_summary.add_row("n", len(data))
        group.add(qq_summary)
    return group


def table2(quick: bool = True, seed: int = 11) -> Table:
    """MLE fits (with BIC parsimony) per (process, resource) pair."""
    trace = _pvmbt_trace(quick, seed)
    table = Table(
        title="Table 2: fitted request-length distributions",
        headers=["process", "resource", "family", "mean_us", "std_us"],
        notes=[
            "paper: app cpu lognormal(2213,3034); app net exp(223); "
            "pd cpu exp(267); pd net exp(71); pvmd cpu lognormal(294,206); "
            "other cpu lognormal(367,819)",
        ],
    )
    for fit in fit_requests(trace):
        table.add_row(
            fit.process_type.value,
            fit.resource.value,
            fit.family,
            fit.distribution.mean,
            fit.distribution.std,
        )
    return table


def table3(quick: bool = True, seed: int = 11) -> Table:
    """Compare trace-derived ("measured") CPU time against the ROCC
    simulation of the same configuration (§2.4)."""
    duration = 5_000_000.0 if quick else 100_000_000.0
    trace_cfg = TracingConfig(
        duration=duration, nodes=1, sampling_period=40_000.0,
        batch_size=1, seed=seed,
    )
    trace = AIXTraceFacility(PVMBT, trace_cfg).trace()
    measured_app = trace.busy_time(
        process_type=ProcessType.APPLICATION, resource=ResourceKind.CPU
    )
    measured_pd = trace.busy_time(
        process_type=ProcessType.PARADYN_DAEMON, resource=ResourceKind.CPU
    )

    from ..rocc.system import simulate

    sim = simulate(
        SimulationConfig(
            nodes=1, duration=duration, sampling_period=40_000.0,
            batch_size=1, seed=seed,
        )
    )
    table = Table(
        title="Table 3: measurement vs simulation (CPU seconds)",
        headers=["experiment", "app_cpu_s", "pd_cpu_s"],
        notes=[
            "paper: measured 85.71 / 0.74; simulated 87.96 / 0.59 (100 s run)",
            f"duration here: {duration / 1e6:g} s",
        ],
    )
    table.add_row("measurement based", measured_app / 1e6, measured_pd / 1e6)
    table.add_row(
        "simulation model based",
        sim.app_cpu_time_per_node / 1e6,
        sim.pd_cpu_time_per_node / 1e6,
    )
    return table
