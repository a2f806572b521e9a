"""Workload-characterization experiments: Tables 1–3 and Figure 8.

These reproduce §2.3–2.4: synthesize an AIX-like trace of NAS ``pvmbt``
under the Paradyn IS (the measurement substitute, see DESIGN.md §2),
push it through the same summary → fitting pipeline the paper used,
and validate the parameterized simulator against the "measurement".

The paper characterizes the workload once and reuses the numbers; so do
these runners.  Each trace's numbers come from one plain-data record
(:func:`repro.workload.characterize.characterization`) kept in the
engine's cell cache, so a rerun against a warm cache only formats it:
it synthesizes no trace, fits no distribution and loads neither the
tracing nor the fitting code.  Each artifact's notes say whether its
record was ``cached`` or ``computed``, and when a computed record
could not be written to an enabled cache.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..rocc.config import SimulationConfig
from ..workload.nas import PVMBT
from ..workload.records import ProcessType, ResourceKind, TracingConfig
from .engine import content_key, current_engine
from .reporting import ArtifactGroup, SeriesSet, Table

__all__ = ["table1", "figure8", "table2", "table3"]

_NAN = float("nan")


def _characterization_key(cfg: TracingConfig) -> str:
    """Cell-cache key of the ``pvmbt`` characterization under *cfg*."""
    return content_key("characterization-v1", cfg, PVMBT)


def _characterize(cfg: TracingConfig) -> Tuple[Dict[str, Any], str]:
    """The characterization record of the ``pvmbt`` trace under *cfg*,
    from the ambient engine's cell cache when it holds one, plus the note
    that says which.  Cache reads here are not engine cells: they stay
    out of the ``[engine: ...]`` counts."""
    cache = current_engine().cache
    key = _characterization_key(cfg)
    corrupt = cache.corrupt_entries
    record = cache.get(key, kind=dict)
    if record is not None:
        return record, "workload characterization: cached"
    from ..workload.characterize import characterization

    record = characterization(cfg, PVMBT)
    stored = cache.put(key, record)
    note = "workload characterization: computed"
    if cache.corrupt_entries > corrupt:
        note += " (corrupt cache entry quarantined)"
    if cache.enabled and not stored:
        note += " (not stored: cache write failed)"
    return record, note


def _pvmbt_tracing(quick: bool, seed: int = 11) -> TracingConfig:
    """The traced session behind Tables 1–2 and Figure 8."""
    return TracingConfig(
        duration=5_000_000.0 if quick else 60_000_000.0,
        nodes=1,
        app_processes_per_node=1,
        sampling_period=40_000.0,
        batch_size=1,
        trace_main_process=True,
        seed=seed,
    )


def _validation_tracing(quick: bool, seed: int = 11) -> TracingConfig:
    """The traced session behind Table 3's measurement."""
    return TracingConfig(
        duration=5_000_000.0 if quick else 100_000_000.0, nodes=1,
        sampling_period=40_000.0, batch_size=1, seed=seed,
    )


def table1(quick: bool = True, seed: int = 11) -> Table:
    """Summary statistics of CPU/network occupancy requests per process."""
    record, provenance = _characterize(_pvmbt_tracing(quick, seed))
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
            provenance,
        ],
    )
    stats = ("mean", "std", "minimum", "maximum")
    for ptype in ProcessType:
        by_resource = record["summary"].get(ptype.value)
        if by_resource is None:
            continue
        cpu = by_resource.get(ResourceKind.CPU.value, {})
        net = by_resource.get(ResourceKind.NETWORK.value, {})
        table.add_row(
            ptype.value,
            *(cpu.get(s, _NAN) for s in stats),
            *(net.get(s, _NAN) for s in stats),
        )
    return table


def figure8(quick: bool = True, seed: int = 11) -> ArtifactGroup:
    """Distribution fitting for application CPU (lognormal wins) and
    network (exponential wins) occupancy requests."""
    record, provenance = _characterize(_pvmbt_tracing(quick, seed))
    group = ArtifactGroup(title="Figure 8: application request-length fitting",
                          notes=[provenance])
    for resource, expected in (
        (ResourceKind.CPU, "lognormal"),
        (ResourceKind.NETWORK, "exponential"),
    ):
        panel = record["figure8"][resource.value]
        fits = Table(
            title=f"{resource.value} requests: candidate fits",
            headers=["family", "loglik", "ks", "mean", "std"],
            notes=[f"paper's winner: {expected}"],
        )
        for row in panel["candidates"]:
            fits.add_row(*row)
        group.add(fits)

        hist = SeriesSet(
            title=f"{resource.value} requests: histogram vs fitted pdfs "
            f"(sampled at bin centers)",
            x_label="length_us",
            y_label="density",
            x=list(panel["centers"]),
        )
        hist.add_series("observed", panel["observed"])
        for fam, values in panel["pdfs"].items():
            hist.add_series(fam, values)
        group.add(hist)

        qq_summary = Table(
            title=f"{resource.value} requests: Q-Q diagnostics vs "
            f"{panel['best']}",
            headers=["statistic", "value"],
        )
        qq_summary.add_row("linearity (corr)", panel["linearity"])
        qq_summary.add_row("max tail deviation (µs)", panel["tail_deviation"])
        qq_summary.add_row("n", panel["n"])
        group.add(qq_summary)
    return group


def table2(quick: bool = True, seed: int = 11) -> Table:
    """MLE fits (with BIC parsimony) per (process, resource) pair."""
    record, provenance = _characterize(_pvmbt_tracing(quick, seed))
    table = Table(
        title="Table 2: fitted request-length distributions",
        headers=["process", "resource", "family", "mean_us", "std_us"],
        notes=[
            "paper: app cpu lognormal(2213,3034); app net exp(223); "
            "pd cpu exp(267); pd net exp(71); pvmd cpu lognormal(294,206); "
            "other cpu lognormal(367,819)",
            provenance,
        ],
    )
    for row in record["fits"]:
        table.add_row(*row)
    return table


def table3(quick: bool = True, seed: int = 11) -> Table:
    """Compare trace-derived ("measured") CPU time against the ROCC
    simulation of the same configuration (§2.4)."""
    from .runners import replicate

    tracing = _validation_tracing(quick, seed)
    duration = tracing.duration
    record, provenance = _characterize(tracing)
    busy = record["busy"]
    measured_app = busy[ProcessType.APPLICATION.value][ResourceKind.CPU.value]
    measured_pd = busy[ProcessType.PARADYN_DAEMON.value][ResourceKind.CPU.value]
    # One replication: its mean is the cell's own value, bit for bit.
    sim = replicate(
        SimulationConfig(
            nodes=1, duration=duration, sampling_period=40_000.0,
            batch_size=1, seed=seed,
        ),
        repetitions=1,
    )
    table = Table(
        title="Table 3: measurement vs simulation (CPU seconds)",
        headers=["experiment", "app_cpu_s", "pd_cpu_s"],
        notes=[
            "paper: measured 85.71 / 0.74; simulated 87.96 / 0.59 (100 s run)",
            f"duration here: {duration / 1e6:g} s",
            provenance,
        ],
    )
    table.add_row("measurement based", measured_app / 1e6, measured_pd / 1e6)
    table.add_row(
        "simulation model based",
        sim.app_cpu_time_per_node / 1e6,
        sim.pd_cpu_time_per_node / 1e6,
    )
    return table
