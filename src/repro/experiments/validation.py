"""Measurement-based validation (Section 5): Figures 30–31, Tables 7–8.

The paper tests the *real*, BF-enhanced Paradyn IS on an SP-2 by AIX-
tracing one worker node and the main-process node while NAS benchmarks
run.  Our substitute (DESIGN.md §2) is the ROCC simulator in "testbed"
configuration — full per-sample system-call costs, the pvmbt/pvmis
generative workloads — whose per-node CPU accounting plays the role of
the AIX trace.  What Section 5 establishes, and what we verify:

* BF cuts the daemon's direct CPU overhead by **more than 60 %** and
  the main process's by **about 80 %** (Figure 30);
* the forwarding policy, not the sampling period and not the choice of
  application program, explains most of the overhead variation
  (Tables 7 and 8, Figure 31).
"""

from __future__ import annotations

from functools import lru_cache
from statistics import mean
from typing import Dict, List, Tuple

from ..expdesign.effects import allocate_variation
from ..expdesign.factorial import Factor, FactorialDesign
from ..expdesign.pca import pca
from ..rocc.config import SimulationConfig
from ..variates.distributions import Exponential, Lognormal
from ..workload.parameters import WorkloadParameters
from .reporting import ArtifactGroup, Table
from .runners import replicate, run_design
from .specs import DesignSpec

__all__ = [
    "design_spec", "figure30", "figure31", "workload_for_benchmark",
]

_BF_BATCH = 32
_NODES = 4  # worker nodes in the testbed (Figure 29 shows several)


def workload_for_benchmark(name: str) -> WorkloadParameters:
    """ROCC workload parameters for a NAS benchmark (pvmbt or pvmis)."""
    if name == "pvmbt":
        return WorkloadParameters()
    if name == "pvmis":
        # Integer sort: shorter bucketed CPU phases with frequent small
        # exchanges, still CPU-bound (see repro.workload.nas).
        return WorkloadParameters(
            app_cpu=Lognormal(850, 1100),
            app_network=Exponential(85),
        )
    raise KeyError(f"unknown benchmark {name!r}")


def _testbed_config(
    benchmark: str,
    sampling_period: float,
    batch_size: int,
    duration: float,
    seed: int,
) -> SimulationConfig:
    return SimulationConfig(
        nodes=_NODES,
        sampling_period=sampling_period,
        batch_size=batch_size,
        duration=duration,
        workload=workload_for_benchmark(benchmark),
        seed=seed,
    )


def design_spec(quick: bool = True) -> DesignSpec:
    """The testbed 2^2·r (policy × period) design (planner seam)."""
    duration = 3_000_000.0 if quick else 100_000_000.0

    def make(run):
        return _testbed_config(
            "pvmbt", run["sampling_period"], int(run["batch_size"]),
            duration, seed=70,
        )

    return DesignSpec(
        name="validation",
        design=FactorialDesign(
            [
                # A = policy (BF low, CF high).
                Factor("batch_size", _BF_BATCH, 1, "A"),
                Factor("sampling_period", 10_000.0, 30_000.0, "B"),
            ]
        ),
        make=make,
        repetitions=3 if quick else 5,
        metrics=("pd_cpu_time_per_node", "main_cpu_time"),
    )


@lru_cache(maxsize=4)
def _policy_period_runs(quick: bool) -> Tuple[FactorialDesign, tuple, tuple]:
    """2^2·r design over (policy, sampling period) for pvmbt."""
    spec = design_spec(quick)
    design, make, reps = spec.design, spec.make, spec.repetitions

    cells = run_design(design, make, repetitions=reps)
    pd_rows = [
        [r.node0_pd_cpu_time / 1e6 for r in cell.results] for cell in cells
    ]
    main_rows = [[r.main_cpu_time / 1e6 for r in cell.results] for cell in cells]
    return design, tuple(map(tuple, pd_rows)), tuple(map(tuple, main_rows))


def figure30(quick: bool = True) -> ArtifactGroup:
    """Pd and main CPU time under CF/BF at T = 10 and 30 ms, plus the
    allocation of variation (Table 7)."""
    design, pd_rows, main_rows = _policy_period_runs(quick)
    runs = list(design.runs())

    group = ArtifactGroup(
        title="Figure 30: testbed CPU overhead, CF vs BF (pvmbt)"
    )

    bars = Table(
        title="(a/b) CPU time (s) by policy and sampling period",
        headers=["policy", "period_ms", "pd_cpu_s", "main_cpu_s"],
        notes=[
            "paper (100 s runs): Pd 18.9→6.3 (SP=10ms) and 5.1→2.3 "
            "(SP=30ms); main 214→29 and 69→38",
        ],
    )
    reductions: Dict[float, Dict[str, float]] = {}
    for run, pd, mn in zip(runs, pd_rows, main_rows):
        policy = "CF" if run["batch_size"] == 1 else "BF"
        period = run["sampling_period"] / 1e3
        bars.add_row(policy, period, mean(pd), mean(mn))
        reductions.setdefault(period, {})[policy + "_pd"] = mean(pd)
        reductions[period][policy + "_main"] = mean(mn)
    group.add(bars)

    summary = Table(
        title="overhead reduction under BF",
        headers=["period_ms", "pd_reduction_pct", "main_reduction_pct"],
        notes=["paper: >60 % (Pd) and ~80 % (main)"],
    )
    for period, vals in sorted(reductions.items()):
        summary.add_row(
            period,
            100.0 * (1.0 - vals["BF_pd"] / vals["CF_pd"]),
            100.0 * (1.0 - vals["BF_main"] / vals["CF_main"]),
        )
    group.add(summary)

    for name, rows in (("Pd CPU time", pd_rows), ("main CPU time", main_rows)):
        alloc = allocate_variation(design, rows)
        t = Table(
            title=f"Table 7: variation explained for {name} "
            "(A=policy, B=sampling period)",
            headers=["effect", "percent"],
            notes=[alloc.format(), "paper: A 47.6/52.9, B 35.9/26.5, AB 16.5/20.7"],
        )
        for share in alloc.shares:
            t.add_row(share.label, 100.0 * share.fraction)
        t.add_row("error", 100.0 * alloc.error_fraction)
        group.add(t)
    return group


@lru_cache(maxsize=4)
def _policy_app_runs(quick: bool) -> Tuple[FactorialDesign, tuple, tuple]:
    """2^2·r design over (policy, application program), T = 10 ms."""
    design = FactorialDesign(
        [
            Factor("batch_size", _BF_BATCH, 1, "A"),  # A = policy
            Factor("benchmark", "pvmbt", "pvmis", "B"),
        ]
    )
    duration = 3_000_000.0 if quick else 100_000_000.0
    reps = 3 if quick else 5
    pd_rows: List[List[float]] = []
    main_rows: List[List[float]] = []
    for run in design.runs():
        cfg = _testbed_config(
            run["benchmark"], 10_000.0, int(run["batch_size"]), duration, seed=71
        )
        res = replicate(cfg, repetitions=reps)
        # Normalized CPU occupancy: each process's CPU time over the total
        # CPU demand at its node (§5.2's normalization).
        pd_norm, main_norm = [], []
        for r in res.results:
            node_total = (
                r.pd_cpu_time_per_node
                + r.app_cpu_time_per_node
                + r.pvmd_cpu_time_per_node
                + r.other_cpu_time_per_node
            )
            pd_norm.append(100.0 * r.pd_cpu_time_per_node / node_total)
            main_norm.append(100.0 * r.main_cpu_time / r.duration)
        pd_rows.append(pd_norm)
        main_rows.append(main_norm)
    return design, tuple(map(tuple, pd_rows)), tuple(map(tuple, main_rows))


def figure31(quick: bool = True) -> ArtifactGroup:
    """Normalized CPU occupancy for pvmbt vs pvmis under CF/BF; the
    reduction is insensitive to the application program."""
    design, pd_rows, main_rows = _policy_app_runs(quick)
    runs = list(design.runs())

    group = ArtifactGroup(
        title="Figure 31: normalized CPU occupancy by policy and application "
        "(T=10ms)"
    )
    bars = Table(
        title="normalized CPU occupancy (%)",
        headers=["policy", "benchmark", "pd_pct_of_node", "main_pct_of_host"],
        notes=[
            "paper: Pd 7.9/2.8 (pvmbt CF/BF) and 7.6/1.9 (pvmis); the "
            "BF reduction holds for both applications",
        ],
    )
    for run, pd, mn in zip(runs, pd_rows, main_rows):
        policy = "CF" if run["batch_size"] == 1 else "BF"
        bars.add_row(policy, run["benchmark"], mean(pd), mean(mn))
    group.add(bars)

    for name, rows in (
        ("Pd normalized CPU time", pd_rows),
        ("main normalized CPU time", main_rows),
    ):
        alloc = allocate_variation(design, rows)
        t = Table(
            title=f"Table 8: variation explained for {name} "
            "(A=policy, B=application program)",
            headers=["effect", "percent"],
            notes=[alloc.format(), "paper: policy 98.5/86.8 %, application ~0.3/6.8 %"],
        )
        for share in alloc.shares:
            t.add_row(share.label, 100.0 * share.fraction)
        t.add_row("error", 100.0 * alloc.error_fraction)
        group.add(t)

    # Independent check with PCA proper: the first component of the
    # (runs × [pd, main]) matrix should separate the policy levels.
    matrix = [[mean(pd), mean(mn)] for pd, mn in zip(pd_rows, main_rows)]
    result = pca(matrix, standardize=True)
    t = Table(
        title="PCA cross-check (observations = design cells)",
        headers=["component", "explained_variance_ratio"],
    )
    for i, ratio in enumerate(result.explained_variance_ratio):
        t.add_row(f"PC{i + 1}", float(ratio))
    group.add(t)
    return group
