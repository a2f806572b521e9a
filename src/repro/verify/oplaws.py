"""Operational-law checks on simulator output (§3 of the paper).

The paper's back-of-the-envelope analysis rests on the operational laws
(utilization law U = X·S, Little's law N = X·R, flow balance).  The
simulator does not *use* those laws — it executes the model event by
event — so the laws double as an independent cross-check: if measured
busy time disagrees with (completed operations × mean service demand),
either the accounting or the scheduler is wrong.

Three families of checks, each with an explicit tolerance band (the
service demands are random variates, so exact equality is wrong to
demand; the band shrinks as 1/√n with the operation count):

* :func:`check_utilization_law` — measured daemon / main-process CPU
  busy time vs the U = X·S reconstruction from the run's own counters
  and the configured cost models.
* :func:`check_littles_law` — the time-average in-flight population
  N = X·R implied by throughput and latency must be non-negative,
  finite, and fit the model's physical buffer capacity.
* :func:`check_against_analytic` — the NOW/SMP/MPP analytic models
  (equations (1)–(16)) agree with simulated utilizations below
  saturation and lower-bound the simulated latency (the §3 caveat:
  analysis omits CPU contention, so it is systematically optimistic).

All checks apply to non-adaptive operating points with no
warmup — the regime where flow balance holds exactly; callers gate on
:func:`applicable`.
"""

from __future__ import annotations

import math
from typing import List

from ..analytical.mpp import MPPAnalyticalModel
from ..analytical.now import NOWAnalyticalModel
from ..analytical.operational import ISDemands, littles_law_population
from ..analytical.smp import SMPAnalyticalModel
from ..rocc.config import Architecture, ForwardingTopology, SimulationConfig
from ..rocc.metrics import SimulationResults
from .report import Violation

__all__ = [
    "applicable",
    "check_utilization_law",
    "check_littles_law",
    "check_against_analytic",
    "check_operational_laws",
]


def applicable(config: SimulationConfig) -> bool:
    """Whether the operational-law regime applies to *config*.

    Adaptive management changes the demand mid-run, warmup decouples
    busy-time snapshots from epoch-filtered counters, and barriers
    throttle the arrival process.
    """
    return (
        config.adaptive is None
        and config.warmup == 0.0
        and config.barrier_period is None
        and config.instrumented
    )


def _n_daemons(config: SimulationConfig) -> int:
    if config.architecture is Architecture.SMP:
        return config.daemons
    return config.nodes


def _band(n_ops: float, floor: float) -> float:
    """Relative tolerance for a sum of ~*n_ops* exponential demands."""
    if n_ops <= 0:
        return 1.0
    return max(floor, 4.0 / math.sqrt(n_ops))


def check_utilization_law(
    config: SimulationConfig,
    results: SimulationResults,
    tolerance: float = 0.15,
) -> List[Violation]:
    """U = X·S: busy time re-derived from counters and cost models."""
    out: List[Violation] = []
    r = results
    seconds = r.duration / 1e6
    if seconds <= 0:
        return out
    costs = config.daemon_costs
    n_daemons = _n_daemons(config)
    forwarded = r.throughput_per_daemon * n_daemons * seconds
    forward_calls = r.forward_calls_per_node * config.nodes
    merge_mean = (
        costs.merge_cpu.mean if costs.merge_cpu is not None
        else costs.forward_cpu.mean
    )
    # Collection CPU is paid when a sample is *collected*, which may be
    # before it is forwarded (samples parked in a partial batch at the
    # end of the run paid collection but are not in the forwarded
    # count).  The counters therefore bracket the busy time: at least
    # every forwarded sample was collected, at most every generated one.
    fixed_pd = forward_calls * costs.forward_cpu.mean + r.merges_total * merge_mean
    expected_lo = fixed_pd + forwarded * costs.collection_cpu.mean
    expected_hi = fixed_pd + r.samples_generated * costs.collection_cpu.mean
    measured_pd = r.pd_cpu_time_per_node * config.nodes
    ops = forwarded + forward_calls + r.merges_total
    band = _band(ops, tolerance)
    if expected_lo > 0 and not (
        expected_lo * (1.0 - band) <= measured_pd <= expected_hi * (1.0 + band)
    ):
        out.append(Violation(
            invariant="oplaw.utilization_pd",
            detail=(
                "daemon CPU busy time disagrees with U = X·S: measured "
                f"{measured_pd:.6g}µs outside "
                f"[{expected_lo:.6g}, {expected_hi:.6g}]µs expected from "
                f"{forwarded:.0f} samples forwarded / {forward_calls:.0f} "
                f"calls / {r.merges_total} merges (±{band:.0%})"
            ),
            subject=r.config_summary,
            observed={"measured": measured_pd, "expected_lo": expected_lo,
                      "expected_hi": expected_hi, "band": band},
        ))
    main = config.main_costs
    expected_main = (
        r.batches_received * main.receive_cpu.mean
        + r.samples_received * main.per_sample_cpu.mean
    )
    ops_main = r.batches_received + r.samples_received
    band_main = _band(ops_main, tolerance)
    if (expected_main > 0
            and abs(r.main_cpu_time - expected_main) > band_main * expected_main):
        out.append(Violation(
            invariant="oplaw.utilization_main",
            detail=(
                "main-process CPU busy time disagrees with U = X·S: "
                f"measured {r.main_cpu_time:.6g}µs vs {expected_main:.6g}µs "
                f"expected from {r.batches_received} batches / "
                f"{r.samples_received} samples (±{band_main:.0%})"
            ),
            subject=r.config_summary,
            observed={"measured": r.main_cpu_time, "expected": expected_main,
                      "band": band_main},
        ))
    return out


def check_littles_law(
    config: SimulationConfig,
    results: SimulationResults,
) -> List[Violation]:
    """N = X·R: the implied in-flight population fits the buffers.

    X is the receipt throughput (samples/µs) and R the mean total
    latency (creation → receipt), so N is the time-average number of
    samples somewhere between creation and receipt.  That population
    physically lives in the pipes, the daemons' partial batches, and the
    handful of batches a daemon can have in transfer at once — a hard
    (if loose) upper bound.
    """
    out: List[Violation] = []
    r = results
    if r.duration <= 0 or r.samples_received == 0:
        return out
    x = r.samples_received / r.duration  # samples per µs
    rt = r.monitoring_latency_total
    if not math.isfinite(rt):
        return out  # latency invariants report this separately
    population = littles_law_population(x, rt)
    if not math.isfinite(population) or population < 0:
        out.append(Violation(
            invariant="oplaw.littles_population",
            detail=f"N = X·R is not a population: X={x} R={rt} N={population}",
            subject=r.config_summary,
            observed={"throughput": x, "latency": rt},
        ))
        return out
    if config.architecture is Architecture.SMP:
        writers = config.app_processes_per_node
    else:
        writers = config.nodes * config.app_processes_per_node
    n_daemons = _n_daemons(config)
    # Per daemon: one partial batch plus at most a few batches in
    # flight (collect, flush, merge, retry each hold ≤ 1).
    bound = (
        writers * config.pipe_capacity
        + n_daemons * 5 * config.batch_size
    )
    if population > bound:
        out.append(Violation(
            invariant="oplaw.littles_population_bound",
            detail=(
                f"Little's-law population N = X·R = {population:.4g} "
                f"exceeds the model's buffer capacity {bound} "
                "(pipes + partial batches + in-transfer batches)"
            ),
            subject=r.config_summary,
            observed={"population": population, "bound": float(bound)},
        ))
    return out


def check_against_analytic(
    config: SimulationConfig,
    results: SimulationResults,
    utilization_tolerance: float = 0.35,
    latency_slack: float = 0.25,
) -> List[Violation]:
    """Equations (1)–(16) vs the simulator at one operating point."""
    out: List[Violation] = []
    r = results
    demands = ISDemands.from_cost_models(
        config.daemon_costs, config.main_costs, config.batch_size
    )
    arch = config.architecture
    if arch is Architecture.SMP:
        model = SMPAnalyticalModel(
            nodes=config.nodes,
            sampling_period=config.sampling_period,
            batch_size=config.batch_size,
            app_processes=config.app_processes_per_node,
            daemons=config.daemons,
            demands=demands,
        )
    elif arch is Architecture.MPP:
        model = MPPAnalyticalModel(
            nodes=config.nodes,
            sampling_period=config.sampling_period,
            batch_size=config.batch_size,
            app_processes_per_node=config.app_processes_per_node,
            tree=config.forwarding is ForwardingTopology.TREE,
            demands=demands,
        )
    else:
        model = NOWAnalyticalModel(
            nodes=config.nodes,
            sampling_period=config.sampling_period,
            batch_size=config.batch_size,
            app_processes_per_node=config.app_processes_per_node,
            demands=demands,
        )
    a_util = model.pd_cpu_utilization()
    if arch is Architecture.SMP:
        # Eq (7) carries the §3.2 daemon factor (λ scaled by k); the
        # simulator reports the pool's utilization by the daemon class,
        # which is that quantity divided by k.
        a_util /= config.daemons
    s_util = r.pd_cpu_utilization_per_node
    # Flow balance only holds below saturation; near U = 1 the open
    # model diverges from any finite simulation.
    if 0.0 < a_util < 0.7:
        if abs(s_util - a_util) > utilization_tolerance * a_util:
            out.append(Violation(
                invariant="oplaw.analytic_utilization",
                detail=(
                    f"simulated Pd utilization {s_util:.4g} disagrees with "
                    f"the analytic model's {a_util:.4g} "
                    f"(±{utilization_tolerance:.0%})"
                ),
                subject=r.config_summary,
                observed={"analytic": a_util, "simulated": s_util},
            ))
        a_lat = model.monitoring_latency()
        s_lat = r.monitoring_latency_forwarding
        # The analytic latency omits CPU contention with the application
        # (the §3 caveat) so it lower-bounds the simulation.  Two
        # regimes where the bound does not apply: the SMP model's R(λ)
        # uses the k-scaled λ of eq (7), and under BF (batch > 1) the
        # analytic demand includes per-sample collection CPU that the
        # simulator pays *before* stamping the batch ready.
        if (arch is not Architecture.SMP
                and config.batch_size == 1
                and math.isfinite(a_lat) and math.isfinite(s_lat)
                and s_lat < a_lat * (1.0 - latency_slack)):
            out.append(Violation(
                invariant="oplaw.analytic_latency_bound",
                detail=(
                    f"simulated forwarding latency {s_lat:.6g}µs falls "
                    f"below the contention-free analytic bound "
                    f"{a_lat:.6g}µs"
                ),
                subject=r.config_summary,
                observed={"analytic": a_lat, "simulated": s_lat},
            ))
    return out


def check_operational_laws(
    config: SimulationConfig,
    results: SimulationResults,
    tolerance: float = 0.15,
) -> List[Violation]:
    """All operational-law checks for one (config, results) pair."""
    if not applicable(config):
        return []
    out: List[Violation] = []
    out.extend(check_utilization_law(config, results, tolerance=tolerance))
    out.extend(check_littles_law(config, results))
    out.extend(check_against_analytic(config, results))
    return out
