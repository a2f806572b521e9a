"""Invariant auditors over :class:`~repro.rocc.metrics.SimulationResults`.

Every simulation run — whatever the architecture or policy — must
satisfy a set of structural invariants that follow from the model
itself, not from any particular parameterization:

* **conservation** — every sample generated is received or still in
  flight; never more received than generated.
* **capacity** — no resource is busier than ``capacity × duration``:
  all CPU utilizations lie in [0, 1], per-node busy breakdowns fit the
  node, a single-server network never exceeds utilization 1.
* **tally consistency** — counted batches imply counted samples, batch
  sizes bound the ratio, and throughputs re-derive from the counters.
* **latency sanity** — percentiles are monotone (p50 ≤ p90 ≤ p99),
  non-negative, present exactly when samples were received, and the
  total latency (creation → receipt) dominates the forwarding latency
  (ready → receipt).

:func:`audit_results` runs them all and returns the violations found.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..obs.metrics import registry as obs_registry
from ..rocc.config import Architecture, NetworkMode, SimulationConfig
from ..rocc.metrics import SimulationResults
from .report import Violation

__all__ = ["audit_results"]

#: Relative slack for float-sum comparisons (busy-time accumulators add
#: millions of small floats; exact equality would be wrong to demand).
_REL_EPS = 1e-9


def _violation(name: str, detail: str, results: SimulationResults,
               **observed: float) -> Violation:
    return Violation(
        invariant=name,
        detail=detail,
        subject=results.config_summary,
        observed=observed,
    )


# ---------------------------------------------------------------------------
# Individual auditors (each returns a list of violations)
# ---------------------------------------------------------------------------

def _audit_conservation(r: SimulationResults) -> List[Violation]:
    out: List[Violation] = []
    counters = {
        "samples_generated": r.samples_generated,
        "samples_received": r.samples_received,
        "batches_received": r.batches_received,
    }
    for name, value in counters.items():
        if value < 0:
            out.append(_violation(
                "conservation.counter_sign",
                f"{name} is negative: {value}",
                r, **{name: value},
            ))
    in_flight = r.samples_generated - r.samples_received
    if in_flight < 0:
        out.append(_violation(
            "conservation.sample_balance",
            "more samples received than generated: "
            f"generated={r.samples_generated} received={r.samples_received} "
            f"(in-flight would be {in_flight})",
            r,
            generated=r.samples_generated,
            received=r.samples_received,
        ))
    return out


def _audit_capacity(r: SimulationResults,
                    config: Optional[SimulationConfig]) -> List[Violation]:
    out: List[Violation] = []
    if not r.duration > 0:
        out.append(_violation(
            "capacity.duration",
            f"non-positive measured duration {r.duration}", r,
            duration=r.duration,
        ))
        return out  # everything below divides by duration
    # The RR scheduler charges busy time when a slice *completes* (see
    # repro.rocc.cpu): a slice straddling the warmup snapshot is charged
    # entirely to the measured window, over-crediting it by at most one
    # quantum per server.  The capacity invariant carries exactly that
    # documented slack — no more.
    quantum_slack = 0.0
    if config is not None and config.warmup > 0:
        quantum_slack = config.workload.cpu_quantum
    utilizations = {
        "pd_cpu_utilization_per_node": r.pd_cpu_utilization_per_node,
        "app_cpu_utilization_per_node": r.app_cpu_utilization_per_node,
        "main_cpu_utilization": r.main_cpu_utilization,
        "is_cpu_utilization_per_node": r.is_cpu_utilization_per_node,
    }
    slack = 1.0 + quantum_slack / r.duration + _REL_EPS
    for name, u in utilizations.items():
        if not 0.0 - _REL_EPS <= u <= slack:
            out.append(_violation(
                "capacity.cpu_utilization",
                f"{name} outside [0, 1]: {u}", r, **{name: u},
            ))
    if r.pd_network_utilization < -_REL_EPS:
        out.append(_violation(
            "capacity.network_utilization",
            f"pd_network_utilization negative: {r.pd_network_utilization}",
            r, pd_network_utilization=r.pd_network_utilization,
        ))
    if r.network_utilization < r.pd_network_utilization * (1.0 - _REL_EPS):
        out.append(_violation(
            "capacity.network_component",
            "daemon share of the network exceeds the total: "
            f"pd={r.pd_network_utilization} total={r.network_utilization}",
            r,
            pd_network_utilization=r.pd_network_utilization,
            network_utilization=r.network_utilization,
        ))
    if (config is not None
            and config.effective_network_mode is NetworkMode.SHARED
            and r.network_utilization > slack):
        out.append(_violation(
            "capacity.network_utilization",
            "single-server shared network busier than capacity: "
            f"utilization {r.network_utilization}",
            r, network_utilization=r.network_utilization,
        ))
    # Raw per-node busy breakdown must fit each node's CPU complement.
    if config is not None and r.cpu_busy:
        if config.architecture is Architecture.SMP:
            servers = config.nodes
        else:
            servers = config.cpus_per_node
        node_capacity = servers * r.duration + servers * quantum_slack
        per_node: dict = {}
        for (node, _owner), busy in r.cpu_busy.items():
            if busy < -_REL_EPS * r.duration:
                out.append(_violation(
                    "capacity.negative_busy",
                    f"negative busy time {busy} at node {node}", r,
                ))
            per_node[node] = per_node.get(node, 0.0) + busy
        for node, busy in per_node.items():
            if busy > node_capacity * (1.0 + _REL_EPS):
                out.append(_violation(
                    "capacity.node_busy",
                    f"node {node} busy {busy:.6g}µs exceeds capacity "
                    f"{node_capacity:.6g}µs (capacity × duration)",
                    r, busy=busy, capacity=node_capacity,
                ))
    if r.pipe_blocked_time < 0:
        out.append(_violation(
            "capacity.pipe_blocked",
            f"negative pipe blocked time {r.pipe_blocked_time}", r,
        ))
    elif config is not None:
        # Blocked time is summed over writers: no more writer-µs can be
        # spent blocked than exist.  SMP configs count total processes.
        if config.architecture is Architecture.SMP:
            writers = config.app_processes_per_node
        else:
            writers = config.nodes * config.app_processes_per_node
        limit = r.duration * writers
        if r.pipe_blocked_time > limit * (1.0 + _REL_EPS):
            out.append(_violation(
                "capacity.pipe_blocked",
                f"pipe blocked time {r.pipe_blocked_time:.6g}µs exceeds "
                f"the {limit:.6g} writer-µs available", r,
            ))
    return out


def _audit_tallies(r: SimulationResults,
                   config: Optional[SimulationConfig]) -> List[Violation]:
    out: List[Violation] = []
    if r.batches_received > r.samples_received:
        out.append(_violation(
            "tally.batches_vs_samples",
            f"{r.batches_received} batches counted but only "
            f"{r.samples_received} samples — every counted batch "
            "contributes at least one counted sample",
            r,
            batches_received=r.batches_received,
            samples_received=r.samples_received,
        ))
    if r.duration > 0:
        expected = r.samples_received / (r.duration / 1e6)
        if not math.isclose(r.received_throughput, expected,
                            rel_tol=1e-9, abs_tol=1e-12):
            out.append(_violation(
                "tally.received_throughput",
                "received_throughput does not re-derive from the counters: "
                f"field={r.received_throughput} "
                f"samples_received/seconds={expected}",
                r,
                received_throughput=r.received_throughput,
                expected=expected,
            ))
    if config is not None and r.forward_calls_per_node < 0:
        out.append(_violation(
            "tally.forward_calls",
            f"negative forward_calls_per_node {r.forward_calls_per_node}", r,
        ))
    return out


def _audit_latency(r: SimulationResults) -> List[Violation]:
    out: List[Violation] = []
    ps = {
        50: r.monitoring_latency_p50,
        90: r.monitoring_latency_p90,
        99: r.monitoring_latency_p99,
    }
    have_samples = r.samples_received > 0
    for q, v in ps.items():
        if have_samples and not math.isfinite(v):
            out.append(_violation(
                "latency.percentile_missing",
                f"{r.samples_received} samples received but p{q} is {v} — "
                "percentiles must be present whenever data exists",
                r,
            ))
        if not have_samples and not math.isnan(v):
            out.append(_violation(
                "latency.percentile_phantom",
                f"no samples received but p{q} = {v}", r,
            ))
        if math.isfinite(v) and v < 0:
            out.append(_violation(
                "latency.percentile_sign", f"p{q} negative: {v}", r,
            ))
    p50, p90, p99 = ps[50], ps[90], ps[99]
    if all(math.isfinite(v) for v in (p50, p90, p99)):
        if not p50 <= p90 <= p99:
            out.append(_violation(
                "latency.percentile_monotone",
                f"percentiles not monotone: p50={p50} p90={p90} p99={p99}",
                r, p50=p50, p90=p90, p99=p99,
            ))
    for name, v in (
        ("monitoring_latency_forwarding", r.monitoring_latency_forwarding),
        ("monitoring_latency_total", r.monitoring_latency_total),
    ):
        if math.isfinite(v) and v < 0:
            out.append(_violation(
                "latency.mean_sign", f"{name} negative: {v}", r,
            ))
    if have_samples and not math.isfinite(r.monitoring_latency_forwarding):
        out.append(_violation(
            "latency.mean_missing",
            f"{r.samples_received} samples received but the mean "
            f"forwarding latency is {r.monitoring_latency_forwarding}",
            r,
        ))
    fwd, total = r.monitoring_latency_forwarding, r.monitoring_latency_total
    if math.isfinite(fwd) and math.isfinite(total):
        # creation precedes batch readiness for every sample, so the
        # total (creation → receipt) dominates the forwarding latency.
        if total < fwd * (1.0 - 1e-9) - 1e-9:
            out.append(_violation(
                "latency.total_dominates_forwarding",
                f"total latency {total} < forwarding latency {fwd}",
                r, total=total, forwarding=fwd,
            ))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def audit_results(
    results: SimulationResults,
    config: Optional[SimulationConfig] = None,
) -> List[Violation]:
    """Audit one run's results against every structural invariant.

    *config* is optional but unlocks the checks that need to know the
    machine (per-node CPU capacity, network mode).
    """
    out: List[Violation] = []
    out.extend(_audit_conservation(results))
    out.extend(_audit_capacity(results, config))
    out.extend(_audit_tallies(results, config))
    out.extend(_audit_latency(results))
    reg = obs_registry()
    reg.counter("verify.audits", "results audited").inc()
    if out:
        reg.counter("verify.violations", "invariant violations found").inc(
            len(out)
        )
    return out
