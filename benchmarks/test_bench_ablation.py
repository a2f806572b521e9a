"""Ablation benchmarks for the design decisions called out in DESIGN.md §5.

Each compares two model variants and checks both the performance cost
and the behavioural consequence of the choice.
"""

import pytest

from repro.des import Actor, Environment
from repro.rocc import (
    Architecture,
    DaemonCostModel,
    SimulationConfig,
    simulate,
    simulate_aggregated,
)
from repro.rocc.cpu import RoundRobinCPU
from repro.variates.distributions import Exponential
from repro.workload import ProcessType


class _Job(Actor):
    """One CPU request through the CPU's request/release halves: the job
    is its own completion entry."""

    kind = "cpudone"

    def __init__(self, cpu, demand, finished):
        self.name = "job"
        self.cpu = cpu
        self.finished = finished
        cpu.request(demand, ProcessType.APPLICATION, self)

    def _fire(self):
        self.cpu.release(ProcessType.APPLICATION, self._slice)
        self.finished.append(self.cpu.env.now)


def _rr_completions(n_jobs: int = 40, demand: float = 5_000.0) -> list:
    """Completion times of identical jobs started together on one RR CPU."""
    env = Environment()
    cpu = RoundRobinCPU(env, n_cpus=1, quantum=10_000.0)
    finished = []
    for _ in range(n_jobs):
        _Job(cpu, demand, finished)
    env.run()
    return finished


def test_rr_vs_ps(run_once):
    """DESIGN.md §5.2: RR-with-quantum vs processor sharing.

    For equal jobs shorter than the quantum, RR serves them serially
    (mean completion = (n+1)/2 · D) while processor sharing finishes
    everything at n · D: same makespan, very different per-job latency
    profile.  PS is its closed form here; only RR is simulated.
    """
    finished = run_once(_rr_completions)
    n, d = 40, 5_000.0
    rr_mean = sum(finished) / len(finished)
    ps_mean = n * d
    assert rr_mean == pytest.approx((n + 1) / 2 * d, rel=0.01)
    assert max(finished) == pytest.approx(ps_mean, rel=0.01)
    assert rr_mean < ps_mean


def test_full_vs_aggregate(run_once):
    """DESIGN.md §5.3: the aggregated large-n mode must agree with the
    full simulation on per-node overhead at small n — and be much
    cheaper (its cost is ~O(1) in n rather than O(n))."""
    cfg = SimulationConfig(
        architecture=Architecture.MPP, nodes=12, duration=3_000_000.0,
        sampling_period=20_000.0, batch_size=8, seed=55,
    )
    aggr = run_once(simulate_aggregated, cfg)
    full = simulate(cfg)
    assert aggr.pd_cpu_time_per_node == pytest.approx(
        full.pd_cpu_time_per_node, rel=0.1
    )
    assert aggr.app_cpu_utilization_per_node == pytest.approx(
        full.app_cpu_utilization_per_node, rel=0.05
    )


def test_pipe_capacity(run_once):
    """DESIGN.md §5.4: finite pipes are what block the application at
    small sampling periods; huge pipes make the blocking vanish."""
    base = SimulationConfig(
        architecture=Architecture.SMP, nodes=2, app_processes_per_node=8,
        sampling_period=1_000.0, duration=2_000_000.0, seed=23,
    )
    small = run_once(simulate, base.with_(pipe_capacity=16))
    large = simulate(base.with_(pipe_capacity=100_000))
    assert small.pipe_blocked_puts > 0
    assert large.pipe_blocked_puts == 0
    assert small.app_cpu_time_per_node <= large.app_cpu_time_per_node


def test_batch_flush_timeout(run_once):
    """DESIGN.md §5.5: the BF flush-timeout extension bounds latency for
    slow sample streams at a small overhead cost."""
    base = SimulationConfig(
        nodes=2, sampling_period=40_000.0, batch_size=256,
        duration=4_000_000.0, seed=29,
    )
    no_flush = run_once(simulate, base)
    flush = simulate(base.with_(batch_flush_timeout=200_000.0))
    # Without a flush, 256 x 40 ms batches never complete in 4 s.
    assert no_flush.samples_received == 0
    assert flush.samples_received > 0
    assert flush.monitoring_latency_total < 256 * 40_000.0


def test_adaptive_regulation(run_once):
    """§6 extension: the overhead regulator pulls a ~25 % static overhead
    inside a 1 % budget, and batch-first adaptation retains more samples
    than period backoff."""
    from repro.rocc import ParadynISSystem, RegulatorConfig

    base = SimulationConfig(
        nodes=2, sampling_period=1_000.0, batch_size=1,
        duration=8_000_000.0, seed=44,
    )

    def settled_overhead(reg: RegulatorConfig):
        system = ParadynISSystem(base.with_(adaptive=reg))
        results = system.run()
        tail = [
            d for d in system.regulators[0].decisions if d.time > 4_000_000.0
        ]
        util = sum(d.observed_utilization for d in tail) / len(tail)
        return util, results.samples_received

    util_period, recv_period = run_once(
        settled_overhead, RegulatorConfig(budget=0.01)
    )
    util_batch, recv_batch = settled_overhead(
        RegulatorConfig(budget=0.01, adapt_batch=True, max_batch=64)
    )
    static = simulate(base)
    assert static.pd_cpu_utilization_per_node > 0.15
    assert util_period < 0.015
    assert util_batch < 0.015
    assert recv_batch > 1.5 * recv_period


def test_daemon_cost_split(run_once):
    """The collection/forwarding split governs the BF ceiling: with all
    cost in forwarding, batching approaches a 1/b law; with all cost in
    collection, batching cannot help."""
    base = SimulationConfig(
        nodes=2, sampling_period=10_000.0, duration=2_000_000.0, seed=31,
    )

    def reduction(costs: DaemonCostModel) -> float:
        cf = simulate(base.with_(daemon_costs=costs, batch_size=1))
        bf = simulate(base.with_(daemon_costs=costs, batch_size=32))
        return 1 - bf.pd_cpu_time_per_node / cf.pd_cpu_time_per_node

    all_forward = DaemonCostModel(
        collection_cpu=Exponential(1e-6), forward_cpu=Exponential(267.0)
    )
    all_collect = DaemonCostModel(
        collection_cpu=Exponential(267.0), forward_cpu=Exponential(1e-6)
    )
    r_forward = run_once(reduction, all_forward)
    r_collect = reduction(all_collect)
    assert r_forward > 0.9
    assert abs(r_collect) < 0.1
