"""Operational-law checks: pass on real runs, catch cooked numbers."""

import dataclasses

import pytest

from repro.rocc import Architecture, NetworkMode, SimulationConfig, simulate
from repro.verify import (
    applicable,
    check_against_analytic,
    check_littles_law,
    check_operational_laws,
    check_utilization_law,
)


@pytest.fixture(scope="module")
def now_run():
    config = SimulationConfig(
        nodes=4, duration=2_000_000.0, seed=9,
        network_mode=NetworkMode.CONTENTION_FREE,
    )
    return config, simulate(config)


def test_applicable_gating():
    base = SimulationConfig(nodes=2)
    assert applicable(base)
    assert not applicable(base.with_(warmup=1000.0))
    assert not applicable(base.with_(barrier_period=100_000.0))
    assert not applicable(base.with_(instrumented=False))


def test_clean_now_run_obeys_all_laws(now_run):
    config, results = now_run
    assert check_operational_laws(config, results) == []


@pytest.mark.parametrize("arch,extra", [
    (Architecture.SMP, dict(app_processes_per_node=4, daemons=2)),
    (Architecture.MPP, dict()),
])
def test_other_architectures_obey_laws(arch, extra):
    config = SimulationConfig(architecture=arch, nodes=4,
                              duration=2_000_000.0, seed=4, **extra)
    assert check_operational_laws(config, simulate(config)) == []


def test_batching_run_obeys_laws():
    config = SimulationConfig(nodes=4, batch_size=8, duration=2_000_000.0,
                              seed=6, network_mode=NetworkMode.CONTENTION_FREE)
    assert check_operational_laws(config, simulate(config)) == []


def test_utilization_law_detects_inflated_busy(now_run):
    config, results = now_run
    broken = dataclasses.replace(
        results, pd_cpu_time_per_node=results.pd_cpu_time_per_node * 3.0
    )
    violations = check_utilization_law(config, broken)
    assert any(v.invariant == "oplaw.utilization_pd" for v in violations)


def test_utilization_law_detects_deflated_main(now_run):
    config, results = now_run
    broken = dataclasses.replace(results, main_cpu_time=0.0)
    violations = check_utilization_law(config, broken)
    assert any(v.invariant == "oplaw.utilization_main" for v in violations)


def test_littles_law_detects_impossible_population(now_run):
    config, results = now_run
    # A mean latency of 10 simulated hours implies an in-flight
    # population far beyond every buffer in the model.
    broken = dataclasses.replace(
        results, monitoring_latency_total=3.6e10
    )
    violations = check_littles_law(config, broken)
    assert any(
        v.invariant == "oplaw.littles_population_bound" for v in violations
    )


def test_analytic_agreement_detects_divergence(now_run):
    config, results = now_run
    broken = dataclasses.replace(
        results,
        pd_cpu_utilization_per_node=results.pd_cpu_utilization_per_node * 5.0,
    )
    violations = check_against_analytic(config, broken)
    assert any(
        v.invariant == "oplaw.analytic_utilization" for v in violations
    )
