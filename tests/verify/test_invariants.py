"""Invariant auditors: clean runs pass, tampered results are caught."""

import dataclasses
import math

import pytest

from repro.rocc import Architecture, SimulationConfig, simulate
from repro.verify import audit_results


@pytest.fixture(scope="module")
def clean_run():
    config = SimulationConfig(nodes=2, duration=1_000_000.0,
                              sampling_period=20_000.0, seed=7)
    return config, simulate(config)


def _names(violations):
    return {v.invariant for v in violations}


def test_clean_run_passes(clean_run):
    config, results = clean_run
    assert audit_results(results, config) == []


def test_clean_run_passes_without_config(clean_run):
    _, results = clean_run
    assert audit_results(results) == []


def test_warmup_run_passes():
    config = SimulationConfig(nodes=2, duration=1_000_000.0, warmup=300_000.0,
                              sampling_period=20_000.0, seed=7)
    assert audit_results(simulate(config), config) == []


def test_smp_and_mpp_pass():
    for arch, extra in (
        (Architecture.SMP, dict(app_processes_per_node=4, daemons=2)),
        (Architecture.MPP, dict()),
    ):
        config = SimulationConfig(architecture=arch, nodes=4,
                                  duration=1_000_000.0, seed=3, **extra)
        assert audit_results(simulate(config), config) == []


def test_detects_conservation_violation(clean_run):
    config, results = clean_run
    broken = dataclasses.replace(
        results,
        samples_received=results.samples_generated + 5,
    )
    assert "conservation.sample_balance" in _names(
        audit_results(broken, config)
    )


def test_detects_negative_counter(clean_run):
    config, results = clean_run
    broken = dataclasses.replace(results, batches_received=-1)
    assert "conservation.counter_sign" in _names(audit_results(broken, config))


def test_detects_overcommitted_cpu(clean_run):
    config, results = clean_run
    broken = dataclasses.replace(results, pd_cpu_utilization_per_node=1.2)
    assert "capacity.cpu_utilization" in _names(audit_results(broken, config))


def test_detects_node_busy_over_capacity(clean_run):
    config, results = clean_run
    cpu_busy = dict(results.cpu_busy)
    (node, owner) = next(iter(cpu_busy))
    cpu_busy[(node, owner)] = results.duration * config.cpus_per_node * 2.0
    broken = dataclasses.replace(results, cpu_busy=cpu_busy)
    assert "capacity.node_busy" in _names(audit_results(broken, config))


def test_detects_batches_exceeding_samples(clean_run):
    config, results = clean_run
    broken = dataclasses.replace(
        results, batches_received=results.samples_received + 1
    )
    assert "tally.batches_vs_samples" in _names(audit_results(broken, config))


def test_detects_throughput_mismatch(clean_run):
    config, results = clean_run
    broken = dataclasses.replace(
        results, received_throughput=results.received_throughput * 2.0 + 1.0
    )
    assert "tally.received_throughput" in _names(audit_results(broken, config))


def test_detects_nonmonotone_percentiles(clean_run):
    config, results = clean_run
    broken = dataclasses.replace(
        results,
        monitoring_latency_p50=results.monitoring_latency_p90 + 100.0,
    )
    assert "latency.percentile_monotone" in _names(
        audit_results(broken, config)
    )


def test_detects_missing_percentiles(clean_run):
    config, results = clean_run
    broken = dataclasses.replace(results, monitoring_latency_p90=math.nan)
    assert "latency.percentile_missing" in _names(audit_results(broken, config))


def test_detects_total_below_forwarding_latency(clean_run):
    config, results = clean_run
    broken = dataclasses.replace(
        results,
        monitoring_latency_total=results.monitoring_latency_forwarding / 2.0,
    )
    assert "latency.total_dominates_forwarding" in _names(
        audit_results(broken, config)
    )
