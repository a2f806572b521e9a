"""Tests for SimulationConfig validation and derived properties."""

import pytest

from repro.rocc import (
    Architecture,
    DaemonCostModel,
    ForwardingTopology,
    MainCostModel,
    NetworkMode,
    SimulationConfig,
)


def test_defaults_are_paper_typical():
    cfg = SimulationConfig()
    assert cfg.sampling_period == 40_000.0
    assert cfg.batch_size == 1
    assert cfg.is_cf and not cfg.is_bf
    assert cfg.workload.cpu_quantum == 10_000.0


def test_policy_flags():
    assert SimulationConfig(batch_size=1).is_cf
    assert SimulationConfig(batch_size=2).is_bf


@pytest.mark.parametrize(
    "kw",
    [
        {"nodes": 0},
        {"cpus_per_node": 0},
        {"sampling_period": 0},
        {"batch_size": 0},
        {"batch_flush_timeout": 0.0},
        {"batch_flush_timeout": -1.0},
        {"daemons": 0},
        {"pipe_capacity": 0},
        {"app_processes_per_node": 0},
        {"duration": 0},
        {"warmup": -1},
        {"warmup": 2e6, "duration": 1e6},
        {"max_events": 0},
        {"max_wall_seconds": 0.0},
    ],
)
def test_validation_rejects(kw):
    with pytest.raises(ValueError):
        SimulationConfig(**kw)


def test_validation_rejects_bad_cpu_quantum():
    from dataclasses import replace

    from repro.workload.parameters import WorkloadParameters

    wl = replace(WorkloadParameters(), cpu_quantum=0.0)
    with pytest.raises(ValueError, match="cpu_quantum"):
        SimulationConfig(workload=wl)
    wl = replace(WorkloadParameters(), cpu_quantum=-10.0)
    with pytest.raises(ValueError, match="cpu_quantum"):
        SimulationConfig(workload=wl)


def test_tree_requires_mpp():
    with pytest.raises(ValueError):
        SimulationConfig(
            architecture=Architecture.NOW, forwarding=ForwardingTopology.TREE
        )
    SimulationConfig(
        architecture=Architecture.MPP, forwarding=ForwardingTopology.TREE
    )  # fine


def test_network_mode_defaults():
    assert (
        SimulationConfig(architecture=Architecture.NOW).effective_network_mode
        is NetworkMode.SHARED
    )
    assert (
        SimulationConfig(architecture=Architecture.SMP).effective_network_mode
        is NetworkMode.SHARED
    )
    assert (
        SimulationConfig(architecture=Architecture.MPP).effective_network_mode
        is NetworkMode.CONTENTION_FREE
    )


def test_network_mode_override():
    cfg = SimulationConfig(
        architecture=Architecture.NOW, network_mode=NetworkMode.CONTENTION_FREE
    )
    assert cfg.effective_network_mode is NetworkMode.CONTENTION_FREE


def test_with_creates_modified_copy():
    base = SimulationConfig(nodes=4)
    mod = base.with_(nodes=8, batch_size=16)
    assert mod.nodes == 8 and mod.batch_size == 16
    assert base.nodes == 4 and base.batch_size == 1


def test_measured_duration():
    cfg = SimulationConfig(duration=10e6, warmup=2e6)
    assert cfg.measured_duration == 8e6


def test_daemon_cost_model_cf_total_matches_table2():
    """Collection + forwarding means must sum to Table 2's 267 µs so the
    CF policy's per-sample daemon cost stays faithful."""
    costs = DaemonCostModel()
    assert costs.collection_cpu.mean + costs.forward_cpu.mean == pytest.approx(267.0)


def test_main_cost_model_reduction_ratio():
    """The decomposition must give roughly the measured ~80 % main-process
    reduction at batch 32."""
    costs = MainCostModel()
    cf = costs.receive_cpu.mean + costs.per_sample_cpu.mean
    bf = (costs.receive_cpu.mean + 32 * costs.per_sample_cpu.mean) / 32
    assert 1 - bf / cf == pytest.approx(0.8, abs=0.05)
