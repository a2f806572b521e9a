"""Tests for warmup handling (statistics reset at the warmup boundary)."""

import pytest

from repro.rocc import SimulationConfig, simulate


def cfg(**kw):
    base = dict(nodes=2, duration=2_000_000.0, sampling_period=10_000.0, seed=83)
    base.update(kw)
    return SimulationConfig(**base)


def test_measured_duration_excludes_warmup():
    r = simulate(cfg(warmup=500_000.0))
    assert r.duration == 1_500_000.0


def test_cpu_busy_windows_are_additive():
    """busy(0..2s) ≈ busy(0..1s window) + busy(1..2s window) — the
    warmup snapshot subtracts exactly the pre-warmup accumulation."""
    full = simulate(cfg())
    second_half = simulate(cfg(warmup=1_000_000.0))
    first_half = simulate(cfg(duration=1_000_000.0))
    assert (
        first_half.app_cpu_time_per_node + second_half.app_cpu_time_per_node
    ) == pytest.approx(full.app_cpu_time_per_node, rel=0.02)
    assert (
        first_half.pd_cpu_time_per_node + second_half.pd_cpu_time_per_node
    ) == pytest.approx(full.pd_cpu_time_per_node, rel=0.05)


def test_sample_counters_restart():
    r = simulate(cfg(warmup=1_000_000.0))
    # Only the second half's samples are counted: ~2 nodes x 100/s x 1 s.
    assert r.samples_generated == pytest.approx(200, abs=8)


def test_network_busy_subtracted():
    full = simulate(cfg())
    half = simulate(cfg(warmup=1_000_000.0))
    assert half.network_utilization == pytest.approx(
        full.network_utilization, rel=0.15
    )


def test_latency_tallies_post_warmup_only():
    r = simulate(cfg(warmup=1_000_000.0))
    assert r.samples_received <= r.samples_generated + 5
    assert r.monitoring_latency_forwarding > 0


def test_utilizations_similar_with_and_without_warmup():
    """A stationary workload has matching windowed utilizations."""
    full = simulate(cfg())
    warm = simulate(cfg(warmup=800_000.0))
    assert warm.app_cpu_utilization_per_node == pytest.approx(
        full.app_cpu_utilization_per_node, rel=0.05
    )
    assert warm.pd_cpu_utilization_per_node == pytest.approx(
        full.pd_cpu_utilization_per_node, rel=0.15
    )


def test_sample_conservation_with_warmup():
    """Samples generated pre-warmup but delivered post-warmup count on
    *neither* side: received never exceeds generated."""
    for seed in (1, 7, 11, 83):
        r = simulate(cfg(seed=seed, warmup=500_000.0))
        in_flight = r.samples_generated - r.samples_received
        assert in_flight >= 0, (
            f"seed={seed}: generated={r.samples_generated} "
            f"received={r.samples_received}"
        )
