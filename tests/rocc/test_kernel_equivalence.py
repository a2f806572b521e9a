"""Fast-path kernel equivalence: full-model results are bit-identical.

The DES fast path (holds, event pooling, inlined dispatch) claims
*exact* equivalence with the generic kernel, not statistical closeness.
These tests run the same ROCC configurations under both kernels
(``REPRO_DES_FASTPATH`` toggled between fresh environments) and require
every :class:`SimulationResults` field to match bit for bit.
"""

import pytest

from repro.experiments.engine import results_equal
from repro.rocc import Architecture, SimulationConfig, simulate


def _both_kernels(monkeypatch, config):
    monkeypatch.setenv("REPRO_DES_FASTPATH", "1")
    fast = simulate(config)
    monkeypatch.setenv("REPRO_DES_FASTPATH", "0")
    generic = simulate(config)
    return fast, generic


def test_now_results_bit_identical(monkeypatch):
    cfg = SimulationConfig(nodes=4, duration=2_000_000.0)
    fast, generic = _both_kernels(monkeypatch, cfg)
    assert fast.samples_received > 0
    assert results_equal(fast, generic)


def test_smp_results_bit_identical(monkeypatch):
    cfg = SimulationConfig(
        architecture=Architecture.SMP,
        nodes=4,
        app_processes_per_node=4,
        daemons=2,
        duration=2_000_000.0,
    )
    fast, generic = _both_kernels(monkeypatch, cfg)
    assert fast.samples_received > 0
    assert results_equal(fast, generic)


def test_batching_results_bit_identical(monkeypatch):
    cfg = SimulationConfig(nodes=2, batch_size=8, duration=2_000_000.0)
    fast, generic = _both_kernels(monkeypatch, cfg)
    assert fast.batches_received > 0
    assert results_equal(fast, generic)


@pytest.mark.parametrize("arch", [Architecture.NOW, Architecture.MPP])
def test_percentiles_populated_and_ordered(monkeypatch, arch):
    monkeypatch.setenv("REPRO_DES_FASTPATH", "1")
    r = simulate(
        SimulationConfig(architecture=arch, nodes=2, duration=2_000_000.0)
    )
    assert r.samples_received > 0
    assert (
        0.0
        <= r.monitoring_latency_p50
        <= r.monitoring_latency_p90
        <= r.monitoring_latency_p99
    )


def test_watchdog_step_loop_bit_identical(monkeypatch):
    """A generous max_events budget routes dispatch through the
    watchdog's step() loop; results must not change, under either
    kernel."""
    cfg = SimulationConfig(nodes=2, duration=2_000_000.0, seed=5)
    monkeypatch.setenv("REPRO_DES_FASTPATH", "1")
    plain = simulate(cfg)
    watched = simulate(cfg.with_(max_events=1_000_000_000))
    assert plain.samples_received > 0
    assert results_equal(plain, watched)
    monkeypatch.setenv("REPRO_DES_FASTPATH", "0")
    generic_watched = simulate(cfg.with_(max_events=1_000_000_000))
    assert results_equal(plain, generic_watched)


def test_wall_clock_watchdog_bit_identical(monkeypatch):
    cfg = SimulationConfig(nodes=2, duration=1_000_000.0, seed=6)
    fast, generic = _both_kernels(
        monkeypatch, cfg.with_(max_wall_seconds=3600.0)
    )
    assert fast.samples_received > 0
    assert results_equal(fast, generic)
