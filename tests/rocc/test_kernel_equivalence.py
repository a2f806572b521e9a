"""Kernel equivalence: full-model results are bit-identical.

Holds, timeout recycling and the inlined dispatch loop claim *exact*
equivalence with the plain-timeout, no-recycling reference kernel
(``tests/kernel_reference.py``), not statistical closeness.  These tests
run ROCC configurations that actually reach ``hold``/``timeout`` — the
BF flush timer and the adaptive sampler's regulator — under both, assert
that the kernel run made such calls, and require every
:class:`SimulationResults` field to match bit for bit.
"""

import pytest

from repro.experiments.engine import results_equal
from repro.rocc import Architecture, SimulationConfig, simulate
from repro.rocc.adaptive import RegulatorConfig

from ..kernel_reference import run_both

#: The ``now_adaptive`` golden's configuration: the regulator holds
#: once per control interval on every node.
ADAPTIVE = SimulationConfig(
    architecture=Architecture.NOW,
    nodes=4,
    duration=500_000.0,
    sampling_period=5_000.0,
    batch_size=2,
    adaptive=RegulatorConfig(budget=0.01, control_interval=50_000.0),
    seed=13,
)

#: BF batching with a flush timer: each daemon's flush loop holds.
FLUSHED = SimulationConfig(
    nodes=2, batch_size=8, batch_flush_timeout=30_000.0,
    duration=2_000_000.0,
)


def _both_kernels(config):
    fast, generic, calls = run_both(lambda: simulate(config))
    assert calls > 0, "the run never reached hold/timeout: vacuous check"
    return fast, generic


def test_now_results_bit_identical():
    fast, generic = _both_kernels(ADAPTIVE)
    assert fast.samples_received > 0
    assert results_equal(fast, generic)


def test_smp_results_bit_identical():
    cfg = SimulationConfig(
        architecture=Architecture.SMP,
        nodes=4,
        app_processes_per_node=4,
        daemons=2,
        batch_size=4,
        batch_flush_timeout=40_000.0,
        duration=2_000_000.0,
    )
    fast, generic = _both_kernels(cfg)
    assert fast.samples_received > 0
    assert results_equal(fast, generic)


def test_batching_results_bit_identical():
    fast, generic = _both_kernels(FLUSHED)
    assert fast.batches_received > 0
    assert results_equal(fast, generic)


@pytest.mark.parametrize("arch", [Architecture.NOW, Architecture.MPP])
def test_percentiles_populated_and_ordered(arch):
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


def test_watchdog_step_loop_bit_identical():
    """A generous max_events budget makes the dispatch loop run in
    watchdog chunks; results must not change, on the kernel or on the
    reference."""
    for config in (ADAPTIVE, FLUSHED):
        plain = simulate(config)
        watched, generic_watched = _both_kernels(
            config.with_(max_events=1_000_000_000)
        )
        assert plain.samples_received > 0
        assert results_equal(plain, watched)
        assert results_equal(plain, generic_watched)


def test_wall_clock_watchdog_bit_identical():
    fast, generic = _both_kernels(ADAPTIVE.with_(max_wall_seconds=3600.0))
    assert fast.samples_received > 0
    assert results_equal(fast, generic)
