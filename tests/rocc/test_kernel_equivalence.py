"""Kernel equivalence: the watchdog changes no result.

An armed run (``max_events`` or ``max_wall_seconds``) dispatches
through the same loop as an unarmed one, in chunks; the results must
be bit-identical, not statistically close.  The configurations are
those of the ``now_adaptive`` and ``now_flushed`` goldens, which pin
the regulator's and the flush timer's sleeps.
"""

import pytest

from repro.experiments.engine import results_equal
from repro.rocc import Architecture, SimulationConfig, simulate
from repro.rocc.adaptive import RegulatorConfig

#: The ``now_adaptive`` golden's configuration: the regulator sleeps
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

#: BF batching with a flush timer (the ``now_flushed`` golden).
FLUSHED = SimulationConfig(
    nodes=2, batch_size=8, batch_flush_timeout=30_000.0,
    duration=2_000_000.0,
)


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
    watchdog chunks; results must not change."""
    for config in (ADAPTIVE, FLUSHED):
        plain = simulate(config)
        watched = simulate(config.with_(max_events=1_000_000_000))
        assert plain.samples_received > 0
        assert results_equal(plain, watched)


def test_wall_clock_watchdog_bit_identical():
    plain = simulate(ADAPTIVE)
    watched = simulate(ADAPTIVE.with_(max_wall_seconds=3600.0))
    assert watched.samples_received > 0
    assert results_equal(plain, watched)
