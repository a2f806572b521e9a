"""Tests for the main Paradyn process: receipt is stamped at delivery."""

import pytest

from repro.rocc import Architecture, SimulationConfig, simulate


def mpp(**kw):
    base = dict(
        architecture=Architecture.MPP, nodes=4, duration=2_000_000.0,
        sampling_period=10_000.0, batch_size=1, seed=77,
    )
    base.update(kw)
    return SimulationConfig(**base)


def test_default_receipt_at_delivery():
    r = simulate(mpp())
    assert r.samples_received > 0
    # Without central serialization, latency is small at this load.
    assert r.monitoring_latency_forwarding < 20_000.0


def test_without_ingress_latency_insensitive_to_nodes():
    small = simulate(mpp(nodes=2))
    large = simulate(mpp(nodes=8))
    assert large.monitoring_latency_forwarding == pytest.approx(
        small.monitoring_latency_forwarding, rel=0.35
    )
