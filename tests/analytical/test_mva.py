"""Tests for exact MVA against closed-form queueing results."""

import pytest

from repro.analytical import MVACenter, mva


def test_single_customer_no_queueing():
    res = mva([MVACenter("cpu", 2213.0), MVACenter("net", 223.0)], 1)
    assert res.response_time == pytest.approx(2436.0)
    assert res.throughput == pytest.approx(1 / 2436.0)


def test_population_validation():
    with pytest.raises(ValueError):
        mva([MVACenter("cpu", 1.0)], 0)


def test_negative_demand_rejected():
    with pytest.raises(ValueError):
        mva([MVACenter("cpu", -1.0)], 1)


def test_bad_think_time_rejected():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="think_time"):
            mva([MVACenter("cpu", 1.0)], 1, think_time=bad)


def test_overflowing_throughput_raises():
    # All demands zero and a tiny think time: N/Z is beyond float range.
    with pytest.raises(ValueError, match="overflows"):
        mva([MVACenter("cpu", 0.0)], 30, think_time=1.66e-307)


def test_utilization_law_holds():
    centers = [MVACenter("cpu", 100.0), MVACenter("disk", 50.0)]
    res = mva(centers, 5)
    for c, u in zip(centers, res.center_utilization):
        assert u == pytest.approx(res.throughput * c.demand)
    assert max(res.center_utilization) < 1.0


def test_bottleneck_saturates_at_large_population():
    centers = [MVACenter("cpu", 100.0), MVACenter("disk", 20.0)]
    res = mva(centers, 100)
    # X -> 1/D_max, bottleneck utilization -> 1.
    assert res.throughput == pytest.approx(1 / 100.0, rel=1e-3)
    assert res.center_utilization[0] == pytest.approx(1.0, rel=1e-3)


def test_littles_law_consistency():
    centers = [MVACenter("a", 10.0), MVACenter("b", 30.0)]
    res = mva(centers, 4, think_time=100.0)
    n_in_centers = sum(res.center_queue)
    n_thinking = res.throughput * 100.0
    assert n_in_centers + n_thinking == pytest.approx(4.0)


def test_delay_center_has_no_queueing():
    centers = [MVACenter("cpu", 50.0), MVACenter("net", 200.0, delay=True)]
    res = mva(centers, 10)
    # Residence at the delay center equals its demand regardless of load.
    assert res.center_residence[1] == pytest.approx(200.0)


def test_think_time_reduces_congestion():
    centers = [MVACenter("cpu", 100.0)]
    busy = mva(centers, 10, think_time=0.0)
    relaxed = mva(centers, 10, think_time=10_000.0)
    assert relaxed.center_queue[0] < busy.center_queue[0]


def test_matches_mm1_like_growth():
    """For a balanced 2-center network, response grows with N as
    R(N) = D (N + 1) ... for identical demands (classic result)."""
    d = 100.0
    centers = [MVACenter("a", d), MVACenter("b", d)]
    for n in (1, 2, 5, 10):
        res = mva(centers, n)
        assert res.response_time == pytest.approx(d * (n + 1), rel=1e-9)


def test_utilization_lookup_by_name():
    centers = [MVACenter("cpu", 10.0), MVACenter("net", 5.0)]
    res = mva(centers, 3)
    assert res.utilization("net", centers) == res.center_utilization[1]
    with pytest.raises(KeyError):
        res.utilization("gpu", centers)


def test_mva_cross_checks_simulator_app_throughput():
    """The uninstrumented application is a closed 2-center network; MVA's
    throughput should match the simulated cycle rate within noise."""
    from repro.rocc import SimulationConfig, simulate

    r = simulate(
        SimulationConfig(
            nodes=1, duration=3_000_000.0, instrumented=False,
            include_pvmd=False, include_other=False, seed=31,
        )
    )
    res = mva(
        [MVACenter("cpu", 2213.0), MVACenter("net", 223.0, delay=True)], 1
    )
    sim_rate = r.app_cycles / 3_000_000.0
    assert sim_rate == pytest.approx(res.throughput, rel=0.05)
