"""Tests for the interconnect models (FIFO shared vs contention-free)."""

import pytest

from repro.rocc import ContentionFreeNetwork, FIFONetwork
from repro.workload import ProcessType

APP = ProcessType.APPLICATION
PD = ProcessType.PARADYN_DAEMON


def test_fifo_serializes_transfers(env):
    net = FIFONetwork(env)
    done = []

    def proc(env, name, amount):
        yield net.transfer(amount, APP)
        done.append((name, env.now))

    env.process(proc(env, "a", 100))
    env.process(proc(env, "b", 50))
    env.run()
    assert done == [("a", 100.0), ("b", 150.0)]


def test_contention_free_transfers_overlap(env):
    net = ContentionFreeNetwork(env)
    done = []

    def proc(env, name, amount):
        yield net.transfer(amount, APP)
        done.append((name, env.now))

    env.process(proc(env, "a", 100))
    env.process(proc(env, "b", 50))
    env.run()
    assert done == [("b", 50.0), ("a", 100.0)]


@pytest.mark.parametrize("cls", [FIFONetwork, ContentionFreeNetwork])
def test_busy_accounting(env, cls):
    net = cls(env)

    def proc(env):
        yield net.transfer(30, APP)
        yield net.transfer(20, PD)

    env.process(proc(env))
    env.run()
    assert net.busy_time(APP) == 30.0
    assert net.busy_time(PD) == 20.0
    assert net.total_busy_time() == 50.0
    assert net.transfers == 2


@pytest.mark.parametrize("cls", [FIFONetwork, ContentionFreeNetwork])
def test_zero_amount_completes_immediately(env, cls):
    net = cls(env)
    hits = []
    ev = net.transfer(0.0, APP, payload="p", deliver=hits.append)
    assert ev.triggered
    assert hits == ["p"]


def test_deliver_callback_at_completion_time(env):
    net = FIFONetwork(env)
    deliveries = []

    def proc(env):
        yield net.transfer(40, PD, payload="batch", deliver=lambda b: deliveries.append((b, env.now)))

    env.process(proc(env))
    env.run()
    assert deliveries == [("batch", 40.0)]


def test_fifo_utilization(env):
    net = FIFONetwork(env)

    def proc(env):
        yield net.transfer(25, APP)

    env.process(proc(env))
    env.run(until=100)
    assert net.utilization() == pytest.approx(0.25)


def test_fifo_queue_length(env):
    net = FIFONetwork(env)

    def proc(env):
        yield net.transfer(1000, APP)

    for _ in range(3):
        env.process(proc(env))
    env.run(until=10)
    assert net.queue_length == 2


def test_contention_free_offered_load_can_exceed_one(env):
    net = ContentionFreeNetwork(env)

    def proc(env):
        yield net.transfer(100, APP)

    for _ in range(5):
        env.process(proc(env))
    env.run(until=101)
    assert net.total_busy_time() == pytest.approx(500.0)
    assert net.utilization(now=100.0) == pytest.approx(5.0)


def test_fire_and_forget_transfer_still_accounts(env):
    """Transfers issued without yielding (phantom traffic) complete."""
    net = FIFONetwork(env)
    net.transfer(10, PD)
    net.transfer(5, PD)
    env.run()
    assert net.total_busy_time() == 15.0


def test_fifo_in_flight_integrates_server_occupancy(env):
    """The FIFO network's ``in_flight`` is the time-weighted server
    state: 1 while any transfer is in service (queued ones hand the
    server on without a 0 in between), 0 while idle."""
    net = FIFONetwork(env)
    levels = []
    net.in_flight.on_change = lambda t, value: levels.append((t, value))

    def later(env):
        yield env.timeout(250)
        yield net.transfer(50, APP)

    net.transfer(100, APP)
    net.transfer(40, PD)
    env.process(later(env))
    env.run(until=400)
    # Busy 0-140 (two back-to-back transfers) and 250-300: 190 of 400.
    assert net.in_flight.time_average(400.0) == pytest.approx(190.0 / 400.0)
    assert net.in_flight.value == 0
    assert [v for _, v in levels] == [1, 0, 1, 0]


def test_contention_free_network_keeps_no_in_flight_signal(env):
    net = ContentionFreeNetwork(env)
    assert not hasattr(net, "in_flight")
    net.transfer(10, APP)
    env.run()
    assert net.transfers == 1 and net.total_busy_time() == 10.0
