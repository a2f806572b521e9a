"""Tests for the interconnect models (FIFO shared vs contention-free)."""

import pytest

from repro.rocc import ContentionFreeNetwork, FIFONetwork
from repro.workload import ProcessType

from .actors import Job, make_ctx

APP = ProcessType.APPLICATION
PD = ProcessType.PARADYN_DAEMON


def test_fifo_serializes_transfers(env):
    net = FIFONetwork(env)
    ctx = make_ctx(env, network=net)
    a = Job(ctx, [("network", 100)])
    b = Job(ctx, [("network", 50)])
    env.run()
    assert a.done == [100.0]
    assert b.done == [150.0]


def test_contention_free_transfers_overlap(env):
    net = ContentionFreeNetwork(env)
    done = []
    for name, amount in (("a", 100), ("b", 50)):
        net.transfer(amount, APP).callbacks.append(
            lambda _ev, name=name: done.append((name, env.now)))
    env.run()
    assert done == [("b", 50.0), ("a", 100.0)]


@pytest.mark.parametrize("cls", [FIFONetwork, ContentionFreeNetwork])
def test_busy_accounting(env, cls):
    net = cls(env)
    Job(make_ctx(env, network=net), [("network", 30, APP), ("network", 20, PD)])
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
    done = net.transfer(40, PD, payload="batch",
                        deliver=lambda b: deliveries.append((b, env.now)))
    # Delivery precedes the transfer event's other callbacks.
    done.callbacks.append(lambda _ev: deliveries.append(("done", env.now)))
    env.run()
    assert deliveries == [("batch", 40.0), ("done", 40.0)]


def test_fifo_utilization(env):
    net = FIFONetwork(env)
    Job(make_ctx(env, network=net), [("network", 25)])
    env.run(until=100)
    assert net.utilization() == pytest.approx(0.25)


def test_fifo_queue_length(env):
    net = FIFONetwork(env)
    ctx = make_ctx(env, network=net)
    for _ in range(3):
        Job(ctx, [("network", 1000)])
    env.run(until=10)
    assert net.queue_length == 2


def test_contention_free_offered_load_can_exceed_one(env):
    net = ContentionFreeNetwork(env)
    ctx = make_ctx(env, network=net)
    for _ in range(5):
        Job(ctx, [("network", 100)])
    env.run(until=101)
    assert net.total_busy_time() == pytest.approx(500.0)
    assert net.utilization(now=100.0) == pytest.approx(5.0)


def test_fire_and_forget_transfer_still_accounts(env):
    """Transfers nobody waits on (phantom traffic) complete."""
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

    net.transfer(100, APP)
    net.transfer(40, PD)
    Job(make_ctx(env, network=net), [("network", 50)], delay=250)
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
