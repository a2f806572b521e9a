"""Tests for the DES environment: clock, scheduling, run modes."""

import pytest

from repro.des import Environment, EmptySchedule, Event


def test_initial_time_default():
    assert Environment().now == 0.0


def test_initial_time_custom():
    assert Environment(initial_time=42.5).now == 42.5


def test_timeout_advances_clock(env):
    log = []

    def woke(_ev):
        log.append(env.now)
        if len(log) == 1:
            env.timeout(2.5).callbacks.append(woke)

    env.timeout(10).callbacks.append(woke)
    env.run()
    assert log == [10.0, 12.5]


def test_run_until_time_advances_clock_exactly(env):
    env.timeout(1)
    env.run(until=100.0)
    assert env.now == 100.0


def test_run_until_must_not_be_in_past(env):
    with pytest.raises(ValueError):
        env.run(until=-1.0)


def test_run_until_now_is_noop(env):
    """``until == now`` returns immediately (SimPy semantics)."""
    assert env.run(until=0.0) is None
    assert env.now == 0.0

    env.timeout(5.0)
    env.run(until=5.0)
    # The queue still holds events at t=5; an until==now run must not
    # process them.
    pending = len(env)
    assert env.run(until=5.0) is None
    assert env.now == 5.0
    assert len(env) == pending


def test_run_until_event_returns_value(env):
    done = env.timeout(5, value="done")
    assert env.run(until=done) == "done"
    assert env.now == 5.0


def test_run_until_already_processed_event(env):
    ev = env.event()
    ev.succeed("x")
    env.run()
    assert env.run(until=ev) == "x"


def test_run_empty_schedule_returns_none(env):
    assert env.run() is None


def test_step_empty_raises(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_event_never_triggered_raises(env):
    ev = env.event()
    env.timeout(1)
    with pytest.raises(RuntimeError, match="until event was not triggered"):
        env.run(until=ev)


def test_peek_returns_next_event_time(env):
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_peek_empty_is_infinite(env):
    assert env.peek() == float("inf")


def test_len_counts_scheduled_events(env):
    env.timeout(1)
    env.timeout(2)
    assert len(env) == 2


def test_events_at_same_time_fifo_order(env):
    log = []
    for name in "abc":
        env.timeout(10).callbacks.append(lambda _ev, name=name: log.append(name))
    env.run()
    assert log == ["a", "b", "c"]


def test_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_clock_is_monotonic_across_many_events(env):
    seen = []
    for d in (5, 1, 9, 3, 3, 7, 0):
        env.timeout(d).callbacks.append(lambda _ev: seen.append(env.now))
    env.run()
    assert seen == sorted(seen)


def test_failed_event_without_waiter_crashes_simulation(env):
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_failed_event_with_waiter_is_defused(env):
    """A callback that handles the failure defuses the event, and the
    run goes on."""
    caught = []

    def handle(ev):
        ev._defused = True
        caught.append(str(ev.value))

    ev = env.event()
    ev.callbacks.append(handle)
    ev.fail(RuntimeError("handled"))
    env.run()
    assert caught == ["handled"]
