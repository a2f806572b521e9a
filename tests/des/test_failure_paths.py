"""Tests for kernel failure paths: failure propagation through
conditions, StopSimulation with failures."""

import pytest

from repro.des import Environment
from repro.des.events import AllOf, AnyOf
from repro.des.exceptions import StopSimulation


class Boom(Exception):
    pass


# ----------------------------------------------------------------------
# Failure propagation through conditions
# ----------------------------------------------------------------------
def test_allof_propagates_failure_to_waiter():
    env = Environment()
    bad = env.event()
    good = env.timeout(5.0)
    caught = {}

    def waiter(env):
        try:
            yield AllOf(env, [good, bad])
        except Boom as exc:
            caught["exc"] = exc

    env.process(waiter(env))

    def failer(env):
        yield env.timeout(1.0)
        bad.fail(Boom("allof"))

    env.process(failer(env))
    env.run(until=10.0)
    assert isinstance(caught["exc"], Boom)


def test_anyof_propagates_failure_even_with_pending_success():
    env = Environment()
    bad = env.event()
    caught = {}

    def waiter(env):
        try:
            yield AnyOf(env, [env.timeout(50.0), bad])
        except Boom as exc:
            caught["exc"] = exc

    env.process(waiter(env))

    def failer(env):
        yield env.timeout(1.0)
        bad.fail(Boom("anyof"))

    env.process(failer(env))
    env.run(until=100.0)
    assert isinstance(caught["exc"], Boom)


def test_late_failure_after_condition_triggered_is_defused():
    """A failure arriving after an AnyOf already fired must be defused —
    the waiter moved on; the simulation must not crash."""
    env = Environment()
    bad = env.event()
    done = {}

    def waiter(env):
        yield AnyOf(env, [env.timeout(1.0), bad])
        done["ok"] = True
        yield env.timeout(50.0)

    env.process(waiter(env))

    def failer(env):
        yield env.timeout(5.0)  # strictly after the condition fired
        bad.fail(Boom("late"))

    env.process(failer(env))
    env.run(until=100.0)  # must not raise
    assert done["ok"]
    assert bad.defused


def test_unhandled_failed_event_crashes_simulation():
    env = Environment()
    bad = env.event()

    def failer(env):
        yield env.timeout(1.0)
        bad.fail(Boom("nobody listens"))

    env.process(failer(env))
    with pytest.raises(Boom):
        env.run(until=10.0)


# ----------------------------------------------------------------------
# StopSimulation.callback with failed events
# ----------------------------------------------------------------------
def test_stop_simulation_callback_reraises_failure():
    event = type("E", (), {"ok": False, "value": Boom("stop-fail")})()
    with pytest.raises(Boom):
        StopSimulation.callback(event)


def test_stop_simulation_callback_success_carries_value():
    event = type("E", (), {"ok": True, "value": 42})()
    with pytest.raises(StopSimulation) as excinfo:
        StopSimulation.callback(event)
    assert excinfo.value.args[0] == 42


def test_run_until_failed_event_reraises():
    env = Environment()
    target = env.event()

    def failer(env):
        yield env.timeout(1.0)
        target.fail(Boom("until"))

    env.process(failer(env))
    with pytest.raises(Boom):
        env.run(until=target)


def test_run_until_succeeded_event_returns_value():
    env = Environment()
    target = env.event()

    def setter(env):
        yield env.timeout(1.0)
        target.succeed("payload")

    env.process(setter(env))
    assert env.run(until=target) == "payload"
