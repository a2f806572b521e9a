"""Tests for kernel failure paths: unhandled failures and
StopSimulation with failures."""

import pytest

from repro.des import Environment
from repro.des.exceptions import StopSimulation


class Boom(Exception):
    pass


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
