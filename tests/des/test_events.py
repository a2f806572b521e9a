"""Tests for events: life cycle and values."""

import pytest


def test_event_starts_untriggered(env):
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed


def test_value_unavailable_before_trigger(env):
    ev = env.event()
    with pytest.raises(AttributeError):
        _ = ev.value
    with pytest.raises(AttributeError):
        _ = ev.ok


def test_succeed_sets_value(env):
    ev = env.event()
    ev.succeed(123)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 123


def test_double_succeed_rejected(env):
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_fail_requires_exception(env):
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callbacks_run_on_processing(env):
    ev = env.event()
    hits = []
    ev.callbacks.append(lambda e: hits.append(e.value))
    ev.succeed("v")
    env.run()
    assert hits == ["v"]
    assert ev.processed


def test_timeout_carries_value(env):
    result = []
    env.timeout(3, value="tick").callbacks.append(
        lambda ev: result.append(ev.value))
    env.run()
    assert result == ["tick"]
