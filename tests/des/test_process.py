"""Tests for Process: lifecycle, joins, error propagation."""

import pytest

from repro.des import Environment


def test_process_is_event_with_return_value(env):
    def child(env):
        yield env.timeout(2)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return value * 2

    p = env.process(parent(env))
    assert env.run(until=p) == 84


def test_process_alive_until_generator_ends(env):
    def proc(env):
        yield env.timeout(10)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_yielding_non_event_raises(env):
    def proc(env):
        yield 5

    env.process(proc(env))
    with pytest.raises(TypeError, match="non-event"):
        env.run()


def test_exception_in_process_propagates(env):
    def proc(env):
        yield env.timeout(1)
        raise KeyError("inner")

    env.process(proc(env))
    with pytest.raises(KeyError):
        env.run()


def test_waiter_sees_child_exception(env):
    def child(env):
        yield env.timeout(1)
        raise ValueError("child died")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught: {exc}"

    p = env.process(parent(env))
    assert env.run(until=p) == "caught: child died"


def test_process_requires_generator(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_name_from_function(env):
    def my_model(env):
        yield env.timeout(1)

    p = env.process(my_model(env))
    assert p.name == "my_model"
    p2 = env.process(my_model(env), name="custom")
    assert p2.name == "custom"


def test_two_processes_communicate_via_event(env):
    log = []

    def producer(env, ev):
        yield env.timeout(3)
        ev.succeed("payload")

    def consumer(env, ev):
        value = yield ev
        log.append((env.now, value))

    ev = env.event()
    env.process(producer(env, ev))
    env.process(consumer(env, ev))
    env.run()
    assert log == [(3.0, "payload")]


def test_immediate_return_process(env):
    def proc(env):
        return "quick"
        yield  # pragma: no cover

    p = env.process(proc(env))
    assert env.run(until=p) == "quick"
