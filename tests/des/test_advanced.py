"""Edge-case tests for kernel interactions: nested conditions, failures
during composite waits, process joins on finished processes."""

import pytest

from repro.des import AllOf, AnyOf, Environment


def test_nested_all_of_any_of(env):
    done = []

    def proc(env):
        fast = AnyOf(env, [env.timeout(10), env.timeout(3)])
        slow = AllOf(env, [env.timeout(5), env.timeout(7)])
        yield AllOf(env, [fast, slow])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [7.0]


def test_failure_wakes_waiter_on_pending_condition(env):
    """A failing constituent wakes a process blocked on a nested ``&``
    condition at the failure time, before the other constituents fire;
    their later firing neither resumes it again nor crashes the run."""
    log = []
    bad = env.event()

    def victim(env):
        try:
            yield env.timeout(50) & env.timeout(60) & bad
        except RuntimeError as exc:
            log.append((env.now, str(exc)))
        log.append(("done", env.now))

    def failer(env):
        yield env.timeout(5)
        bad.fail(RuntimeError("now"))

    env.process(victim(env))
    env.process(failer(env))
    env.run()
    assert log == [(5.0, "now"), ("done", 5.0)]
    assert env.now == 60.0


def test_join_already_finished_process(env):
    def child(env):
        yield env.timeout(1)
        return 99

    def parent(env, c):
        yield env.timeout(10)  # child long done by now
        value = yield c
        return value

    c = env.process(child(env))
    p = env.process(parent(env, c))
    assert env.run(until=p) == 99


def test_multiple_waiters_on_one_process(env):
    values = []

    def child(env):
        yield env.timeout(4)
        return "payload"

    def waiter(env, c, name):
        v = yield c
        values.append((name, v, env.now))

    c = env.process(child(env))
    env.process(waiter(env, c, "w1"))
    env.process(waiter(env, c, "w2"))
    env.run()
    assert sorted(values) == [("w1", "payload", 4.0), ("w2", "payload", 4.0)]


def test_event_trigger_chain(env):
    a, b, c = env.event(), env.event(), env.event()
    a.callbacks.append(b.trigger)
    b.callbacks.append(c.trigger)
    a.succeed("v")
    env.run()
    assert c.value == "v"


def test_condition_with_process_members(env):
    def worker(env, d):
        yield env.timeout(d)
        return d

    done = []

    def boss(env):
        workers = [env.process(worker(env, d)) for d in (3, 1, 2)]
        result = yield AllOf(env, workers)
        done.append(sorted(result.values()))

    env.process(boss(env))
    env.run()
    assert done == [[1, 2, 3]]


def test_any_of_with_failed_member_defused_by_waiter(env):
    caught = []

    def failer(env):
        yield env.timeout(2)
        raise RuntimeError("worker died")

    def boss(env):
        f = env.process(failer(env))
        t = env.timeout(10)
        try:
            yield AnyOf(env, [f, t])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(boss(env))
    env.run()
    assert caught == ["worker died"]


def test_timeout_zero_fires_same_timestep_after_pending(env):
    order = []

    def proc(env):
        order.append("start")
        yield env.timeout(0)
        order.append("after zero-timeout")

    env.process(proc(env))
    env.run()
    assert order == ["start", "after zero-timeout"]


def test_interleaving_is_deterministic():
    def run_once():
        env = Environment()
        log = []

        def p(env, name, d):
            while env.now < 50:
                yield env.timeout(d)
                log.append((name, env.now))

        env.process(p(env, "a", 7))
        env.process(p(env, "b", 5))
        env.process(p(env, "c", 5))
        env.run(until=60)
        return log

    assert run_once() == run_once()


def test_generator_return_before_first_yield(env):
    def instant(env):
        if True:
            return 5
        yield  # pragma: no cover

    p = env.process(instant(env))
    assert env.run(until=p) == 5
