"""Edge-case tests for kernel interactions: process joins on finished
processes, callback chains, same-time ordering."""

from repro.des import Environment


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
    a.callbacks.append(lambda e: b.succeed(e.value))
    b.callbacks.append(lambda e: c.succeed(e.value))
    a.succeed("v")
    env.run()
    assert c.value == "v"


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
