"""Edge-case tests for kernel interactions: several waiters on one
event, callback chains, same-time ordering."""

from repro.des import Environment

from .support import Ticker


def test_multiple_waiters_on_one_event(env):
    values = []
    done = env.timeout(4, value="payload")
    for name in ("w1", "w2"):
        done.callbacks.append(
            lambda ev, name=name: values.append((name, ev.value, env.now)))
    env.run()
    assert values == [("w1", "payload", 4.0), ("w2", "payload", 4.0)]


def test_event_trigger_chain(env):
    a, b, c = env.event(), env.event(), env.event()
    a.callbacks.append(lambda e: b.succeed(e.value))
    b.callbacks.append(lambda e: c.succeed(e.value))
    a.succeed("v")
    env.run()
    assert c.value == "v"


def test_timeout_zero_fires_same_timestep_after_pending(env):
    order = []
    env.timeout(0).callbacks.append(lambda _ev: order.append("zero-timeout"))
    env.timeout(0).callbacks.append(lambda _ev: order.append("second"))
    order.append("start")
    env.run()
    assert order == ["start", "zero-timeout", "second"]
    assert env.now == 0.0


def test_interleaving_is_deterministic():
    def run_once():
        env = Environment()
        log = []
        env.add_tracer(lambda entry, now: log.append((entry.name, now))
                       if isinstance(entry, Ticker) else None)
        for name, period in (("a", 7.0), ("b", 5.0), ("c", 5.0)):
            Ticker(env, period, name=name)
        env.run(until=60)
        return log

    log = run_once()
    assert log == run_once()
    assert [now for _name, now in log] == sorted(now for _name, now in log)
    # b and c share every firing time; each tie is broken the same way.
    assert [name for name, now in log if now == 5.0] == ["b", "c"]
