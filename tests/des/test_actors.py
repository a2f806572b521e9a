"""Kernel support for actors (model objects that are their own event)
and the run loop's direct use of the serving queue's ``pop``."""

from heapq import heappop

import pytest

from repro.des import Environment, EventLog, SimulationStalled
from repro.des.queues import AutoScheduler

from .support import Sleeper, Ticker


@pytest.mark.parametrize("watchdog", [False, True])
def test_run_loop_and_step_fire_actors(watchdog):
    """An unarmed and a watchdog-armed (chunked) run both dispatch an
    actor entry with one _fire() call."""
    env = Environment()
    ticker = Ticker(env, 2.0, limit=4)
    kw = {"max_events": 1000} if watchdog else {}
    env.run(until=100.0, **kw)
    assert ticker.fired == [0.0, 2.0, 4.0, 6.0]


def test_actor_ordering_with_events():
    """Actor entries obey the same (time, priority, sequence) order as
    events: a timeout scheduled first at the same time pops first."""
    env = Environment()
    order = []
    env.timeout(1.0).callbacks.append(lambda _ev: order.append("timeout"))
    ticker = Ticker(env, 1.0, limit=2)
    ticker.fired = order
    env.run(until=1.5)
    # At t = 1 the timeout was pushed before the actor's re-push, so it
    # pops first.
    assert order == [0.0, "timeout", 1.0]


def test_tracers_see_actor_kind_and_name():
    env = Environment()
    Ticker(env, 1.0, limit=3, name="clock")
    with EventLog(env) as log:
        env.run(until=10.0)
    actor_entries = [e for e in log.entries if e.name == "clock"]
    assert [e.kind for e in actor_entries] == ["timeout"] * 3
    assert all(e.ok for e in actor_entries)


def test_watchdog_names_actor_at_head_of_schedule():
    env = Environment()
    Ticker(env, 0.0, name="spin-actor")
    with pytest.raises(SimulationStalled) as excinfo:
        env.run(until=10.0, max_events=500)
    assert "spin-actor" in excinfo.value.blocked
    assert "spin-actor" in str(excinfo.value)


def test_actor_sleep_advances_clock_like_timeout():
    env = Environment()
    log = []
    sleeper = Sleeper(env, [10.0, 2.5])
    env.add_tracer(
        lambda entry, now: log.append(now) if entry is sleeper else None)
    env.run()
    assert log == [10.0, 12.5]


def test_actor_sleeps_interleave_with_timeouts_fifo():
    """Same-time actor entries and timeouts fire in scheduling order
    (sequence-number ties)."""
    env = Environment()
    log = []
    env.add_tracer(lambda entry, now: log.append(entry.name)
                   if isinstance(entry, Sleeper) else None)
    Sleeper(env, [10.0], name="a")
    env.timeout(10.0).callbacks.append(lambda _ev: log.append("b"))
    Sleeper(env, [10.0], name="c")
    env.run()
    assert log == ["a", "b", "c"]


def test_run_loop_serves_promoted_calendar_pop_directly():
    """The environment's cached ``pop`` is the serving phase's own: a
    ``heappop`` partial over the heap list, then — after a promotion
    made by the running loop, from pushes made inside it — the
    calendar's.  No delegating scheduler method sits in between."""
    env = Environment()
    sched = env.scheduler
    assert isinstance(sched, AutoScheduler)
    assert env._pop.func is heappop and env._pop.args == (sched.heap,)
    fired = []

    def spawn(_ev):
        # Cross the promotion threshold mid-run, from inside the loop
        # that holds the heap's pop.
        for i in range(sched.promote_at + 8):
            env.timeout(1.0 + i).callbacks.append(
                lambda ev, i=i: fired.append(i))

    env.timeout(0.5).callbacks.append(spawn)
    env.run(until=sched.promote_at + 1.75)
    assert sched.promotions == 1
    assert sched.heap == []
    assert env._pop.__self__ is sched.calendar
    assert fired == list(range(sched.promote_at + 1))
    assert env.peek() == sched.promote_at + 2.5



def test_package_quick_example_runs(capsys):
    """The ``repro.des`` docstring's quick example is an actor model
    that runs as written."""
    import textwrap

    import repro.des

    doc = repro.des.__doc__
    code = textwrap.dedent(doc.split("Quick example::", 1)[1])
    exec(compile(code, "repro.des quick example", "exec"), {})
    assert capsys.readouterr().out == "tick 10.0\ntick 20.0\ntick 30.0\n"
