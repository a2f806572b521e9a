"""Kernel support for actors (model objects that are their own event)
and the run loop's direct use of the serving queue's ``pop``."""

import pytest

from repro.des import Environment, EventLog, SimulationStalled
from repro.des.events import NORMAL, URGENT, Actor
from repro.des.queues import AutoScheduler


class Ticker(Actor):
    """Pushes itself every *period* until it has fired *limit* times."""

    __slots__ = ("env", "period", "limit", "fired")

    kind = "timeout"

    def __init__(self, env, period, limit=None, name="ticker"):
        self.env = env
        self.period = period
        self.limit = limit
        self.fired = []
        self.name = name
        env.schedule(self, URGENT)

    def _fire(self):
        self.fired.append(self.env.now)
        if self.limit is None or len(self.fired) < self.limit:
            self.env.schedule(self, NORMAL, self.period)


@pytest.mark.parametrize("watchdog", [False, True])
def test_run_loop_and_step_fire_actors(watchdog):
    """The inlined loop and step() (the watchdog path) both dispatch an
    actor entry with one _fire() call."""
    env = Environment()
    ticker = Ticker(env, 2.0, limit=4)
    kw = {"max_events": 1000} if watchdog else {}
    env.run(until=100.0, **kw)
    assert ticker.fired == [0.0, 2.0, 4.0, 6.0]


def test_actor_ordering_with_processes():
    """Actor entries obey the same (time, priority, sequence) order as
    events: a process timeout scheduled first at the same time pops
    first."""
    env = Environment()
    order = []

    def proc(env):
        yield env.timeout(1.0)
        order.append("process")

    env.process(proc(env))
    ticker = Ticker(env, 1.0, limit=2)
    ticker.fired = order
    env.run(until=1.5)
    # At t = 1 the process's timeout was pushed before the actor's
    # re-push, so it pops first.
    assert order == [0.0, "process", 1.0]


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


def test_run_loop_serves_promoted_calendar_pop_directly(monkeypatch):
    """The environment's cached ``pop`` is the serving queue's own: the
    heap's, then — after a promotion triggered from inside the running
    loop — the calendar's.  The facade's delegate is never called."""
    env = Environment()
    sched = env.scheduler
    assert isinstance(sched, AutoScheduler)
    assert env._pop.__self__ is sched._impl  # the heap, before promotion

    def delegate(self):
        raise AssertionError("run loop went through AutoScheduler.pop")

    monkeypatch.setattr(AutoScheduler, "pop", delegate)
    fired = []

    def spawner(env):
        # Cross the promotion threshold mid-run, from inside the loop
        # that holds the heap's pop.
        yield env.timeout(0.5)
        for i in range(sched.promote_at + 8):
            env.timeout(1.0 + i).callbacks.append(
                lambda ev, i=i: fired.append(i))

    env.process(spawner(env))
    env.run(until=sched.promote_at + 1.75)
    assert sched.promotions == 1
    assert env._pop.__self__ is sched._impl  # now the calendar
    assert fired == list(range(sched.promote_at + 1))
    monkeypatch.undo()
    # Direct callers still reach the promoted calendar via the facade.
    assert sched.pop()[0] == sched.promote_at + 2.5

