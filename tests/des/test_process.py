"""Model processes are actors: an exception raised in one propagates
out of the run, and one actor can wait on an event another triggers."""

import pytest

from repro.des import Environment
from repro.des.events import NORMAL, Actor


class Raiser(Actor):
    """Raises from its handler the first time it fires."""

    kind = "timeout"

    def __init__(self, env):
        self.name = "raiser"
        env.schedule(self, NORMAL, 1.0)

    def _fire(self):
        raise KeyError("inner")


def test_exception_in_process_propagates():
    env = Environment()
    Raiser(env)
    with pytest.raises(KeyError):
        env.run()


class Consumer(Actor):
    """Waits on an event with one of its bound methods; an actor is
    scheduled only for its own requests, so waiting costs no entry."""

    kind = "event"

    def __init__(self, env, event, log):
        self.name = "consumer"
        self.env = env
        self.log = log
        event.callbacks.append(self._woken)

    def _woken(self, event):
        self.log.append((self.env.now, event.value))


def test_two_processes_communicate_via_event():
    env = Environment()
    log = []
    ev = env.event()
    Consumer(env, ev, log)
    # A producer: three time units of sleep, then it triggers the event.
    env.timeout(3).callbacks.append(lambda _t: ev.succeed("payload"))
    env.run()
    assert log == [(3.0, "payload")]
