"""Small actors and helpers the kernel tests drive models with.

The kernel runs two kinds of schedule entry: actors, which push
themselves, and events, whose callbacks run when they pop.  These
helpers build test models from both, the way ``repro.rocc`` does.
"""

from repro.des.events import NORMAL, URGENT, Actor


def when(event, callback) -> None:
    """Call ``callback(event)`` once *event* is processed: at once if it
    already is (a store get or put that did not block), else from the
    event's callbacks."""
    if event.callbacks is None:
        callback(event)
    else:
        event.callbacks.append(callback)


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


class Reader(Actor):
    """Reads *n* items from *store* (``None``: forever), sleeping *gap*
    before each read, and logs ``(item, time)`` in :attr:`got`."""

    kind = "timeout"

    def __init__(self, env, store, n=None, gap=0.0, name="reader"):
        self.env = env
        self.store = store
        self.left = n
        self.gap = gap
        self.name = name
        self.got = []
        self._next()

    def _next(self):
        if self.left == 0:
            return
        if self.gap:
            self.env.schedule(self, NORMAL, self.gap)
        else:
            self._fire()

    def _fire(self):
        when(self.store.get(), self._took)

    def _took(self, get):
        self.got.append((get.value, self.env.now))
        if self.left is not None:
            self.left -= 1
        self._next()


class Writer(Actor):
    """Puts *items* into *store* one after another, each once the
    previous one was accepted, and logs ``(item, time accepted)`` in
    :attr:`accepted`."""

    kind = "timeout"

    def __init__(self, env, store, items, delay=0.0, name="writer"):
        self.env = env
        self.store = store
        self.items = list(items)
        self.name = name
        self.accepted = []
        if delay:
            env.schedule(self, NORMAL, delay)
        else:
            self._fire()

    def _fire(self):
        if self.items:
            when(self.store.put(self.items[0]), self._put)

    def _put(self, _put):
        self.accepted.append((self.items.pop(0), self.env.now))
        self._fire()


class Sleeper(Actor):
    """Sleeps through *delays* one after another on its own entry."""

    kind = "timeout"

    def __init__(self, env, delays, name="sleeper"):
        self.env = env
        self.delays = list(delays)
        self.name = name
        self._fire()

    def _fire(self):
        if self.delays:
            self.env.schedule(self, NORMAL, self.delays.pop(0))


def sleep_on_timeouts(env, delays) -> None:
    """The same sleeps as :class:`Sleeper`, as a chain of timeouts."""
    delays = list(delays)

    def woke(_timeout=None):
        if delays:
            env.timeout(delays.pop(0)).callbacks.append(woke)

    woke()
