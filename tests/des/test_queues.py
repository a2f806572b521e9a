"""Kernel scheduler phases: pop-order identity with the heap oracle.

The schedule key ``(time, priority, seq)`` is a total order, so the
heap, the calendar queue and the auto scheduler that promotes from one
to the other must pop the exact same sequence as ``heapq``.  The fuzz
here drives each implementation against a shadow heap through
adversarial interleavings; the width/multiple grid deliberately lands
event times *exactly* on bucket-window edges computed in float
arithmetic — the calendar-queue misrouting class where ``int(t/width)``
floors into the window just served and the entry is shelved for a whole
calendar lap.
"""

import heapq
import random
from functools import partial
from math import inf

import pytest

import repro.des.queues as queues
from repro.des import Environment
from repro.des.queues import CalendarQueue


class EnvSchedule:
    """An environment's schedule driven one entry at a time.

    Pushes go through ``env._push`` and each entry must carry the next
    id of ``env._eid``, as every kernel entry does; each pop takes the
    event boundary the run loop takes (promote once the heap is
    ``promote_at`` deep, then ``env._pop``).
    """

    def __init__(self, promote_at=queues._PROMOTE_AT):
        self.env = Environment()
        self.scheduler = self.env.scheduler
        self.scheduler.promote_at = promote_at

    def push(self, entry):
        assert entry[2] == next(self.env._eid)
        self.env._push(entry)

    def pop(self):
        sched = self.scheduler
        if len(sched.heap) >= sched.promote_at:
            self.env._promote()
        return self.env._pop()

    def __len__(self):
        return len(self.env)

    def peek_time(self):
        return self.env.peek()

    def smallest(self, k):
        return self.scheduler.smallest(k)

    def stats(self):
        return self.scheduler.stats()


#: Every scheduler phase, keyed by test id: an environment pinned to
#: its heap, the bare calendar queue, and an environment that promotes
#: mid-stream.
IMPLS = {
    "heap": partial(EnvSchedule, inf),
    "calendar": CalendarQueue,
    "auto": partial(EnvSchedule, 24),
}


def _drive(sched, rng, ops, gaps):
    """Random push/pop interleaving mirrored onto a shadow heap.

    Pushes respect kernel monotonicity (never below the time of the
    last pop); pop results must match the shadow exactly.
    """
    shadow = []
    seq = 0
    now = 0.0
    for _ in range(ops):
        if shadow and rng.random() < 0.45:
            expected = heapq.heappop(shadow)
            got = sched.pop()
            assert got == expected
            if expected[0] != inf:
                now = expected[0]
        else:
            gap = gaps(rng)
            t = inf if gap == inf else now + gap
            entry = (t, rng.choice((0, 1)), seq, None)
            seq += 1
            heapq.heappush(shadow, entry)
            sched.push(entry)
        assert len(sched) == len(shadow)
    while shadow:
        assert sched.pop() == heapq.heappop(shadow)
    with pytest.raises(IndexError):
        sched.pop()


@pytest.mark.parametrize("name", sorted(IMPLS))
def test_pop_order_matches_heap_oracle(name):
    def gaps(rng):
        return rng.choice((
            0.0, 0.0, 1.0, 4.545454545454546, 7.25,
            rng.expovariate(0.05), rng.random() * 1e6, inf,
        ))

    for seed in range(20):
        _drive(IMPLS[name](), random.Random(seed), 500, gaps)


@pytest.mark.parametrize("width", [1.0, 100.0 / 22.0, 0.1, 3.0, 1e4])
def test_calendar_exact_window_edges(width):
    """Times sitting exactly on ``k * width`` float products.

    Regression for the horizon-edge misroute: with the window ``k``
    defined as ``[k*width, (k+1)*width)``, a push at exactly the
    current horizon must land in the *next* window, not floor into the
    one just served.
    """
    rng = random.Random(1234)

    def gaps(rng):
        # Steps of exact window multiples keep landing the schedule on
        # k*width edges as `now` advances.
        return rng.choice((0.0, width, width, 2.0 * width, width * 0.5))

    for seed in range(10):
        _drive(CalendarQueue(width=width), random.Random(seed), 400, gaps)

    # Direct edge shape: activate a window, then push exactly at its end.
    cq = CalendarQueue(width=width)
    cq.push((width * 31.0, 0, 0, None))
    assert cq.pop()[0] == width * 31.0   # horizon is now width * 32
    cq.push((width * 48.0, 0, 1, None))  # far entry forcing a lap/jump
    cq.push((width * 32.0, 0, 2, None))  # exactly on the horizon
    assert cq.pop()[0] == width * 32.0
    assert cq.pop()[0] == width * 48.0


def test_calendar_resize_keeps_order():
    """Enough churn to force occupancy resizes and width adaptation."""
    def gaps(rng):
        return rng.expovariate(1.0) * rng.choice((1e-3, 1.0, 1e3))

    for seed in range(5):
        sched = CalendarQueue()
        _drive(sched, random.Random(seed), 3000, gaps)
        assert sched.resizes > 0


def test_stats_shape_and_counts():
    for name, cls in IMPLS.items():
        sched = cls()
        for i in range(10):
            sched.push((float(i), 0, i, None))
        for _ in range(4):
            sched.pop()
        stats = sched.stats()
        if name == "calendar":
            assert stats["impl"] == name
        else:
            # An environment names the phase currently serving.
            assert stats["impl"] == "auto(heap)"
        assert stats["enqueues"] == 10
        assert stats["dequeues"] == 4
        assert set(stats) == {
            "impl", "enqueues", "dequeues", "resizes", "max_bucket",
        }


def test_smallest_and_peek():
    for cls in IMPLS.values():
        sched = cls()
        assert sched.peek_time() == inf
        for i, t in enumerate((5.0, 1.0, 3.0, inf)):
            sched.push((t, 0, i, None))
        assert sched.peek_time() == 1.0
        assert [e[0] for e in sched.smallest(3)] == [1.0, 3.0, 5.0]


def test_auto_promotes_once_and_never_demotes():
    """The promotion is a one-way hysteresis latch.

    Drive the schedule depth across the threshold, drain it to empty,
    and cross the threshold again: exactly one promotion happens, and
    the serving phase stays the calendar even when the schedule is
    empty again.  The id-derived counters continue across it.
    """
    env = Environment()
    sched = env.scheduler
    sched.promote_at = 32
    for i in range(40):  # cross the threshold
        env.timeout(float(i))
    assert sched.stats()["impl"] == "auto(heap)"
    env.run()  # promotes at the first event boundary, then drains
    assert sched.promotions == 1
    assert sched.stats()["impl"] == "auto(calendar)"
    assert len(env) == 0
    for i in range(40):  # re-cross: no second promotion
        env.timeout(float(i))
    env.run()
    assert sched.promotions == 1
    assert sched.heap == []
    stats = sched.stats()
    assert stats["enqueues"] == 80
    assert stats["dequeues"] == 80


def test_auto_promotion_preserves_pop_order():
    """Pop order across the promotion boundary equals the heap oracle.

    The interleaving is tuned so promotion fires mid-stream with a
    partially drained schedule — the exact state the latch hands from
    the heap to the calendar.
    """
    def gaps(rng):
        return rng.choice((0.0, 1.0, rng.expovariate(0.01), inf))

    for seed in range(20):
        sched = EnvSchedule(promote_at=24)
        _drive(sched, random.Random(seed), 600, gaps)
        assert sched.scheduler.promotions == 1, "threshold never crossed: weak test"


def test_auto_rebinds_environment_push():
    """The environment enqueues and dequeues through ``heapq`` partials
    over the heap list while shallow, and through the calendar's own
    methods after the promotion: no delegating frame on either side."""
    env = Environment()
    sched = env.scheduler
    for cached, func in ((env._push, heapq.heappush), (env._pop, heapq.heappop)):
        assert cached.func is func and cached.args == (sched.heap,)
    for i in range(sched.promote_at + 8):
        env.timeout(float(i))
    # Pushes alone never promote: the run loop does, at an event boundary.
    assert sched.promotions == 0
    assert len(sched.heap) == sched.promote_at + 8
    env.run(until=4.0)
    assert sched.promotions == 1
    assert env._push.__self__ is sched.calendar
    assert env._pop.__self__ is sched.calendar
    assert sched.stats()["impl"] == "auto(calendar)"


def _promotion_trajectory(promote_at, where):
    """Log of (time, tag) for a model whose schedule deepens past
    *promote_at*: 300 timeouts pushed before ``run()``
    (``before_run``), or bursts of 80 pushed from a process
    (``in_callbacks``, and ``step``: the same under an armed watchdog)."""
    env = Environment()
    env.scheduler.promote_at = promote_at
    rng = random.Random(7)
    log = []

    def note(event):
        log.append((env.now, event.value))

    def spray(n, base):
        for i in range(n):
            delay = rng.choice((0.0, 1.0, 2.5, rng.random() * 50.0))
            env.timeout(delay, value=base + i).callbacks.append(note)

    def spawner(env):
        for burst in range(5):
            yield env.timeout(1.0)
            spray(80, 1000 * burst)

    if where == "before_run":
        spray(300, 0)
    else:
        env.process(spawner(env))
    promoted_before_run = env.scheduler.promotions
    if where == "step":
        env.run(max_events=1_000_000)
    else:
        env.run()
    return log, promoted_before_run, env.scheduler.stats()


@pytest.mark.parametrize("where", ["before_run", "in_callbacks", "step"])
def test_run_loop_promotion_gives_the_heap_only_pop_order(where):
    ref, _, ref_stats = _promotion_trajectory(inf, where)
    log, promoted_before_run, stats = _promotion_trajectory(64, where)
    assert ref_stats["impl"] == "auto(heap)"
    assert stats["impl"] == "auto(calendar)"
    assert promoted_before_run == 0
    assert len(log) >= 300
    assert log == ref
    assert stats["enqueues"] == ref_stats["enqueues"]


def test_dequeues_equal_events_processed():
    """``stats()["dequeues"]`` counts exactly the events the loop
    processed (every processed entry is seen by a tracer), on the heap
    and across a promotion, armed and unarmed."""
    for promote_at in (inf, 16):
        for watchdog in (False, True):
            env = Environment()
            env.scheduler.promote_at = promote_at
            seen = []
            env.add_tracer(lambda event, now: seen.append(event))

            def proc(env, period):
                while env.now < 40.0:
                    yield env.timeout(period)
                    yield env.hold(period)

            for k in range(20):
                env.process(proc(env, 1.0 + k * 0.25))
            kw = {"max_events": 10**6} if watchdog else {}
            env.run(until=50.0, **kw)
            stats = env.scheduler.stats()
            assert stats["dequeues"] == len(seen) > 0
            assert stats["enqueues"] == len(seen) + len(env)
            assert stats["impl"] == (
                "auto(heap)" if promote_at == inf else "auto(calendar)")


@pytest.mark.parametrize("name", sorted(IMPLS))
def test_kernel_run_identical_across_schedulers(name, monkeypatch):
    """A small model follows the same trajectory on a default
    environment (``auto``), on one promoted to the calendar queue at its
    first push, and on one pinned to the heap, as on the heap-pinned
    reference."""
    promote_at = {"heap": inf, "calendar": 1, "auto": queues._PROMOTE_AT}

    def trajectory(promote_at):
        monkeypatch.setattr(queues, "_PROMOTE_AT", promote_at)
        env = Environment()
        log = []

        def ticker(env, period, tag):
            while env.now < 50.0:
                yield env.timeout(period)
                log.append((env.now, tag))

        env.process(ticker(env, 3.0, "a"))
        env.process(ticker(env, 7.0, "b"))
        env.run(until=50.0)
        return log, env.scheduler.stats()["impl"]

    log, impl = trajectory(promote_at[name])
    assert impl == ("auto(calendar)" if name == "calendar" else "auto(heap)")
    assert log == sorted(log, key=lambda x: x[0])
    ref, _ = trajectory(inf)
    assert log == ref


@pytest.mark.parametrize(
    "var", ["REPRO_DES_FASTPATH", "REPRO_DES_QUEUE", "REPRO_PROFILE",
            "REPRO_DES_PARALLEL"])
def test_removed_variables_raise(var, monkeypatch):
    """The variables that once selected a kernel path, a scheduler,
    kernel profiling or in-cell parallelism are rejected by name rather
    than silently ignored."""
    monkeypatch.setenv(var, "heap")
    with pytest.raises(ValueError, match=f"{var} was removed"):
        Environment()
    monkeypatch.delenv(var)
    assert Environment().scheduler.stats()["impl"] == "auto(heap)"
