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
from math import inf

import pytest

import repro.des.queues as queues
from repro.des import Environment
from repro.des.queues import AutoScheduler, CalendarQueue, HeapScheduler

#: Every scheduler class, keyed by the ``impl`` name its stats report.
IMPLS = {
    "heap": HeapScheduler,
    "calendar": CalendarQueue,
    "auto": AutoScheduler,
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
        if name == "auto":
            # The facade names the implementation currently serving.
            assert stats["impl"] == "auto(heap)"
        else:
            assert stats["impl"] == name
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
    """The auto scheduler's promotion is a one-way hysteresis latch.

    Drive the schedule depth across the threshold, drain it back to
    (near) empty, and cross the threshold again: exactly one promotion
    happens, and the serving implementation stays the calendar even
    when the schedule is empty again.
    """
    sched = AutoScheduler(promote_at=32)
    assert sched.stats()["impl"] == "auto(heap)"
    seq = 0
    for i in range(40):  # cross the threshold
        sched.push((float(i), 0, seq, None)); seq += 1
    assert sched.promotions == 1
    assert sched.stats()["impl"] == "auto(calendar)"
    while len(sched):  # drain to empty: must NOT demote
        sched.pop()
    assert sched.stats()["impl"] == "auto(calendar)"
    for i in range(40):  # re-cross: no second promotion
        sched.push((100.0 + i, 0, seq, None)); seq += 1
    assert sched.promotions == 1
    # Counter continuity across the promotion.
    stats = sched.stats()
    assert stats["enqueues"] == 80
    assert stats["dequeues"] == 40


def test_auto_promotion_preserves_pop_order():
    """Pop order across the promotion boundary equals the heap oracle.

    The interleaving is tuned so promotion fires mid-stream with a
    partially drained schedule — the exact state the latch hands from
    the heap to the calendar.
    """
    def gaps(rng):
        return rng.choice((0.0, 1.0, rng.expovariate(0.01), inf))

    for seed in range(20):
        sched = AutoScheduler(promote_at=24)
        _drive(sched, random.Random(seed), 600, gaps)
        assert sched.promotions == 1, "threshold never crossed: weak test"


def test_auto_rebinds_environment_push():
    """After promotion the environment enqueues via the calendar
    directly — the delegation tax is paid only while shallow."""
    env = Environment()
    sched = env.scheduler
    assert env._push.__self__ is sched
    for i in range(sched.promote_at + 8):
        env.schedule(Environment.event(env), delay=float(i))
    assert sched.promotions == 1
    assert env._push.__self__ is sched._impl
    # The facade keeps serving pops/stats for the promoted impl.
    env.run(until=4.0)
    assert sched.stats()["impl"] == "auto(calendar)"


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


@pytest.mark.parametrize("var", ["REPRO_DES_FASTPATH", "REPRO_DES_QUEUE"])
def test_removed_variables_raise(var, monkeypatch):
    """The variables that once selected a kernel path or a scheduler
    are rejected by name rather than silently ignored."""
    monkeypatch.setenv(var, "heap")
    with pytest.raises(ValueError, match=f"{var} was removed"):
        Environment()
    monkeypatch.delenv(var)
    assert Environment().scheduler.stats()["impl"] == "auto(heap)"
