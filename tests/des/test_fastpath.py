"""Kernel fast-path tests: holds and event pooling.

The optimizations under test here (``Environment.hold``, the Hold and
Timeout free lists, the inlined ``_run_inner`` dispatch loop) promise
*exact* equivalence with a plain-timeout formulation — same event
order, same clock, same values — so most tests assert behaviour
identical to one, plus the object-identity facts (recycling) that make
the fast path fast.
"""

import pytest

from repro.des import Environment, Interrupt, SimulationStalled, Timeout
from repro.des.core import _POOL_LIMIT
from repro.des.events import HOLD_COMPLETED, Hold


@pytest.fixture
def env():
    return Environment()


# ----------------------------------------------------------------------
# Hold semantics
# ----------------------------------------------------------------------
def test_hold_advances_clock_like_timeout(env):
    log = []

    def proc(env):
        yield env.hold(10)
        log.append(env.now)
        yield env.hold(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [10.0, 12.5]


def test_hold_returns_sentinel_inside_process(env):
    seen = []

    def proc(env):
        seen.append(env.hold(1))
        yield seen[-1]

    env.process(proc(env))
    env.run()
    assert seen == [HOLD_COMPLETED]


def test_hold_outside_process_falls_back_to_timeout(env):
    ev = env.hold(5.0)
    assert isinstance(ev, Timeout)
    env.run()
    assert env.now == 5.0


def test_hold_negative_delay_rejected(env):
    def proc(env):
        with pytest.raises(ValueError):
            env.hold(-1)
        yield env.hold(1)

    env.process(proc(env))
    env.run()


def test_holds_interleave_with_timeouts_fifo(env):
    """Same-time holds and timeouts fire in scheduling order (eid ties)."""
    log = []

    def holder(env, name):
        yield env.hold(10)
        log.append(name)

    def sleeper(env, name):
        yield env.timeout(10)
        log.append(name)

    env.process(holder(env, "a"))
    env.process(sleeper(env, "b"))
    env.process(holder(env, "c"))
    env.run()
    assert log == ["a", "b", "c"]


# ----------------------------------------------------------------------
# Pool recycling
# ----------------------------------------------------------------------
def test_hold_objects_are_recycled(env):
    def proc(env):
        for _ in range(5):
            yield env.hold(1)

    env.process(proc(env))
    env.run()
    # One hold in flight at a time -> the free list stabilizes at one
    # instance, reused for every subsequent sleep.
    assert len(env._hold_pool) == 1


def test_hold_pool_is_capped(env):
    def proc(env):
        yield env.hold(1)

    for _ in range(_POOL_LIMIT + 50):
        env.process(proc(env))
    env.run()
    assert len(env._hold_pool) <= _POOL_LIMIT


def test_timeout_objects_are_recycled(env):
    holder = {}

    def a(env):
        t = env.timeout(1)
        holder["first"] = t
        yield t

    def b(env):
        yield env.timeout(2)
        # a's timeout fired (and was pooled) at t=1; the sleep created
        # here at t=2 reuses that exact instance, fully reset.
        holder["reused"] = env.timeout(1, value="v")

    env.process(a(env))
    env.process(b(env))
    env.run()
    assert holder["reused"] is holder["first"]
    assert holder["reused"]._value == "v"


def test_condition_constituent_timeouts_are_not_recycled(env):
    """A timeout inside ``a | b`` is re-inspected after processing (its
    value lands in the condition result), so it must never be pooled."""

    def proc(env):
        t = env.timeout(5, value="x")
        other = env.event()
        result = yield t | other
        assert result[t] == "x"
        assert t._value == "x"

    env.process(proc(env))
    env.run()
    assert env._timeout_pool == []


# ----------------------------------------------------------------------
# Interrupts (S4: stale state must not leak through the pools)
# ----------------------------------------------------------------------
def test_interrupt_during_hold(env):
    log = []

    def worker(env):
        try:
            yield env.hold(100)
            log.append("completed")
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))
            yield env.hold(10)
            log.append(("resumed", env.now))

    def canceller(env, victim):
        yield env.hold(30)
        victim.interrupt("stop")

    victim = env.process(worker(env))
    env.process(canceller(env, victim))
    env.run()
    assert log == [("interrupted", 30.0, "stop"), ("resumed", 40.0)]
    # The orphaned heap entry for the cancelled hold was processed (and
    # recycled) without resuming anyone.
    assert env.now == 100.0


def test_interrupted_timeout_reuse_does_not_leak_stale_state(env):
    """A timeout abandoned by an interrupt is pooled once it fires; the
    instance that later reuses it must not deliver the stale value or
    resume the interrupted process a second time."""
    log = []
    stale = {}

    def worker(env):
        t = env.timeout(10, value="stale")
        stale["t"] = t
        try:
            yield t
            log.append("wrong: timeout delivered")
        except Interrupt:
            log.append("interrupted")
            got = yield env.event() | env.timeout(50, value="fresh")
            log.append(sorted(got.values()))

    def canceller(env, victim):
        yield env.hold(5)
        victim.interrupt()

    victim = env.process(worker(env))
    env.process(canceller(env, victim))

    # Run past t=10: the abandoned timeout fires with no waiters left
    # (the interrupt detached the worker's resume callback) and is
    # recycled into the pool.
    env.run(until=20.0)
    assert log == ["interrupted"]
    assert stale["t"] in env._timeout_pool
    assert stale["t"].processed  # stale reference still looks processed

    # Reuse the pooled instance for an unrelated sleep.
    fresh = env.timeout(1, value="other")
    assert fresh is stale["t"]
    assert fresh._value == "other"
    assert fresh.callbacks == []

    env.run()
    # The worker saw only its own fresh timeout, never the stale value.
    assert log == ["interrupted", ["fresh"]]


def test_failed_event_semantics_survive_fastpath(env):
    caught = []

    def proc(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))
        yield env.hold(1)

    ev = env.event()
    env.process(proc(env, ev))
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


# ----------------------------------------------------------------------
# Stall diagnostics (S1)
# ----------------------------------------------------------------------
def test_stalled_watchdog_names_processes_parked_on_holds(env):
    def sleeper(env):
        while True:
            yield env.hold(1.0)

    env.process(sleeper(env), name="hot-sleeper")
    with pytest.raises(SimulationStalled) as exc_info:
        env.run(max_events=10)
    assert "hot-sleeper" in exc_info.value.blocked
    assert "hot-sleeper" in str(exc_info.value)


# ----------------------------------------------------------------------
# Equivalence with the plain-timeout reference
# ----------------------------------------------------------------------
def test_fastpath_and_generic_produce_identical_traces():
    """The same model written with ``hold`` and with ``timeout`` yields
    the same event history (kind, time), the same wake-up order (ties
    included) and final state, and matches the reference kernel (every
    hold a timeout, nothing recycled)."""
    from repro.des import EventLog

    from ..kernel_reference import run_both

    def model(sleep):
        env = Environment()
        woke = []

        def app(env, tag, period, n):
            for _ in range(n):
                yield sleep(env, period)
                woke.append((env.now, tag))

        def poller(env):
            while True:
                yield env.timeout(7.0)
                woke.append((env.now, "poller"))

        env.process(app(env, "app", 3.0, 10))
        env.process(app(env, "app2", 5.0, 6))
        env.process(poller(env))
        with EventLog(env) as log:
            env.run(until=30.0)
        return [(e.time, e.kind) for e in log.entries], woke, env.now

    held, reference, calls = run_both(lambda: model(Environment.hold))
    assert calls > 0
    assert held == reference == model(Environment.timeout)
