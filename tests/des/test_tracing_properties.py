"""Property tests for the kernel's event tracing (repro.des.tracing).

For any workload and any retention ``limit`` — including the degenerate
``limit=0`` — an :class:`EventLog` must satisfy:

* retained entries are time-monotone (the kernel processes events in
  time order, and the log preserves it);
* ``dropped + len(entries)`` equals the number of events processed
  (counted independently by a second, counting-only tracer);
* at most ``limit`` entries are retained.

The workload is written both with ``hold`` (pooled entries resumed
directly) and with ``timeout`` (recycled events resumed through
callbacks), so both sleep paths feed the tracers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.des.tracing import EventLog


def _workload(env: Environment, delays_per_proc, hold: bool = True) -> None:
    sleep = env.hold if hold else env.timeout

    def proc(delays):
        for d in delays:
            yield sleep(d)

    for delays in delays_per_proc:
        env.process(proc(delays))


@given(
    delays_per_proc=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=8,
        ),
        min_size=1, max_size=5,
    ),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    hold=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_eventlog_conservation_and_monotonicity(
    delays_per_proc, limit, hold
) -> None:
    env = Environment()
    _workload(env, delays_per_proc, hold)
    log = EventLog(env, limit=limit)
    processed = []
    env.add_tracer(lambda event, now: processed.append(now))
    with log:
        env.run(until=10_000.0)

    # Conservation: every processed event was retained or dropped.
    assert log.dropped + len(log.entries) == len(processed)

    # Retention bound.
    if limit is not None:
        assert len(log.entries) <= limit

    # Monotone time.
    times = [e.time for e in log.entries]
    assert times == sorted(times)

    # The retained tail is exactly the most recent events: nothing can
    # be retained from before the drop horizon.
    if log.dropped and log.entries:
        assert log.entries[0].time >= 0.0


def test_eventlog_limit_zero_drops_everything() -> None:
    """limit=0 retains nothing and must not crash (regression: the
    bounded branch used to pop from the empty entries list)."""
    env = Environment()
    _workload(env, [[1.0, 2.0, 3.0]])
    log = EventLog(env, limit=0)
    with log:
        env.run(until=100.0)
    assert log.entries == []
    assert log.dropped > 0


def test_eventlog_equivalent_across_kernel_paths() -> None:
    """The same workload yields the same trace written with ``hold`` and
    with ``timeout``."""
    traces = {}
    for hold in (True, False):
        env = Environment()
        _workload(env, [[5.0, 1.0], [2.0, 2.0, 2.0]], hold)
        log = EventLog(env)
        with log:
            env.run(until=1_000.0)
        traces[hold] = [(e.time, e.kind) for e in log.entries]
    assert traces[True] == traces[False]
