"""Tests for the Environment.run watchdog (SimulationStalled)."""

import pytest

from repro.des import Environment, EventLog, SimulationStalled


def _spinner(env):
    while True:
        yield env.timeout(0)


def test_max_events_raises_and_names_blocked_process():
    env = Environment()
    env.process(_spinner(env), name="spinner")
    with pytest.raises(SimulationStalled) as excinfo:
        env.run(until=10.0, max_events=1000)
    exc = excinfo.value
    assert "spinner" in exc.blocked
    assert "spinner" in str(exc)
    assert exc.events_processed == 1000
    assert exc.now == 0.0  # zero-delay loop never advances the clock


def test_max_events_is_not_triggered_by_healthy_run():
    env = Environment()

    def worker(env):
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(worker(env), name="worker")
    env.run(until=10.0, max_events=100_000)
    assert env.now == 10.0


def test_max_wall_seconds_aborts_livelock():
    env = Environment()
    env.process(_spinner(env), name="hog")
    with pytest.raises(SimulationStalled) as excinfo:
        env.run(until=10.0, max_wall_seconds=0.05)
    assert excinfo.value.events_processed > 0
    assert "max_wall_seconds" in str(excinfo.value)


def test_watchdog_parameter_validation():
    env = Environment()
    with pytest.raises(ValueError):
        env.run(until=1.0, max_events=0)
    with pytest.raises(ValueError):
        env.run(until=1.0, max_wall_seconds=0.0)


def test_watchdog_off_by_default():
    env = Environment()
    env.process((env.timeout(1.0) for _ in range(1)), name="one")
    env.run(until=5.0)
    assert env.now == 5.0


def test_stalled_through_simulation_config():
    """SimulationConfig.max_events flows through to the kernel watchdog."""
    from repro.rocc import SimulationConfig, simulate

    cfg = SimulationConfig(
        nodes=1,
        duration=1_000_000.0,
        include_pvmd=False,
        include_other=False,
        max_events=50,
    )
    with pytest.raises(SimulationStalled):
        simulate(cfg)
    # A sane budget completes fine.
    ok = simulate(cfg.with_(max_events=5_000_000))
    assert ok.samples_received > 0


@pytest.mark.parametrize("max_events", [1023, 1024, 1025])
def test_max_events_lands_exactly_across_a_chunk_boundary(max_events):
    """The armed run dispatches in chunks; the last one is cut so the
    watchdog fires after exactly ``max_events`` events."""
    env = Environment()
    env.process(_spinner(env), name="spinner")
    with EventLog(env) as log:
        with pytest.raises(SimulationStalled) as excinfo:
            env.run(until=10.0, max_events=max_events)
    assert excinfo.value.events_processed == max_events
    assert len(log.entries) == max_events


def _ticks(env, n):
    for _ in range(n):
        yield env.timeout(1.0)


@pytest.mark.parametrize("total", [1024, 2048])
@pytest.mark.parametrize(
    "watchdog", [{"max_events": 10**6}, {"max_wall_seconds": 1e6}]
)
def test_run_ending_on_a_chunk_boundary_returns_normally(total, watchdog):
    # One initialize event, n timeouts and the process's own completion.
    env = Environment()
    env.process(_ticks(env, total - 2), name="ticks")
    with EventLog(env) as log:
        assert env.run(**watchdog) is None
    assert len(log.entries) == total
    assert env.now == total - 2


def test_step_processes_exactly_one_event_across_a_promotion():
    env = Environment()
    env.scheduler.promote_at = 8
    for i in range(20):
        env.timeout(float(i))
    with EventLog(env) as log:
        env.step()  # the heap is 20 deep: this step promotes first
        assert env.scheduler.promotions == 1
        assert [e.time for e in log.entries] == [0.0]
        env.step()
        assert [e.time for e in log.entries] == [0.0, 1.0]


@pytest.mark.parametrize("max_events", [None, 10])
def test_stale_pop_retry_after_nested_promotion_is_not_an_event(max_events):
    """A nested step() that promotes empties the heap under the running
    loop's pop; the loop's retry dequeues the next event without
    spending a slot of its budget."""
    env = Environment()
    env.scheduler.promote_at = 8

    def spray(event):
        for i in range(20):
            env.timeout(0.5 + i)
        env.step()  # promotes, then processes the timeout at t=1

    env.timeout(0.5).callbacks.append(spray)
    with EventLog(env) as log:
        if max_events is None:
            env.run()
        else:
            with pytest.raises(SimulationStalled) as excinfo:
                env.run(max_events=max_events)
            assert excinfo.value.events_processed == max_events
    assert env.scheduler.promotions == 1
    # The nested step's event is logged but not counted by the run.
    expected = 21 if max_events is None else max_events + 1
    times = [0.5] + [1.0 + i for i in range(expected - 1)]
    assert [e.time for e in log.entries] == times


def _eight_ticks(env):
    # One initialize event, 8 one-µs timeouts and the process's own
    # completion: a schedule of exactly 10 events, ending at t=8.
    for _ in range(8):
        yield env.timeout(1.0)


def test_max_events_equal_to_the_whole_schedule_returns():
    env = Environment()
    env.process(_eight_ticks(env), name="ticks")
    with EventLog(env) as log:
        assert env.run(max_events=10) is None
    assert len(log.entries) == 10
    assert env.now == 8.0


def test_max_events_one_short_of_the_schedule_still_stalls():
    env = Environment()
    env.process(_eight_ticks(env), name="ticks")
    with pytest.raises(SimulationStalled) as excinfo:
        env.run(max_events=9)
    assert excinfo.value.events_processed == 9
    assert "exceeded max_events=9" in str(excinfo.value)
