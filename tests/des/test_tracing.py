"""Tests for kernel event tracing (EventLog)."""

from repro.des import Environment, EventLog, event_kind

from .support import Sleeper, Ticker


def model(env, ticks=5, name="model"):
    return Sleeper(env, [10.0] * ticks, name=name)


def test_event_kind_classification(env):
    t = env.timeout(1)
    assert event_kind(t) == "timeout"
    assert event_kind(model(env, 1)) == "timeout"
    assert event_kind(env.event()) == "event"


def test_event_log_records_processed_events(env):
    log = EventLog(env)
    with log:
        model(env, 5)
        env.timeout(1.0)
        env.run()
    # 5 actor sleeps + 1 timeout.
    assert log.summary() == {"timeout": 6}
    assert len(log) == 6


def test_event_log_times_monotonic(env):
    with EventLog(env) as log:
        model(env, 4)
        env.run()
    times = [e.time for e in log.entries]
    assert times == sorted(times)


def test_event_log_limit_drops_oldest(env):
    log = EventLog(env, limit=3)
    with log:
        model(env, 10)
        env.run()
    assert len(log) == 3
    assert log.dropped > 0
    # Retained entries are the latest ones.
    assert log.entries[-1].time >= log.entries[0].time


def test_event_log_detach_stops_recording(env):
    log = EventLog(env).attach()
    model(env, 2)
    env.run(until=15.0)
    count_attached = len(log)
    log.detach()
    env.run()
    assert len(log) == count_attached


def test_event_log_queries(env):
    with EventLog(env) as log:
        model(env, 5)
        env.run()
    assert all(e.kind == "timeout" for e in log.of_kind("timeout"))
    mid = log.between(15.0, 35.0)
    assert all(15.0 <= e.time <= 35.0 for e in mid)


def test_tracers_do_not_disturb_simulation(env):
    results = []

    def run(traced):
        e = Environment()
        if traced:
            EventLog(e).attach()
        ticker = Ticker(e, 3.0, limit=2)
        e.run()
        results.append(ticker.fired)

    run(False)
    run(True)
    assert results[0] == results[1] == [0.0, 3.0]


def test_process_names_recorded(env):
    """Entries carry the name of the model process (actor) they fire."""
    with EventLog(env) as log:
        model(env, 1, name="my-proc")
        env.run()
    names = {e.name for e in log.of_kind("timeout")}
    assert names == {"my-proc"}
