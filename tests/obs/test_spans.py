"""Unit tests for the tracing core (repro.obs.spans)."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.obs import (
    SIM,
    WALL,
    SpanBatch,
    Tracer,
    current_tracer,
    maybe_span,
    sim_track_pid,
    trace_path_from_env,
    tracing_enabled,
    use_tracing,
    wall_now_us,
)


def test_tracing_is_off_by_default() -> None:
    assert current_tracer() is None
    assert not tracing_enabled()


def test_use_tracing_installs_and_restores() -> None:
    assert current_tracer() is None
    with use_tracing() as tracer:
        assert current_tracer() is tracer
        with use_tracing() as inner:
            assert current_tracer() is inner
        assert current_tracer() is tracer
    assert current_tracer() is None


def test_use_tracing_installs_a_given_tracer() -> None:
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with use_tracing(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
            raise RuntimeError("body failed")
    assert current_tracer() is None


def test_span_context_manager_fills_timing() -> None:
    tracer = Tracer()
    with tracer.span("work", cat="test", args={"k": 1}) as span:
        span.args["extra"] = 2
    assert len(tracer.spans) == 1
    recorded = tracer.spans[0]
    assert recorded.name == "work"
    assert recorded.args == {"k": 1, "extra": 2}
    assert recorded.dur >= 0.0
    assert recorded.domain == WALL
    assert abs(recorded.ts - wall_now_us()) < 60_000_000  # within a minute


def test_span_recorded_even_when_body_raises() -> None:
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    assert [s.name for s in tracer.spans] == ["doomed"]


def test_maybe_span_is_noop_without_tracer() -> None:
    with maybe_span("nothing") as span:
        assert span is None


def test_maybe_span_records_with_tracer() -> None:
    with use_tracing() as tracer:
        with maybe_span("something", cat="c") as span:
            assert span is not None
    assert [s.name for s in tracer.spans] == ["something"]


def test_negative_duration_clamped() -> None:
    tracer = Tracer()
    span = tracer.add_span("x", cat="c", ts=10.0, dur=-5.0)
    assert span.dur == 0.0


def test_sim_track_pid_deterministic_and_clear_of_os_pids() -> None:
    pid = sim_track_pid("now n=4 seed=0 rep=0")
    assert pid == sim_track_pid("now n=4 seed=0 rep=0")
    assert pid != sim_track_pid("now n=4 seed=0 rep=1")
    assert pid >= 0x40000000  # well above real pids


def test_batch_roundtrips_through_pickle() -> None:
    tracer = Tracer(pid=1234, process_name="worker")
    tracer.add_span("s", cat="c", ts=0.0, dur=1.0, tid="t")
    tracer.add_counter("busy", 5.0, {"level": 2.0}, pid=99)
    batch = pickle.loads(pickle.dumps(tracer.batch()))
    assert isinstance(batch, SpanBatch)
    assert batch.pid == 1234
    assert batch.spans[0].name == "s"
    assert batch.counters[0].values == {"level": 2.0}


def test_merge_combines_batches_without_clobbering_names() -> None:
    parent = Tracer(pid=1, process_name="parent")
    worker = Tracer(pid=2, process_name="worker")
    worker.add_span("cell", cat="c", ts=0.0, dur=1.0)
    worker.name_process(1, "impostor")  # must not override parent's name
    parent.merge(worker.batch())
    assert len(parent.spans) == 1
    assert parent.track_names[(1, None)] == "parent"
    assert parent.track_names[(2, None)] == "worker"


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("", None),
        ("0", None),
        ("off", None),
        ("1", "repro-trace.json"),
        ("on", "repro-trace.json"),
        ("/tmp/my-trace.jsonl", "/tmp/my-trace.jsonl"),
    ],
)
def test_trace_path_from_env(raw: str, expected, monkeypatch) -> None:
    monkeypatch.setenv("REPRO_TRACE", raw)
    assert trace_path_from_env() == expected


def test_trace_path_unset(monkeypatch) -> None:
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert trace_path_from_env() is None
