"""Differential runners: flipped knobs leave results bit-identical."""

import dataclasses
import math

import pytest

from repro.des.queues import CalendarQueue
from repro.rocc import SimulationConfig, simulate
from repro.verify import (
    check_bf_flush_noop,
    check_cache,
    check_event_queue,
    check_watchdog,
    check_workers,
    diff_results,
)
from repro.verify.cli import _differential_config


@pytest.fixture(scope="module")
def small_config():
    return SimulationConfig(nodes=2, duration=600_000.0,
                            sampling_period=20_000.0, seed=5)


@pytest.fixture(scope="module")
def small_results(small_config):
    return simulate(small_config)


def test_diff_results_identical(small_results):
    assert diff_results(small_results, small_results) == []


def test_diff_results_nan_equals_nan(small_results):
    a = dataclasses.replace(small_results, monitoring_latency_total=math.nan)
    b = dataclasses.replace(small_results, monitoring_latency_total=math.nan)
    assert diff_results(a, b) == []


def test_diff_results_reports_changed_field(small_results):
    changed = dataclasses.replace(
        small_results, samples_received=small_results.samples_received + 1
    )
    diffs = diff_results(small_results, changed)
    assert len(diffs) == 1 and diffs[0].startswith("samples_received")


def test_diff_results_honors_ignore(small_results):
    changed = dataclasses.replace(
        small_results, samples_received=small_results.samples_received + 1
    )
    assert diff_results(small_results, changed,
                        ignore=("samples_received",)) == []


def test_event_queue_equivalence(small_config):
    assert check_event_queue(small_config) == []


def test_event_queue_sees_planted_scheduler_fault(monkeypatch):
    """A calendar queue that pops ties in inverted priority order breaks
    the ``(time, priority, seq)`` contract; on the quick battery's
    differential config (which never grows deep enough to promote by
    itself) the check must see it in its forced calendar runs."""
    config = _differential_config(quick=True, seed=0)
    assert check_event_queue(config) == []
    push = CalendarQueue.push

    def inverted(self, entry):
        time, priority, seq, event = entry
        push(self, (time, -priority, seq, event))

    monkeypatch.setattr(CalendarQueue, "push", inverted)
    violations = check_event_queue(config)
    assert violations
    assert {v.invariant for v in violations} == {"differential.event_queue"}
    assert any("from the first push" in v.detail for v in violations)


def test_watchdog_equivalence(small_config):
    assert check_watchdog(small_config) == []


def test_bf_flush_noop(small_config):
    assert check_bf_flush_noop(small_config) == []


def test_cache_roundtrip(small_config, tmp_path):
    assert check_cache(small_config, cache_root=str(tmp_path)) == []


def test_workers_equivalence(small_config):
    assert check_workers(small_config, repetitions=2) == []
