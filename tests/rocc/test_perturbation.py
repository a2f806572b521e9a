"""Tests for the perturbation-analysis module."""

import pytest

from repro.rocc import PerturbationReport, SimulationConfig, simulate


def cfg(**kw):
    base = dict(nodes=2, duration=2_000_000.0, sampling_period=20_000.0,
                batch_size=1, seed=61)
    base.update(kw)
    return SimulationConfig(**base)


def report_for(config):
    """The report of *config* run with and without instrumentation on
    common random numbers, as the ``perturbation`` artifact builds it."""
    return PerturbationReport(
        instrumented=simulate(config),
        baseline=simulate(config.with_(instrumented=False)),
    )


def test_report_fields_consistent():
    report = report_for(cfg())
    assert report.baseline.samples_generated == 0
    assert report.instrumented.samples_generated > 0
    assert 0 <= report.app_progress_ratio <= 1.001
    assert report.slowdown_percent == pytest.approx(
        100 * (1 - report.app_progress_ratio)
    )


def test_light_instrumentation_perturbs_little():
    report = report_for(cfg(sampling_period=100_000.0, batch_size=32))
    assert report.slowdown_percent < 2.0


def test_heavy_instrumentation_perturbs_more():
    light = report_for(cfg(sampling_period=100_000.0, batch_size=32))
    heavy = report_for(cfg(sampling_period=1_000.0, batch_size=1))
    assert heavy.slowdown_percent > light.slowdown_percent
    assert heavy.slowdown_percent > 2.0


def test_bf_perturbs_less_than_cf():
    cf = report_for(cfg(sampling_period=2_000.0, batch_size=1))
    bf = report_for(cfg(sampling_period=2_000.0, batch_size=32))
    assert bf.slowdown_percent < cf.slowdown_percent


def test_indirect_component_from_pipe_blocking():
    """A tiny pipe at a fast sampling rate adds indirect perturbation
    (the app blocks on writes) beyond the direct CPU theft."""
    blocked = report_for(
        cfg(sampling_period=1_000.0, pipe_capacity=4, duration=3_000_000.0)
    )
    roomy = report_for(
        cfg(sampling_period=1_000.0, pipe_capacity=10_000,
            duration=3_000_000.0)
    )
    assert blocked.instrumented.pipe_blocked_puts > 0
    assert blocked.slowdown_percent > roomy.slowdown_percent


def test_summary_renders():
    report = report_for(cfg())
    text = report.summary()
    assert "slowdown" in text and "direct" in text and "indirect" in text


def test_paper_motivating_range_reachable():
    """§1: instrumentation degrades applications '10% to more than 50%'
    in measurement studies — aggressive settings reproduce that order."""
    report = report_for(
        cfg(sampling_period=500.0, batch_size=1, duration=3_000_000.0,
            app_processes_per_node=2)
    )
    assert report.slowdown_percent > 8.0
