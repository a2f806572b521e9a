"""Tests for replication / sweep utilities."""

import math
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments import MeanResults, metric_series, replicate, sweep
from repro.experiments.runners import mean
from repro.rocc import SimulationConfig


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(nodes=1, duration=400_000.0, sampling_period=20_000.0,
                            seed=5)


def test_replicate_runs_independent_reps(cfg):
    res = replicate(cfg, repetitions=3)
    assert len(res.results) == 3
    values = res.raw("pd_cpu_time_per_node")
    assert len(set(values)) == 3  # distinct random streams


def test_replicate_validation(cfg):
    with pytest.raises(ValueError):
        replicate(cfg, repetitions=0)


def test_mean_results_averages(cfg):
    res = replicate(cfg, repetitions=3)
    assert res.pd_cpu_time_per_node == pytest.approx(
        statistics.mean(res.raw("pd_cpu_time_per_node"))
    )


def test_mean_results_passthrough_non_numeric(cfg):
    res = replicate(cfg, repetitions=2)
    assert res.nodes == 1
    assert "n=1" in res.config_summary


def test_mean_results_derived_properties(cfg):
    res = replicate(cfg, repetitions=2)
    assert res.pd_cpu_seconds_per_node == pytest.approx(
        res.pd_cpu_time_per_node / 1e6
    )
    assert res.monitoring_latency_forwarding_ms == pytest.approx(
        res.monitoring_latency_forwarding / 1e3
    )


def test_mean_results_skips_nan(cfg):
    # batch too large to complete -> latency NaN in each rep.
    res = replicate(cfg.with_(batch_size=1000), repetitions=2)
    assert res.monitoring_latency_forwarding != res.monitoring_latency_forwarding


def test_sweep_varies_parameter(cfg):
    runs = sweep(cfg, "sampling_period", [10_000.0, 40_000.0], repetitions=1)
    assert len(runs) == 2
    thr = metric_series(runs, "throughput_per_daemon")
    assert thr[0] > thr[1]  # faster sampling, more samples


def test_sweep_rejects_unknown_parameter(cfg):
    with pytest.raises(ValueError):
        sweep(cfg, "no_such_knob", [1, 2])


def test_sweep_aggregated_mode(cfg):
    from repro.rocc import Architecture

    mpp = cfg.with_(architecture=Architecture.MPP, nodes=16)
    runs = sweep(mpp, "batch_size", [1, 8], repetitions=1, aggregated=True)
    assert runs[0].nodes == 16
    assert runs[0].pd_cpu_time_per_node > runs[1].pd_cpu_time_per_node


def test_mean_results_unknown_attribute_raises_attribute_error(cfg):
    res = replicate(cfg, repetitions=1)
    with pytest.raises(AttributeError):
        res.no_such_metric
    assert not hasattr(res, "no_such_metric")  # must not raise IndexError


def test_mean_results_dunder_probes_do_not_recurse(cfg):
    import copy
    import pickle

    res = replicate(cfg, repetitions=1)
    # copy/pickle probe dunders like __deepcopy__/__getstate__ through
    # getattr; a broken __getattr__ would recurse or raise IndexError.
    clone = copy.deepcopy(res)
    assert clone.nodes == res.nodes
    restored = pickle.loads(pickle.dumps(res))
    assert restored.nodes == res.nodes


def test_common_random_numbers_across_levels(cfg):
    """Two sweeps differing only in policy share replication streams, so
    the app workload realization is identical (CRN variance reduction)."""
    a = replicate(cfg.with_(batch_size=1), repetitions=1)
    b = replicate(cfg.with_(batch_size=8), repetitions=1)
    assert a.results[0].samples_generated == b.results[0].samples_generated


def test_mean_ci_matches_confidence_helper(cfg):
    from repro.expdesign import mean_confidence_interval

    res = replicate(cfg, repetitions=3)
    ci = res.mean_ci("pd_cpu_time_per_node")
    expected = mean_confidence_interval(res.raw("pd_cpu_time_per_node"))
    assert ci.mean == pytest.approx(expected.mean)
    assert ci.low == pytest.approx(expected.low)
    assert ci.high == pytest.approx(expected.high)
    assert ci.n == 3


def test_mean_ci_excludes_nan_reps(cfg):
    # One rep per value of a metric that is NaN in every rep would fail;
    # mix finite and NaN by combining different batch sizes manually.
    finite = replicate(cfg, repetitions=3)
    nan_rep = replicate(cfg.with_(batch_size=1000), repetitions=1)
    combined = MeanResults(finite.results + nan_rep.results)
    ci = combined.mean_ci("monitoring_latency_forwarding")
    assert ci.n == 3  # the NaN rep dropped out


def test_mean_ci_degenerate_without_two_finite_reps(cfg):
    res = replicate(cfg.with_(batch_size=1000), repetitions=2)
    ci = res.mean_ci("monitoring_latency_forwarding")
    assert ci.degenerate and ci.n == 0
    assert ci.relative_half_width == float("inf")


def test_mean_results_fully_failed_cell_degrades_to_nan():
    """strict=False can hand a sweep a cell with zero successful reps:
    numeric means must degrade to NaN, not crash."""
    from repro.experiments.engine import CellError

    err = CellError(config_summary="now n=2 b=1 rep=0", error="boom",
                    traceback="...")
    res = MeanResults([], [err])
    assert res.pd_cpu_time_per_node != res.pd_cpu_time_per_node  # NaN
    assert res.errors == [err]


def test_mean_results_fully_failed_cell_clear_attribute_error():
    res = MeanResults([])
    with pytest.raises(AttributeError, match="all replications failed"):
        res.config_summary
    # Protocol probes still raise plain AttributeError, not IndexError.
    with pytest.raises(AttributeError):
        res.__deepcopy__


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(_finite, min_size=1))
def test_mean_is_bit_identical_to_statistics_mean(values):
    assert mean(values) == statistics.mean(values)


@given(st.lists(st.one_of(_finite, st.sampled_from([math.nan, math.inf, -math.inf])),
                min_size=1))
def test_mean_matches_statistics_mean_on_nan_and_inf(values):
    expected = statistics.mean(values)
    got = mean(values)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_mean_of_nothing_raises():
    with pytest.raises(ValueError):
        mean([])
