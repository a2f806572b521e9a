"""Tests for per-cell fault isolation in replicate / sweep: an engine
built with ``strict=False`` returns a failed cell as a ``CellError``."""

import pytest

from repro.des import SimulationStalled
from repro.experiments import (
    CellError,
    ExperimentEngine,
    MeanResults,
    replicate,
    sweep,
)
from repro.rocc import SimulationConfig


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(
        nodes=1,
        duration=400_000.0,
        sampling_period=20_000.0,
        include_pvmd=False,
        include_other=False,
        seed=5,
    )


def test_isolated_replicate_captures_watchdog_abort(cfg):
    bad = cfg.with_(max_events=10)  # every rep hits the watchdog
    res = replicate(bad, repetitions=2, engine=ExperimentEngine(strict=False))
    assert res.results == []
    assert len(res.errors) == 2
    assert all(isinstance(e, CellError) for e in res.errors)
    assert "SimulationStalled" in res.errors[0].error
    assert "SimulationStalled" in res.errors[0].traceback


def test_unisolated_replicate_propagates(cfg):
    with pytest.raises(SimulationStalled):
        replicate(cfg.with_(max_events=10), repetitions=2)


def test_sweep_completes_with_partial_results(cfg):
    # 10 events stalls; 10 million completes.
    runs = sweep(
        cfg, "max_events", [10, 10_000_000], repetitions=1,
        engine=ExperimentEngine(strict=False),
    )
    assert len(runs) == 2
    assert runs[0].results == [] and len(runs[0].errors) == 1
    assert len(runs[1].results) == 1 and runs[1].errors == []
    assert runs[1].samples_received > 0


def test_sweep_rejects_invalid_cell_value_before_running(cfg):
    """An invalid value is a bad sweep, not a failed cell: it raises
    before any cell is submitted, strict or not."""
    engine = ExperimentEngine(strict=False)
    with pytest.raises(ValueError, match="batch_size"):
        sweep(cfg, "batch_size", [0, 4], repetitions=1, engine=engine)
    assert engine.stats.cells_submitted == 0


def test_cell_error_identifies_replication(cfg):
    res = replicate(cfg.with_(max_events=10), repetitions=3,
                    engine=ExperimentEngine(strict=False))
    assert [e.config_summary for e in res.errors] == [
        "now n=1 b=1 rep=0",
        "now n=1 b=1 rep=1",
        "now n=1 b=1 rep=2",
    ]


def test_empty_mean_results_behavior():
    empty = MeanResults([])
    # Numeric metrics degrade to NaN (mean over nothing).
    assert empty.pd_cpu_time_per_node != empty.pd_cpu_time_per_node
    # Non-numeric attributes raise AttributeError, so hasattr is False.
    assert not hasattr(empty, "config_summary")
    with pytest.raises(AttributeError):
        empty.config_summary
