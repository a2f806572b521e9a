"""Tests for the parallel experiment engine and its cell cache.

The load-bearing property is *determinism*: because every cell draws
from dedicated named substreams, the same sweep must yield identical
``SimulationResults`` field-by-field whether it runs serially, across
worker processes, or from a warm content-addressed cache.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.des import SimulationStalled
from repro.experiments import (
    CellCache,
    CellError,
    EngineStats,
    ExperimentEngine,
    MeanResults,
    config_fingerprint,
    current_engine,
    replicate,
    results_equal,
    run_design,
    sweep,
    use_engine,
)
from repro.experiments.engine import code_version
from repro.expdesign.factorial import Factor, FactorialDesign
from repro.rocc import SimulationConfig
from repro.rocc.config import DaemonCostModel
from repro.variates.distributions import Exponential


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(
        nodes=1,
        duration=300_000.0,
        sampling_period=20_000.0,
        include_pvmd=False,
        include_other=False,
        seed=5,
    )


def _no_cache_engine(workers=1):
    return ExperimentEngine(workers=workers, cache=CellCache(enabled=False))


def _assert_cells_identical(cells_a, cells_b):
    assert len(cells_a) == len(cells_b)
    for a, b in zip(cells_a, cells_b):
        assert len(a.results) == len(b.results)
        for ra, rb in zip(a.results, b.results):
            assert results_equal(ra, rb)


# ---------------------------------------------------------------------------
# Determinism: serial == parallel == cached
# ---------------------------------------------------------------------------


def test_sweep_deterministic_serial_parallel_cached(cfg, tmp_path):
    values = [10_000.0, 20_000.0, 40_000.0]
    serial = sweep(cfg, "sampling_period", values, repetitions=2,
                   engine=_no_cache_engine())
    with _no_cache_engine(workers=2) as parallel_engine:
        parallel = sweep(cfg, "sampling_period", values, repetitions=2,
                         engine=parallel_engine)
    cached_engine = ExperimentEngine(workers=1, cache=CellCache(tmp_path))
    cold = sweep(cfg, "sampling_period", values, repetitions=2,
                 engine=cached_engine)
    warm = sweep(cfg, "sampling_period", values, repetitions=2,
                 engine=cached_engine)

    _assert_cells_identical(serial, parallel)
    _assert_cells_identical(serial, cold)
    _assert_cells_identical(serial, warm)

    # The second cached sweep executed nothing: every cell was a hit.
    assert cached_engine.stats.cache_hits == len(values) * 2
    assert cached_engine.stats.cells_run == len(values) * 2


def test_parallel_preserves_common_random_numbers(cfg):
    """CRN across factor levels survives the process boundary: cells
    differing only in policy see the same workload realization."""
    with _no_cache_engine(workers=2) as engine:
        a = replicate(cfg.with_(batch_size=1), repetitions=1, engine=engine)
        b = replicate(cfg.with_(batch_size=8), repetitions=1, engine=engine)
    assert a.results[0].samples_generated == b.results[0].samples_generated


# Runs in a fresh interpreter, where nothing has imported the simulator
# yet: records at each fork whether the parent already holds it.
_FORK_PROBE = """
import json, os, sys
from repro.experiments.engine import CellCache, ExperimentEngine, results_equal
from repro.rocc.config import SimulationConfig

at_fork = []
os.register_at_fork(
    before=lambda: at_fork.append("repro.rocc.system" in sys.modules))
configs = [SimulationConfig(nodes=1, duration=300_000.0,
                            sampling_period=p, include_pvmd=False,
                            include_other=False, seed=5)
           for p in (10_000.0, 20_000.0, 40_000.0)]
assert "repro.rocc.system" not in sys.modules
with ExperimentEngine(workers=2, cache=CellCache(enabled=False)) as eng:
    parallel = eng.run_cells(configs)
serial = ExperimentEngine(workers=1, cache=CellCache(enabled=False)).run_cells(configs)
print(json.dumps({"at_fork": at_fork, "identical": all(
    results_equal(a, b) for a, b in zip(serial, parallel))}))
"""


def test_pool_workers_inherit_the_simulator():
    src = Path(__file__).resolve().parents[2] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE], capture_output=True, text=True,
        env=dict(env, PYTHONPATH=str(src)), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # The pool forked, and every fork came after the parent imported it.
    assert out["at_fork"] and all(out["at_fork"]), out
    assert out["identical"]


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def test_fingerprint_is_stable_and_field_sensitive(cfg):
    assert config_fingerprint(cfg) == config_fingerprint(cfg)
    assert config_fingerprint(cfg.with_()) == config_fingerprint(cfg)
    # Every varying ingredient moves the address.
    assert config_fingerprint(cfg.with_(replication=1)) != config_fingerprint(cfg)
    assert config_fingerprint(cfg.with_(seed=6)) != config_fingerprint(cfg)
    assert config_fingerprint(cfg.with_(batch_size=2)) != config_fingerprint(cfg)
    assert config_fingerprint(cfg, aggregated=True) != config_fingerprint(cfg)


def test_fingerprint_sees_nested_models(cfg):
    tweaked = cfg.with_(
        daemon_costs=DaemonCostModel(collection_cpu=Exponential(90.0))
    )
    assert config_fingerprint(tweaked) != config_fingerprint(cfg)
    same = cfg.with_(daemon_costs=DaemonCostModel())
    assert config_fingerprint(same) == config_fingerprint(cfg)


def test_fingerprint_salted_by_code_version(cfg, monkeypatch):
    import repro.experiments.engine as engine_mod

    before = config_fingerprint(cfg)
    monkeypatch.setattr(engine_mod, "_code_version", "different-salt")
    assert config_fingerprint(cfg) != before
    assert code_version() == "different-salt"


# ---------------------------------------------------------------------------
# Cell cache
# ---------------------------------------------------------------------------


def test_cache_roundtrip_and_corruption_eviction(cfg, tmp_path):
    cache = CellCache(tmp_path)
    engine = ExperimentEngine(workers=1, cache=cache)
    res = replicate(cfg, repetitions=1, engine=engine).results[0]
    key = config_fingerprint(cfg)
    restored = cache.get(key)
    assert restored is not None and results_equal(res, restored)
    # The on-disk payload unpickles to the same metrics.
    assert results_equal(
        pickle.loads(cache.path_for(key).read_bytes()), restored
    )
    # A corrupt entry is evicted and treated as a miss.
    cache.path_for(key).write_bytes(b"not a pickle")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()


def test_cache_clear_and_disable(cfg, tmp_path, monkeypatch):
    cache = CellCache(tmp_path)
    engine = ExperimentEngine(workers=1, cache=cache)
    replicate(cfg, repetitions=2, engine=engine)
    assert cache.clear() == 2
    assert cache.clear() == 0
    monkeypatch.setenv("REPRO_CELL_CACHE", "0")
    assert CellCache(tmp_path).enabled is False
    monkeypatch.setenv("REPRO_CELL_CACHE", "1")
    assert CellCache(tmp_path).enabled is True
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert CellCache().root == tmp_path / "elsewhere"


def test_suite_cache_is_not_the_users():
    """The test session caches cells outside the user's home directory,
    so it neither fills nor is served from ``~/.cache/repro/cells``."""
    from repro.experiments.engine import _default_cache_root

    root = _default_cache_root().resolve()
    assert not root.is_relative_to(Path.home().resolve())


def test_failed_cells_are_never_cached(cfg, tmp_path):
    cache = CellCache(tmp_path)
    engine = ExperimentEngine(workers=1, cache=cache)
    bad = cfg.with_(max_events=10)
    replicate(bad, repetitions=1, isolate=True, engine=engine)
    assert cache.get(config_fingerprint(bad)) is None


# ---------------------------------------------------------------------------
# Failure semantics across the process boundary
# ---------------------------------------------------------------------------


def test_parallel_isolate_ships_cell_errors_back(cfg):
    with _no_cache_engine(workers=2) as engine:
        runs = sweep(cfg, "max_events", [10, 10_000_000], repetitions=1,
                     isolate=True, engine=engine)
    assert runs[0].results == [] and len(runs[0].errors) == 1
    assert isinstance(runs[0].errors[0], CellError)
    assert "SimulationStalled" in runs[0].errors[0].error
    assert "SimulationStalled" in runs[0].errors[0].traceback
    assert len(runs[1].results) == 1 and runs[1].errors == []
    assert engine.stats.cell_errors == 1


def test_parallel_nonisolated_reraises_original_exception(cfg):
    with _no_cache_engine(workers=2) as engine:
        with pytest.raises(SimulationStalled):
            replicate(cfg.with_(max_events=10), repetitions=2, engine=engine)


def test_serial_fallback_fails_fast(cfg):
    """workers=1 keeps the historical semantics: the first failing rep
    raises before later reps run."""
    engine = _no_cache_engine(workers=1)
    with pytest.raises(SimulationStalled):
        replicate(cfg.with_(max_events=10), repetitions=3, engine=engine)
    assert engine.stats.cells_run == 1  # reps 2 and 3 never started


# ---------------------------------------------------------------------------
# Engine plumbing: stats, ambient engine, design batching
# ---------------------------------------------------------------------------


def test_engine_stats_accounting(cfg, tmp_path):
    engine = ExperimentEngine(workers=1, cache=CellCache(tmp_path))
    sweep(cfg, "sampling_period", [10_000.0, 40_000.0], repetitions=2,
          engine=engine)
    stats = engine.stats
    assert stats.cells_submitted == 4
    assert stats.cells_run == 4 and stats.cache_hits == 0
    assert stats.wall_time > 0 and stats.cell_cpu_time > 0
    assert 0 < stats.worker_utilization <= 1.5  # 1 worker, minor timer skew
    snap = stats.copy()
    sweep(cfg, "sampling_period", [10_000.0, 40_000.0], repetitions=2,
          engine=engine)
    delta = engine.stats.since(snap)
    assert delta.cells_submitted == 4 and delta.cache_hits == 4
    assert "4 cells" in delta.summary() and "4 cached" in delta.summary()


def test_engine_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ExperimentEngine(workers=0)


def test_use_engine_is_ambient(cfg):
    engine = _no_cache_engine()
    with use_engine(engine):
        assert current_engine() is engine
        replicate(cfg, repetitions=1)
    assert current_engine() is not engine
    assert engine.stats.cells_submitted == 1


def test_workers_default_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert ExperimentEngine().workers == 3


def test_run_design_matches_per_run_replicate(cfg):
    design = FactorialDesign(
        [
            Factor("sampling_period", 10_000.0, 40_000.0, "B"),
            Factor("batch_size", 1, 4, "C"),
        ]
    )

    def make(run):
        return cfg.with_(
            sampling_period=run["sampling_period"],
            batch_size=int(run["batch_size"]),
        )

    cells = run_design(design, make, repetitions=2, engine=_no_cache_engine())
    assert len(cells) == design.n_runs
    reference = [
        replicate(make(run), repetitions=2, engine=_no_cache_engine())
        for run in design.runs()
    ]
    _assert_cells_identical(cells, reference)


def test_registry_appends_engine_note(cfg, tmp_path):
    from repro.experiments.registry import Experiment
    from repro.experiments.reporting import Table

    def _probe(quick=True):
        table = Table(title="probe", headers=["x"])
        res = replicate(cfg, repetitions=1)
        table.add_row(res.samples_received)
        return table

    experiment = Experiment("enginetest", "engine note probe", "n/a", runner=_probe)
    engine = ExperimentEngine(workers=1, cache=CellCache(tmp_path))
    artifact = experiment.run(engine=engine)
    assert any(note.startswith("engine: ") for note in artifact.notes)
    assert engine.stats.cells_submitted == 1


# ---------------------------------------------------------------------------
# Satellite fixes: sweep extras validation, MeanResults memoization
# ---------------------------------------------------------------------------


def test_sweep_validates_extra_keys(cfg):
    with pytest.raises(ValueError, match="bacth_size"):
        sweep(cfg, "sampling_period", [10_000.0], repetitions=1,
              engine=_no_cache_engine(), bacth_size=8)
    # Valid extras still apply.
    runs = sweep(cfg, "sampling_period", [10_000.0], repetitions=1,
                 engine=_no_cache_engine(), batch_size=8)
    assert runs[0].results[0].batches_received <= runs[0].results[0].samples_received


def test_mean_results_memoizes_numeric_means(cfg):
    res = replicate(cfg, repetitions=3, engine=_no_cache_engine())
    assert "pd_cpu_time_per_node" not in res.__dict__
    first = res.pd_cpu_time_per_node
    assert res.__dict__["pd_cpu_time_per_node"] == first
    assert res.pd_cpu_time_per_node == first
    import statistics

    assert first == pytest.approx(statistics.mean(res.raw("pd_cpu_time_per_node")))
    # Memoized attributes survive pickling and stay consistent.
    clone = pickle.loads(pickle.dumps(res))
    assert clone.pd_cpu_time_per_node == first


def test_mean_results_memoization_keeps_nan_semantics():
    empty = MeanResults([])
    assert empty.monitoring_latency_total != empty.monitoring_latency_total  # NaN
    # Second read comes from the instance dict and is still NaN.
    assert "monitoring_latency_total" in empty.__dict__
    assert empty.monitoring_latency_total != empty.monitoring_latency_total
