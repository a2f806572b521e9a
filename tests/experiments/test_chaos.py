"""Chaos-harness tests: the engine under injected faults.

Every scenario asserts convergence: whatever the harness kills, hangs,
or corrupts, an engine with retries armed must end up with results
bit-identical to an undisturbed serial run — the same determinism bar
as the plain engine tests, held under fire.
"""

import os

import pytest

from repro.experiments import (
    CellCache,
    ExperimentEngine,
    RetryPolicy,
    config_fingerprint,
    results_equal,
)
from repro.experiments import engine as engine_module
from repro.experiments.chaos import (
    ChaosKilled,
    ChaosPlan,
    chaos_cell_runner,
    chaos_key,
    corrupt_cache_entry,
    install_chaos,
)
from repro.rocc import SimulationConfig


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


def _reference(cells):
    with ExperimentEngine(workers=1, cache=CellCache(enabled=False)) as eng:
        return eng.run_cells(cells)


def test_chaos_key_is_deadline_insensitive(cfg):
    assert chaos_key(cfg) == chaos_key(cfg.with_(max_wall_seconds=30.0))
    assert chaos_key(cfg) != chaos_key(cfg.with_(seed=6))
    assert chaos_key(cfg) != chaos_key(cfg, aggregated=True)


def test_chaos_plan_claims_each_fault_once(cfg, tmp_path):
    plan = ChaosPlan(state_dir=str(tmp_path))
    assert plan.claim("kill", "abc")
    assert not plan.claim("kill", "abc")  # second attempt runs clean
    assert plan.claim("kill", "def")  # distinct cell, distinct marker
    assert plan.claim("hang", "abc")  # distinct action, distinct marker


def test_chaos_runner_is_picklable(cfg, tmp_path):
    import pickle

    plan = ChaosPlan(state_dir=str(tmp_path), kill_once=("x",))
    runner = chaos_cell_runner(plan)
    assert pickle.loads(pickle.dumps(runner)) is not None


def test_broken_process_pool_mid_batch_recovers(cfg, tmp_path):
    """A worker SIGKILL breaks the pool mid-batch; the engine resets it,
    requeues the collateral, retries the victim, and converges."""
    cells = [cfg.with_(replication=i) for i in range(4)]
    reference = _reference(cells)
    plan = ChaosPlan(
        state_dir=str(tmp_path / "state"),
        kill_once=(chaos_key(cells[1]),),
        parent_pid=os.getpid(),
    )
    with ExperimentEngine(
        workers=2, cache=CellCache(enabled=False),
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
    ) as engine:
        install_chaos(engine, plan)
        out = engine.run_cells(cells)
    for a, b in zip(reference, out):
        assert results_equal(a, b)
    assert not engine.failure_report.failures
    assert engine.stats.pool_resets >= 1
    assert engine.stats.retries >= 1
    assert "pool reset" in engine.stats.summary()


def test_acceptance_sixteen_cells_three_kills_one_corruption(
    cfg, tmp_path, monkeypatch
):
    """The ISSUE acceptance scenario: a 16-cell sweep survives 3
    injected worker kills plus 1 corrupted cache entry and reproduces
    the undisturbed results exactly."""
    cells = [cfg.with_(replication=i) for i in range(16)]
    reference = _reference(cells)

    cache = CellCache(tmp_path / "cache")
    with ExperimentEngine(workers=1, cache=cache) as warm:
        warm.run_cells([cells[7]])
    corrupt_cache_entry(cache, config_fingerprint(cells[7]), mode="garbage")
    monkeypatch.setattr(engine_module, "DEGRADE_AFTER", 4)

    plan = ChaosPlan(
        state_dir=str(tmp_path / "state"),
        kill_once=tuple(chaos_key(c) for c in cells[:3]),
        parent_pid=os.getpid(),
    )
    with ExperimentEngine(
        workers=4, cache=cache,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
    ) as engine:
        install_chaos(engine, plan)
        out = engine.run_cells(cells)
    for a, b in zip(reference, out):
        assert results_equal(a, b)
    assert not engine.failure_report.failures
    assert engine.stats.retries >= 3  # each kill retried at least once
    assert cache.corrupt_entries == 1  # quarantined, then recomputed
    assert engine.stats.cells_run == 16  # nothing served from bad state


def test_hung_worker_caught_by_parent_guard(cfg, tmp_path, monkeypatch):
    """A worker hung *outside* the kernel is invisible to the in-worker
    watchdog; the parent-side wait guard must tear the pool down and
    retry the cell."""
    cells = [cfg.with_(replication=i) for i in range(3)]
    reference = _reference(cells)
    plan = ChaosPlan(
        state_dir=str(tmp_path / "state"),
        hang_once=(chaos_key(cells[0]),),
        hang_seconds=30.0,
        parent_pid=os.getpid(),
    )
    monkeypatch.setattr(engine_module, "DEADLINE_GRACE", 1.0)  # guard: ~2.3 s
    with ExperimentEngine(
        workers=2, cache=CellCache(enabled=False),
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        cell_timeout=0.3,
    ) as engine:
        install_chaos(engine, plan)
        out = engine.run_cells(cells)
    for a, b in zip(reference, out):
        assert results_equal(a, b)
    assert not engine.failure_report.failures
    assert engine.stats.cell_timeouts >= 1
    assert engine.stats.pool_resets >= 1


def test_repeated_pool_failure_degrades_to_serial(cfg, tmp_path, monkeypatch):
    cells = [cfg.with_(replication=i) for i in range(6)]
    reference = _reference(cells)
    plan = ChaosPlan(
        state_dir=str(tmp_path / "state"),
        kill_once=tuple(chaos_key(c) for c in cells[:3]),
        parent_pid=os.getpid(),
    )
    monkeypatch.setattr(engine_module, "DEGRADE_AFTER", 1)
    with ExperimentEngine(
        workers=2, cache=CellCache(enabled=False),
        retry=RetryPolicy(max_attempts=4, backoff_base=0.0),
    ) as engine:
        install_chaos(engine, plan)
        out = engine.run_cells(cells)
    for a, b in zip(reference, out):
        assert results_equal(a, b)
    assert engine.workers == 1  # demoted
    assert engine.failure_report.degraded_to_serial
    assert "degraded to serial" in engine.failure_report.summary()


def test_serial_kill_degrades_to_raise_not_parricide(cfg, tmp_path):
    """On a serial engine the 'worker' is the parent itself: the kill
    fault must degrade to a ChaosKilled failure, never SIGKILL the
    scheduling process."""
    plan = ChaosPlan(
        state_dir=str(tmp_path / "state"),
        kill_once=(chaos_key(cfg),),
        parent_pid=os.getpid(),
    )
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False),
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
    ) as engine:
        install_chaos(engine, plan)
        out = engine.run_cells([cfg])
    assert results_equal(out[0], _reference([cfg])[0])
    assert engine.stats.retries == 1


def test_chaos_killed_is_transient():
    assert "ChaosKilled" in RetryPolicy().retry_on
    assert issubclass(ChaosKilled, RuntimeError)


def test_corrupt_cache_entry_modes(cfg, tmp_path):
    cache = CellCache(tmp_path)
    results = _reference([cfg])[0]
    for i, mode in enumerate(("garbage", "truncate")):
        key = config_fingerprint(cfg.with_(seed=100 + i))
        cache.put(key, results)
        corrupt_cache_entry(cache, key, mode=mode)
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()  # quarantined
    assert cache.corrupt_entries == 2
    with pytest.raises(ValueError):
        corrupt_cache_entry(cache, "whatever", mode="bitflip")
