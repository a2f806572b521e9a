"""Tests for the parallel experiment engine and its cell cache.

The load-bearing property is *determinism*: because every cell draws
from dedicated named substreams, the same sweep must yield identical
``SimulationResults`` field-by-field whether it runs serially, across
worker processes, or from a warm content-addressed cache.  The failure
contract leans on it: a failed cell fails once, is never cached, and a
rerun on the cache simulates only the lost cells.
"""

import functools
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
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
from repro.experiments.engine import (
    EngineCellError,
    FailureReport,
    _run_cell,
    code_version,
)
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


def _no_cache_engine(workers=1, strict=True):
    return ExperimentEngine(workers=workers, cache=CellCache(enabled=False),
                            strict=strict)


def _reference(cells):
    with _no_cache_engine() as engine:
        return engine.run_cells(cells)


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


def test_cache_disable_and_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CELL_CACHE", "0")
    assert CellCache(tmp_path).enabled is False
    monkeypatch.setenv("REPRO_CELL_CACHE", "1")
    assert CellCache(tmp_path).enabled is True
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert CellCache().root == tmp_path / "elsewhere"


_VERSION_A = "a" * 16
_VERSION_B = "b" * 16


def _open_as(version, root, monkeypatch):
    """A cache opened on *root* by a fresh process of code *version*."""
    import repro.experiments.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_code_version", version)
    monkeypatch.setattr(engine_mod, "_swept", set())
    return CellCache(root)


def _fill_stale(root: Path, cfg, monkeypatch) -> Path:
    """*root* as a cache of code version A left it (two entries, one of
    them quarantined), next to the flat layout older code wrote and to
    files the cache never wrote; returns the version A directory."""
    old = _open_as(_VERSION_A, root, monkeypatch)
    for rep in (0, 1):
        old.put(config_fingerprint(cfg.with_(replication=rep)), rep)
    old.path_for(config_fingerprint(cfg)).write_bytes(b"damaged")
    assert old.get(config_fingerprint(cfg), kind=int) is None  # quarantined
    for shard, name in (("cd", "cd01.pkl"), ("quarantine", "ef02.pkl")):
        (root / shard).mkdir()
        (root / shard / name).write_bytes(b"flat")
        (root / shard / f"{name}.sha256").write_text("0" * 64)
    (root / "notes.txt").write_text("mine")
    (root / "ab").mkdir()
    (root / "ab" / "keep.pkl").write_bytes(b"mine")
    (root / "ab" / "README").write_text("not a cache entry")
    (root / "mine").mkdir()
    (root / "mine" / "x.pkl").write_bytes(b"mine")
    return old.version_dir


def test_cache_drops_other_code_versions(cfg, tmp_path, monkeypatch):
    old_dir = _fill_stale(tmp_path, cfg, monkeypatch)
    cache = _open_as(_VERSION_B, tmp_path, monkeypatch)
    # Two entries of version A (one quarantined) and two flat ones.
    assert cache.stale_dropped == 4
    assert not old_dir.exists()
    assert not (tmp_path / "cd").exists()
    assert not (tmp_path / "quarantine").exists()
    # What the cache did not write survives.
    assert (tmp_path / "notes.txt").read_text() == "mine"
    assert sorted(os.listdir(tmp_path / "ab")) == ["README", "keep.pkl"]
    assert os.listdir(tmp_path / "mine") == ["x.pkl"]
    engine = ExperimentEngine(workers=1, cache=cache)
    assert engine.stats.summary().endswith(", 4 stale entries dropped")
    # Only the first open of a root in a process sweeps it.
    assert CellCache(tmp_path).stale_dropped == 0


def test_same_version_rerun_drops_nothing(cfg, tmp_path, monkeypatch):
    cache = _open_as(_VERSION_A, tmp_path, monkeypatch)
    key = config_fingerprint(cfg)
    cache.put(key, 7)
    again = _open_as(_VERSION_A, tmp_path, monkeypatch)
    assert again.stale_dropped == 0
    assert again.get(key, kind=int) == 7


def test_engine_line_reports_dropped_entries(cfg, tmp_path, monkeypatch,
                                             capsys):
    """The count follows the ``N cells (R run, C cached, F failed)``
    prefix the e2e harness parses, inside the same brackets."""
    import re

    from repro.experiments.__main__ import main as experiments_main

    _fill_stale(tmp_path, cfg, monkeypatch)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # A fresh process of code version B.
    monkeypatch.setattr("repro.experiments.engine._code_version", _VERSION_B)
    monkeypatch.setattr("repro.experiments.engine._swept", set())
    assert experiments_main(["figure9"]) == 0
    err = capsys.readouterr().err
    m = re.search(r"\[engine: \d+ cells \(\d+ run, \d+ cached, \d+ failed\)"
                  r"([^\]]*)\]$", err, re.M)
    assert m is not None, err
    assert m.group(1).endswith(", 4 stale entries dropped")


def test_suite_cache_is_not_the_users():
    """The test session caches cells outside the user's home directory,
    so it neither fills nor is served from ``~/.cache/repro/cells``."""
    from repro.experiments.engine import _default_cache_root

    root = _default_cache_root().resolve()
    assert not root.is_relative_to(Path.home().resolve())


def test_failed_cells_are_never_cached(cfg, tmp_path):
    cache = CellCache(tmp_path)
    engine = ExperimentEngine(workers=1, cache=cache, strict=False)
    bad = cfg.with_(max_events=10)
    replicate(bad, repetitions=1, engine=engine)
    assert cache.get(config_fingerprint(bad)) is None


def test_cache_put_writes_checksum_sidecar(cfg, tmp_path):
    cache = CellCache(tmp_path)
    results = _reference([cfg])[0]
    key = config_fingerprint(cfg)
    assert cache.put(key, results)
    blob = cache.path_for(key).read_bytes()
    sidecar = cache.checksum_path_for(key)
    assert sidecar.read_text().strip() == hashlib.sha256(blob).hexdigest()
    assert results_equal(cache.get(key), results)
    # No stray tmp files from the atomic write protocol.
    assert not list(tmp_path.rglob("*.tmp"))


def test_cache_quarantines_corrupt_entry(cfg, tmp_path):
    cache = CellCache(tmp_path)
    results = _reference([cfg])[0]
    key = config_fingerprint(cfg)
    cache.put(key, results)
    cache.path_for(key).write_bytes(b"scribbled by a crash")
    assert cache.get(key) is None  # checksum catches it before unpickle
    assert cache.corrupt_entries == 1
    assert not cache.path_for(key).exists()
    assert any(cache.quarantine_dir.iterdir())
    # The slot is reusable after quarantine.
    cache.put(key, results)
    assert results_equal(cache.get(key), results)


def test_corrupt_cache_entry_modes(cfg, tmp_path):
    """Garbage and a torn (truncated) write are both quarantined misses."""
    cache = CellCache(tmp_path)
    results = _reference([cfg])[0]
    damages = {
        "garbage": lambda blob: b"\x00garbage" * 8,
        "truncate": lambda blob: blob[: len(blob) // 2],
    }
    for i, damage in enumerate(damages.values()):
        key = config_fingerprint(cfg.with_(seed=100 + i))
        cache.put(key, results)
        path = cache.path_for(key)
        path.write_bytes(damage(path.read_bytes()))
        assert cache.get(key) is None
        assert not path.exists()  # quarantined
    assert cache.corrupt_entries == len(damages)


@pytest.mark.parametrize("damage", ["empty", "zero-filled"])
def test_power_loss_entry_is_quarantined_and_recomputed(cfg, tmp_path,
                                                         damage):
    """Writes are not fsynced, so a power loss can leave an entry's blob
    empty or zero-filled beside its intact sidecar: a quarantined miss
    that the next run recomputes and stores again."""
    cache = CellCache(tmp_path)
    (reference,) = ExperimentEngine(workers=1, cache=cache).run_cells([cfg])
    key = config_fingerprint(cfg)
    path = cache.path_for(key)
    size = len(path.read_bytes())
    path.write_bytes(b"" if damage == "empty" else bytes(size))
    assert cache.checksum_path_for(key).exists()
    engine = ExperimentEngine(workers=1, cache=cache)
    (again,) = engine.run_cells([cfg])
    assert engine.stats.cells_run == 1 and engine.stats.cache_hits == 0
    assert engine.stats.cache_corrupt == 1
    assert (cache.quarantine_dir / path.name).exists()
    assert results_equal(again, reference)
    assert results_equal(cache.get(key), reference)


def test_cache_quarantines_entry_without_sidecar(cfg, tmp_path):
    """Every entry of this code version was written with its checksum,
    so an entry without one is damaged: a quarantined miss."""
    cache = CellCache(tmp_path)
    results = _reference([cfg])[0]
    key = config_fingerprint(cfg)
    cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
    cache.path_for(key).write_bytes(
        pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert not cache.checksum_path_for(key).exists()
    assert cache.get(key) is None
    assert cache.corrupt_entries == 1
    assert not cache.path_for(key).exists()


def test_unwritable_cache_never_aborts_the_run(cfg, tmp_path, monkeypatch):
    """A cache that cannot be written, whether its directory cannot be
    made or a write fails, loses the entry, not the run, and the
    engine line counts the loss."""
    afile = tmp_path / "afile"
    afile.write_text("a regular file, not a directory")
    reference = _reference([cfg])[0]
    engine = ExperimentEngine(workers=1, cache=CellCache(afile / "cells"))
    (out,) = engine.run_cells([cfg])
    assert results_equal(out, reference)
    assert engine.stats.cache_write_failures == 1
    assert engine.stats.summary().endswith(", 1 cache writes failed")

    def full_disk(path, data):
        raise OSError(28, "No space left on device")

    cache = CellCache(tmp_path / "cells")
    monkeypatch.setattr(CellCache, "_atomic_write", staticmethod(full_disk))
    engine = ExperimentEngine(workers=1, cache=cache)
    engine.run_cells([cfg, cfg.with_(replication=1)])
    assert engine.stats.cache_write_failures == 2
    assert cache.get(config_fingerprint(cfg)) is None


def test_unwritable_cache_is_reported_on_the_engine_line(tmp_path,
                                                         monkeypatch, capsys):
    import re

    from repro.experiments.__main__ import main as experiments_main

    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(afile / "cells"))
    assert experiments_main(["figure22"]) == 0
    line = re.search(r"^\[engine: (\d+) cells \((\d+) run, .*\]$",
                     capsys.readouterr().err, re.M)
    assert line is not None
    assert line.group(0).endswith(f", {line.group(2)} cache writes failed]")


# ---------------------------------------------------------------------------
# Failure semantics across the process boundary
# ---------------------------------------------------------------------------


def test_parallel_isolate_ships_cell_errors_back(cfg):
    with _no_cache_engine(workers=2, strict=False) as engine:
        runs = sweep(cfg, "max_events", [10, 10_000_000], repetitions=1,
                     engine=engine)
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


def _kill_worker_on(replication, payload):
    """Cell runner that SIGKILLs its worker on one replication."""
    if payload[0].replication == replication:
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_cell(payload)


def _fail_on(replication, payload):
    """Cell runner that fails one replication."""
    if payload[0].replication == replication:
        raise RuntimeError(f"injected failure of rep {replication}")
    return _run_cell(payload)


def test_worker_death_fails_unfinished_cells(cfg, tmp_path):
    """A worker killed mid-batch fails that batch's unfinished cells
    with BrokenProcessPool, once each: nothing is retried, no failed
    cell is cached, the next batch runs on a fresh pool, and a rerun on
    the cache simulates only the lost cells."""
    cells = [cfg.with_(replication=i) for i in range(6)]
    reference = _reference(cells)
    cache = CellCache(tmp_path)
    with ExperimentEngine(workers=2, cache=cache, strict=False) as engine:
        engine.cell_runner = functools.partial(_kill_worker_on, 1)
        out = engine.run_cells(cells[:4])
        lost = [i for i, o in enumerate(out) if isinstance(o, CellError)]
        assert 1 in lost
        for i, outcome in enumerate(out):
            key = config_fingerprint(cells[i])
            if i in lost:
                assert outcome.error.startswith("BrokenProcessPool")
                assert cache.get(key) is None
            else:
                assert results_equal(outcome, reference[i])
                assert results_equal(cache.get(key), reference[i])
        assert engine.stats.cells_run == 4
        assert engine.stats.cell_errors == len(lost)
        assert engine.failure_report == [out[i] for i in lost]
        assert engine._pool is None  # the broken pool was dropped

        engine.cell_runner = _run_cell
        fresh = engine.run_cells(cells[4:])
        assert engine._pool is not None
        assert all(results_equal(a, b) for a, b in zip(fresh, reference[4:]))

    with ExperimentEngine(workers=1, cache=cache) as rerun:
        resumed = rerun.run_cells(cells[:4])
    assert rerun.stats.cells_run == len(lost)
    assert rerun.stats.cache_hits == 4 - len(lost)
    assert all(results_equal(a, b) for a, b in zip(resumed, reference))


def test_worker_death_raises_when_strict(cfg):
    cells = [cfg.with_(replication=i) for i in range(4)]
    with _no_cache_engine(workers=2) as engine:
        engine.cell_runner = functools.partial(_kill_worker_on, 1)
        with pytest.raises(EngineCellError, match="BrokenProcessPool"):
            engine.run_cells(cells)


def _fail_0_kill_1(payload):
    """Cell runner: rep 0 fails at once, rep 1's worker dies later."""
    if payload[0].replication == 0:
        raise RuntimeError("injected failure of rep 0")
    if payload[0].replication == 1:
        time.sleep(0.3)
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_cell(payload)


def test_strict_failure_drops_the_pool_it_stops(cfg):
    """A strict failure stops reading the wave before the worker death
    breaks the pool; the next batch must not inherit that pool."""
    cells = [cfg.with_(replication=i) for i in range(6)]
    with _no_cache_engine(workers=2) as engine:
        engine.cell_runner = _fail_0_kill_1
        with pytest.raises(EngineCellError, match="RuntimeError"):
            engine.run_cells(cells[:4])
        time.sleep(0.5)  # the worker death has broken the old pool
        engine.cell_runner = _run_cell
        fresh = engine.run_cells(cells[4:])
    assert all(results_equal(a, b) for a, b in zip(fresh, _reference(cells[4:])))


def test_failed_cell_runs_once(cfg):
    """No in-run retry: a failed cell is reported after its one run."""
    with _no_cache_engine(strict=False) as engine:
        engine.cell_runner = functools.partial(_fail_on, 0)
        out = engine.run_cells([cfg, cfg.with_(replication=1)])
    assert isinstance(out[0], CellError) and out[0].error.startswith(
        "RuntimeError: injected failure")
    assert results_equal(out[1], _reference([cfg.with_(replication=1)])[0])
    assert engine.stats.cells_run == 2 and engine.stats.cell_errors == 1


def test_rerun_resumes_aborted_sweep_from_cache(cfg, tmp_path):
    """A strict run aborted at cell k has cached exactly cells 0..k-1;
    the rerun serves those and simulates only the rest."""
    cells = [cfg.with_(replication=i) for i in range(4)]
    reference = _reference(cells)
    k = 2
    cache = CellCache(tmp_path / "cells")
    with ExperimentEngine(workers=1, cache=cache) as first:
        first.cell_runner = functools.partial(_fail_on, k)
        with pytest.raises(RuntimeError, match="injected failure"):
            first.run_cells(cells)
    assert len(list(cache.version_dir.rglob("*.pkl"))) == k

    with ExperimentEngine(workers=1, cache=cache) as second:
        resumed = second.run_cells(cells)
    assert second.stats.cache_hits == k
    assert second.stats.cells_run == len(cells) - k
    for a, b in zip(reference, resumed):
        assert results_equal(a, b)


def test_deadline_breach_nonstrict_returns_partial_results(cfg):
    slow = cfg.with_(duration=1e10)  # far more work than 0.2 s allows
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False),
        cell_timeout=0.2, strict=False,
    ) as engine:
        quick, lost = engine.run_cells([cfg, slow])
    assert results_equal(quick, _reference([cfg])[0])
    assert isinstance(lost, CellError)
    assert lost.error.startswith("SimulationStalled")
    assert engine.failure_report == [lost]
    summary, line = engine.failure_report.format().splitlines()
    assert summary == "failure report: 1 cell(s) failed"
    assert line.startswith(f"  {lost.config_summary}: SimulationStalled")


def test_failure_report_summary_and_format(cfg):
    report = FailureReport()
    assert not report
    lost = CellError.from_exception(cfg, SimulationStalled("stalled"))
    report.append(lost)
    assert report  # truthy once a cell failed
    summary, line = report.format().splitlines()
    assert summary == "failure report: 1 cell(s) failed"
    assert line == f"  {lost.config_summary}: SimulationStalled: stalled"


def test_deadline_breach_strict_raises(cfg):
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), cell_timeout=0.2,
    ) as engine:
        with pytest.raises(SimulationStalled):
            engine.run_cells([cfg.with_(duration=1e10)])


def test_deadline_does_not_change_results(cfg):
    reference = _reference([cfg])
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), cell_timeout=3600.0,
    ) as engine:
        out = engine.run_cells([cfg])
    assert results_equal(out[0], reference[0])
    assert not engine.failure_report


def test_deadline_leaves_cache_keys_unchanged(cfg, tmp_path):
    """Keys come from the configs as submitted, not from the
    deadline-wrapped ones the cells run: a default engine on the cache a
    deadline engine filled runs nothing."""
    cache = CellCache(tmp_path)
    with ExperimentEngine(workers=1, cache=cache, cell_timeout=3600.0) as armed:
        (first,) = armed.run_cells([cfg])
    with ExperimentEngine(workers=1, cache=cache) as plain:
        (again,) = plain.run_cells([cfg])
    assert plain.stats.cells_run == 0 and plain.stats.cache_hits == 1
    assert results_equal(first, again)


def test_engine_validates_parameters():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentEngine(cell_timeout=bad)


def test_engine_defaults_are_plain():
    """No deadline, strict, nothing lost yet."""
    engine = ExperimentEngine(cache=CellCache(enabled=False))
    assert engine.cell_timeout is None
    assert engine.strict
    assert isinstance(engine.failure_report, FailureReport)
    assert not engine.failure_report


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
