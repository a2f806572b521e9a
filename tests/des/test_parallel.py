"""Partitioned parallel kernel: equivalence, fallback, fault recovery."""

import pytest

from repro.experiments.engine import CellCache, ExperimentEngine
from repro.experiments.resilience import DEFAULT_TRANSIENT, RetryPolicy
from repro.des.parallel import LPWorkerLost, parallel_simulate
from repro.rocc import Architecture, ForwardingTopology, SimulationConfig, simulate
from repro.rocc.config import NetworkMode
from repro.verify.differential import diff_results

#: Fields whose sequential values are float sums accumulated in one
#: global order; partitioned runs re-associate them (per-LP partial
#: sums), so they may differ in the last ulp.
ULP = ("network_utilization", "pd_network_utilization", "pipe_blocked_time")
IGNORE = ULP + ("observability",)


def _assert_equivalent(seq, par):
    assert diff_results(seq, par, ignore=IGNORE) == []
    for f in ULP:
        a, b = getattr(seq, f), getattr(par, f)
        assert a == pytest.approx(b, rel=1e-9), f


@pytest.fixture(scope="module")
def mpp_config():
    return SimulationConfig(
        architecture=Architecture.MPP, nodes=8, duration=250_000.0,
        app_processes_per_node=2, seed=13,
    )


@pytest.fixture(scope="module")
def mpp_sequential(mpp_config):
    return simulate(mpp_config)


def test_two_lp_equivalence(mpp_config, mpp_sequential):
    _assert_equivalent(mpp_sequential, simulate(mpp_config, lp_workers=2))


def test_uneven_partition_equivalence(mpp_config, mpp_sequential):
    # 8 nodes over 3 LPs: ranges of 3/3/2 — exercises the uneven split.
    _assert_equivalent(mpp_sequential, simulate(mpp_config, lp_workers=3))


def test_now_cf_with_warmup_equivalence():
    cfg = SimulationConfig(
        architecture=Architecture.NOW, nodes=6,
        network_mode=NetworkMode.CONTENTION_FREE,
        duration=200_000.0, warmup=40_000.0, seed=21,
    )
    _assert_equivalent(simulate(cfg), simulate(cfg, lp_workers=2))


def test_parallel_run_is_replayable(mpp_config):
    # The coordinator's injection order is wall-clock independent, so a
    # parallel run replays bit-identically (including the ulp fields).
    a = simulate(mpp_config, lp_workers=2)
    b = simulate(mpp_config, lp_workers=2)
    assert diff_results(a, b, ignore=("observability",)) == []


def test_single_lp_request_stays_sequential(mpp_config, mpp_sequential):
    out = simulate(mpp_config, lp_workers=1)
    assert diff_results(mpp_sequential, out, ignore=("observability",)) == []
    assert "lp_workers" not in out.observability


def test_env_knob_enables_parallelism(mpp_config, monkeypatch):
    """REPRO_DES_PARALLEL partitions engine runs (both CLIs use one)."""
    monkeypatch.setenv("REPRO_DES_PARALLEL", "2")
    with ExperimentEngine(workers=1, cache=CellCache(enabled=False)) as eng:
        (out,) = eng.run_cells([mpp_config])
    assert out.observability.get("lp_workers") == 2


def test_direct_simulate_ignores_env_knob(mpp_config, monkeypatch):
    """A direct ``simulate(cfg)`` — the sequential reference of the
    differential checks — stays sequential whatever the environment
    says; only an explicit ``lp_workers`` partitions it."""
    monkeypatch.setenv("REPRO_DES_PARALLEL", "2")
    assert "lp_workers" not in simulate(mpp_config).observability


def test_ineligible_config_falls_back(mpp_sequential, mpp_config):
    treed = mpp_config.with_(forwarding=ForwardingTopology.TREE)
    seq = simulate(treed)
    par = simulate(treed, lp_workers=4)
    assert diff_results(seq, par, ignore=("observability",)) == []
    assert "lp_workers" not in par.observability


def test_default_window_count(mpp_config, mpp_sequential):
    out = simulate(mpp_config, lp_workers=2)
    # Each LP reports 64 windows of duration / 64 (250 ms / 64 here).
    assert out.observability["lp_windows"] == 2 * 64
    _assert_equivalent(mpp_sequential, out)


def test_parallel_observability_metadata(mpp_config):
    out = simulate(mpp_config, lp_workers=2)
    obs = out.observability
    assert obs["lp_workers"] == 2
    assert obs["lookahead_us"] == 0.0  # exponential network costs
    assert obs["lp_sync_waits"] >= 1
    assert obs["null_messages"] >= 0


# ---------------------------------------------------------------------------
# Fault injection: a SIGKILLed LP worker is retried cleanly
# ---------------------------------------------------------------------------


def test_lp_worker_lost_is_transient():
    assert "LPWorkerLost" in DEFAULT_TRANSIENT


def test_killed_lp_worker_raises(mpp_config, tmp_path, monkeypatch):
    marker = tmp_path / "lp-kill"
    monkeypatch.setenv("REPRO_CHAOS_LP_KILL", str(marker))
    with pytest.raises(LPWorkerLost):
        parallel_simulate(mpp_config, 2)
    assert marker.exists()


def test_resilient_engine_retries_killed_lp_worker(
    mpp_config, mpp_sequential, tmp_path, monkeypatch
):
    """An LP worker SIGKILLed mid-window: the cell fails with
    LPWorkerLost, the engine retries, and the second attempt
    (chaos marker present) reproduces the sequential results."""
    marker = tmp_path / "lp-kill-retried"
    monkeypatch.setenv("REPRO_CHAOS_LP_KILL", str(marker))
    with ExperimentEngine(
        workers=1,
        cache=CellCache(enabled=False),
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        lp_workers=2,
    ) as engine:
        (result,) = engine.run_cells([mpp_config])
    assert engine.stats.retries == 1
    assert marker.exists()
    _assert_equivalent(mpp_sequential, result)


def test_engine_auto_stays_sequential_for_small_cells(
    mpp_config, mpp_sequential
):
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), lp_workers="auto"
    ) as engine:
        (result,) = engine.run_cells([mpp_config])
    # 8 nodes is far below the auto threshold: bit-identical everywhere.
    assert diff_results(mpp_sequential, result,
                        ignore=("observability",)) == []


def test_engine_fingerprint_separates_parallel_results(mpp_config):
    seq_engine = ExperimentEngine(workers=1, cache=CellCache(enabled=True))
    par_engine = ExperimentEngine(
        workers=1, cache=CellCache(enabled=True), lp_workers=4
    )
    try:
        a = seq_engine._fingerprint(mpp_config, False)
        b = par_engine._fingerprint(mpp_config, False)
        assert a != b
    finally:
        seq_engine.close()
        par_engine.close()


def test_journal_key_separates_parallel_results(mpp_config, tmp_path):
    """A journal written by a sequential run must not serve a
    partitioned one (and vice versa): journal keys carry the LP suffix
    exactly like cache keys."""
    journal = tmp_path / "run.jsonl"
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), journal=journal
    ) as seq:
        seq.run_cells([mpp_config])
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), journal=journal,
        lp_workers=2,
    ) as par:
        par.run_cells([mpp_config])
    assert par.stats.cells_resumed == 0
    assert par.stats.cells_run == 1
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), journal=journal,
        lp_workers=2,
    ) as again:
        again.run_cells([mpp_config])
    assert again.stats.cells_resumed == 1


def test_env_parallel_cells_cached_under_parallel_key(
    mpp_config, tmp_path, monkeypatch
):
    """REPRO_DES_PARALLEL picks the partitioned kernel for an engine built
    with lp_workers=None, so the result must be stored under the LP key,
    never where a sequential engine would look."""
    monkeypatch.setenv("REPRO_DES_PARALLEL", "2")
    cache = CellCache(tmp_path / "cache")
    with ExperimentEngine(workers=1, cache=cache) as env_engine:
        (result,) = env_engine.run_cells([mpp_config])
        env_key = env_engine._fingerprint(mpp_config, False)
    assert env_engine.lp_workers == 2
    assert result.observability.get("lp_windows", 0) > 0  # partitioned
    assert cache.get(env_key) is not None
    monkeypatch.delenv("REPRO_DES_PARALLEL")
    with ExperimentEngine(workers=1, cache=cache) as seq:
        assert seq._fingerprint(mpp_config, False) != env_key
        seq.run_cells([mpp_config])
    assert seq.stats.cache_hits == 0


def test_explicit_lp_workers_on_ineligible_cell_is_counted(tmp_path):
    smp = SimulationConfig(
        architecture=Architecture.SMP, nodes=4, duration=100_000.0, seed=2,
    )
    with ExperimentEngine(
        workers=1, cache=CellCache(tmp_path), lp_workers=2
    ) as engine:
        (result,) = engine.run_cells([smp])
    assert engine.stats.lp_fallbacks == 1
    assert "1 ineligible for lp_workers" in engine.stats.summary()
    # It ran, and is cached, as the sequential cell it is.
    assert diff_results(simulate(smp), result) == []
    with ExperimentEngine(workers=1, cache=CellCache(tmp_path)) as seq:
        seq.run_cells([smp])
    assert seq.stats.cache_hits == 1
    assert "ineligible" not in seq.stats.summary()
