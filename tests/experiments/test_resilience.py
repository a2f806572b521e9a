"""Tests for the resilience layer: retries, deadlines, journal resume.

The contract under test is the same determinism the engine tests lean
on, extended across failures: a sweep that loses workers, breaches
deadlines, or resumes from a journal must converge to results
bit-identical to an undisturbed serial run.
"""

import json
import pickle

import pytest

from repro.des import SimulationStalled
from repro.experiments import (
    CellCache,
    CellError,
    ExperimentEngine,
    FailureReport,
    RetryPolicy,
    RunJournal,
    config_fingerprint,
    results_equal,
)
from repro.experiments.chaos import ChaosPlan, chaos_key, install_chaos
from repro.experiments.resilience import DEFAULT_TRANSIENT
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


def _cell_error(cfg, exc):
    return CellError.from_exception(cfg, exc)


def _reference(cells):
    with ExperimentEngine(workers=1, cache=CellCache(enabled=False)) as eng:
        return eng.run_cells(cells)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_jitter=1.0)
    assert RetryPolicy.none().max_attempts == 1


def test_retry_policy_classifies_by_exception_class(cfg):
    policy = RetryPolicy(max_attempts=3)
    stalled = _cell_error(cfg, SimulationStalled("stalled at t=1"))
    assert policy.error_class(stalled) == "SimulationStalled"
    assert policy.is_transient(stalled)
    assert policy.should_retry(stalled, attempt=1)
    assert policy.should_retry(stalled, attempt=2)
    assert not policy.should_retry(stalled, attempt=3)  # budget exhausted
    # Deterministic model errors are never retried.
    bad = _cell_error(cfg, ValueError("nodes must be positive"))
    assert not policy.is_transient(bad)
    assert not policy.should_retry(bad, attempt=1)
    for name in DEFAULT_TRANSIENT:
        assert name in policy.retry_on


def test_retry_policy_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                         backoff_jitter=0.5)
    for attempt in (1, 2, 3):
        nominal = 0.1 * 2.0 ** (attempt - 1)
        d = policy.delay(attempt, key="cell-a")
        assert d == policy.delay(attempt, key="cell-a")  # deterministic
        assert 0.5 * nominal <= d <= 1.5 * nominal
    # Jitter decorrelates cells without randomness.
    assert policy.delay(1, key="cell-a") != policy.delay(1, key="cell-b")
    no_jitter = RetryPolicy(backoff_base=0.1, backoff_jitter=0.0)
    assert no_jitter.delay(3, key="anything") == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# RunJournal
# ---------------------------------------------------------------------------


def test_journal_roundtrip(cfg, tmp_path):
    path = tmp_path / "run.jsonl"
    results = _reference([cfg])[0]
    key = config_fingerprint(cfg)
    with RunJournal(path) as journal:
        journal.record_attempt(key, 1)
        journal.record_success(key, results, attempt=1, wall=0.25)
    reloaded = RunJournal(path)
    assert reloaded.completed_keys() == {key}
    assert results_equal(reloaded.result_for(key), results)
    assert reloaded.result_for("missing") is None
    reloaded.close()


def test_journal_tolerates_torn_tail_and_bad_checksum(cfg, tmp_path):
    path = tmp_path / "run.jsonl"
    results = _reference([cfg])[0]
    key = config_fingerprint(cfg)
    with RunJournal(path) as journal:
        journal.record_success(key, results)
        journal.record_failure("other-key", 3, "SimulationStalled: boom")
    # Corrupt the success checksum and append a torn (partial) line.
    lines = path.read_text().splitlines()
    patched = []
    for line in lines:
        rec = json.loads(line)
        if rec.get("event") == "success":
            rec["sha256"] = "0" * 64
        patched.append(json.dumps(rec))
    patched.append('{"event": "succ')  # crash mid-append
    path.write_text("\n".join(patched) + "\n")

    reloaded = RunJournal(path)
    # The damaged success is not served (worst case: recompute).
    assert reloaded.result_for(key) is None
    assert reloaded.skipped_records == 2
    assert reloaded.failed == {"other-key": "SimulationStalled: boom"}
    reloaded.close()


# ---------------------------------------------------------------------------
# Cache integrity (checksums, quarantine, crash-safe writes)
# ---------------------------------------------------------------------------


def test_cache_put_writes_checksum_sidecar(cfg, tmp_path):
    import hashlib

    cache = CellCache(tmp_path)
    results = _reference([cfg])[0]
    key = config_fingerprint(cfg)
    cache.put(key, results)
    blob = cache.path_for(key).read_bytes()
    sidecar = cache.checksum_path_for(key)
    assert sidecar.read_text().strip() == hashlib.sha256(blob).hexdigest()
    assert results_equal(cache.get(key), results)
    # No stray tmp files from the atomic write protocol.
    assert not list(tmp_path.glob("*.tmp*"))


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


def test_cache_accepts_legacy_entry_without_sidecar(cfg, tmp_path):
    cache = CellCache(tmp_path)
    results = _reference([cfg])[0]
    key = config_fingerprint(cfg)
    cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
    cache.path_for(key).write_bytes(
        pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert not cache.checksum_path_for(key).exists()
    assert results_equal(cache.get(key), results)


# ---------------------------------------------------------------------------
# Engine retries, deadlines, partial results
# ---------------------------------------------------------------------------


def test_serial_transient_failure_is_retried(cfg, tmp_path):
    reference = _reference([cfg])
    plan = ChaosPlan(state_dir=str(tmp_path / "state"),
                     raise_once=(chaos_key(cfg),))
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False),
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
    ) as engine:
        install_chaos(engine, plan)
        out = engine.run_cells([cfg])
    assert results_equal(out[0], reference[0])
    assert engine.stats.retries == 1
    assert not engine.failure_report
    assert "1 retries" in engine.stats.summary()


def test_deadline_breach_nonstrict_returns_partial_results(cfg):
    slow = cfg.with_(duration=1e10)  # far more work than 0.2 s allows
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False),
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        cell_timeout=0.2, strict=False,
    ) as engine:
        quick, lost = engine.run_cells([cfg, slow])
    assert results_equal(quick, _reference([cfg])[0])
    assert isinstance(lost, CellError)
    assert lost.error.startswith("SimulationStalled")
    report = engine.failure_report
    assert report  # truthy: a cell was lost
    assert report.failures[0].attempts == 2
    assert report.cell_timeouts == 2  # both attempts breached
    assert engine.stats.cell_timeouts == 2
    summary, line = report.format().splitlines()
    assert "1 cell(s) failed" in summary and "2 deadline breaches" in summary
    assert "SimulationStalled" in line and line.endswith("(after 2 attempt(s))")


def test_deadline_breach_strict_raises(cfg):
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False),
        retry=RetryPolicy.none(), cell_timeout=0.2,
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
    assert engine.stats.cell_timeouts == 0
    assert engine.stats.retries == 0


def test_engine_validates_parameters():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentEngine(cell_timeout=bad)


def test_engine_defaults_are_plain():
    """No retries, no deadline, no journal, strict: a failure raises on
    the first attempt."""
    engine = ExperimentEngine(cache=CellCache(enabled=False))
    assert engine.retry == RetryPolicy.none()
    assert engine.cell_timeout is None
    assert engine.journal is None
    assert engine.strict


def test_failure_report_summary_and_format(cfg):
    report = FailureReport()
    assert not report
    report.retries = 3
    report.add(cfg, "k" * 16, 2,
               _cell_error(cfg, SimulationStalled("stalled")))
    assert report
    assert "1 cell(s) failed" in report.summary()
    assert "3 retries" in report.summary()
    assert "after 2 attempt(s)" in report.format()


# ---------------------------------------------------------------------------
# Journal resume: zero re-simulation, bit-identical metrics
# ---------------------------------------------------------------------------


def test_resume_skips_completed_cells_and_matches(cfg, tmp_path):
    cells = [cfg.with_(replication=i) for i in range(4)]
    reference = _reference(cells)
    journal = tmp_path / "sweep.jsonl"

    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), journal=journal,
    ) as first:
        first.run_cells(cells[:2])  # interrupted after two cells
    assert first.stats.cells_run == 2

    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), journal=journal,
    ) as second:
        resumed = second.run_cells(cells)
    assert second.stats.cells_resumed == 2
    assert second.stats.cells_run == 2  # only the remainder simulated
    for a, b in zip(reference, resumed):
        assert results_equal(a, b)
    assert "2 resumed" in second.stats.summary()


def test_resume_works_without_cache_and_across_config_changes(cfg, tmp_path):
    journal = tmp_path / "sweep.jsonl"
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), journal=journal,
    ) as first:
        first.run_cells([cfg])
    # A changed config produces a different fingerprint: no false resume.
    other = cfg.with_(seed=6)
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False), journal=journal,
    ) as second:
        second.run_cells([other])
    assert second.stats.cells_resumed == 0
    assert second.stats.cells_run == 1


def test_journal_records_failures(cfg, tmp_path):
    journal_path = tmp_path / "fail.jsonl"
    slow = cfg.with_(duration=1e10)
    with ExperimentEngine(
        workers=1, cache=CellCache(enabled=False),
        retry=RetryPolicy.none(), cell_timeout=0.2,
        journal=journal_path, strict=False,
    ) as engine:
        engine.run_cells([slow])
    events = [json.loads(line)["event"]
              for line in journal_path.read_text().splitlines()]
    assert events[0] == "journal"
    assert "attempt" in events and "failure" in events
    reloaded = RunJournal(journal_path)
    assert reloaded.failed  # the breach is on record, not resumable
    reloaded.close()
