"""End-to-end CLI tests: ``python -m repro.experiments`` / ``repro.rocc``.

The experiments CLI runs as a real subprocess with ``--workers``,
``--no-cache``, and ``--trace-out`` and must produce a valid Chrome
``trace_event`` document: monotone ``ts``, matched B/E pairs, pid/tid
on every event — checked both by :func:`repro.obs.validate_trace_events`
and independently here, so the validator itself is under test too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import validate_trace_events

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(module: str, args, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_PROFILE", None)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=420,
    )


@pytest.fixture(scope="module")
def traced_cli_run(tmp_path_factory: pytest.TempPathFactory):
    """One traced engine experiment through the real CLI (module-scoped:
    the run is the expensive part, the assertions are cheap)."""
    tmp = tmp_path_factory.mktemp("cli")
    trace_path = tmp / "trace.json"
    proc = _run_cli(
        "repro.experiments",
        ["figure17", "--workers", "2", "--no-cache",
         "--trace-out", str(trace_path)],
        cwd=tmp,
    )
    assert proc.returncode == 0, proc.stderr
    assert trace_path.is_file(), "CLI did not write the trace file"
    return proc, json.loads(trace_path.read_text())


def test_cli_reports_trace_and_engine(traced_cli_run) -> None:
    proc, _ = traced_cli_run
    assert "figure17 completed" in proc.stdout
    assert "[engine:" in proc.stderr
    assert "trace summary:" in proc.stderr
    assert "[trace written to" in proc.stderr


def test_cli_trace_validates(traced_cli_run) -> None:
    _, doc = traced_cli_run
    assert validate_trace_events(doc) == []
    assert doc.get("displayTimeUnit") == "ms"
    assert "metrics" in doc.get("otherData", {})


def test_cli_trace_structure_independently(traced_cli_run) -> None:
    """Re-check the trace invariants without trusting the validator."""
    _, doc = traced_cli_run
    events = doc["traceEvents"]
    assert events, "empty trace"
    last_ts = None
    stacks: dict = {}
    for event in events:
        if event["ph"] == "M":
            continue
        assert isinstance(event["ts"], (int, float))
        assert "pid" in event and "tid" in event
        if last_ts is not None:
            assert event["ts"] >= last_ts, "ts not monotone"
        last_ts = event["ts"]
        track = (event["pid"], event["tid"])
        if event["ph"] == "B":
            stacks.setdefault(track, []).append(event["name"])
        elif event["ph"] == "E":
            assert stacks.get(track), f"E without B on {track}"
            assert stacks[track].pop() == event["name"]
    assert all(not s for s in stacks.values()), "unclosed B events"


def test_cli_trace_spans_three_layers_two_workers(traced_cli_run) -> None:
    """The ISSUE's acceptance shape: spans from the engine-cell,
    simulation-run, and resource-occupancy layers, merged from at least
    two worker processes."""
    _, doc = traced_cli_run
    events = doc["traceEvents"]
    cats = {e.get("cat") for e in events if e.get("ph") == "B"}
    assert {"engine.cell", "run", "occupancy"} <= cats
    worker_pids = {
        e["pid"] for e in events if e.get("cat") == "engine.cell"
    }
    assert len(worker_pids) >= 2, (
        f"cells ran in {worker_pids} — expected >= 2 worker processes"
    )


def test_cli_jsonl_export(tmp_path: Path) -> None:
    """The rocc CLI writes JSONL when the path says so."""
    trace_path = tmp_path / "run.jsonl"
    proc = _run_cli(
        "repro.rocc",
        ["--nodes", "2", "--duration-s", "0.2",
         "--trace-out", str(trace_path)],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = trace_path.read_text().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    kinds = {r["type"] for r in records}
    assert {"span", "counter", "metric"} <= kinds


def test_cli_trace_env_knob(tmp_path: Path) -> None:
    """REPRO_TRACE enables tracing without the flag."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_TRACE"] = "env-trace.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.rocc",
         "--nodes", "2", "--duration-s", "0.2"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "env-trace.json").read_text())
    assert validate_trace_events(doc) == []


def test_cli_lp_workers_validation(tmp_path: Path) -> None:
    proc = _run_cli(
        "repro.experiments",
        ["figure9", "--lp-workers", "0"],
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "--lp-workers must be >= 1" in proc.stderr
