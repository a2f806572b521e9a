"""``scripts/check_bench_regression.py``: the committed-baseline gate.

A baseline entry the results file does not contain must fail the gate
and be named, so a benchmark deleted or renamed by mistake cannot pass
unnoticed.  A benchmark that records a per-round ratio is gated on
it, not on the ratio of its min to the floor's.
"""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_bench_regression.py"

BASELINE = {
    "meta": {"normalize_to": "test_floor", "tolerance": 0.25},
    "baseline": {
        "test_floor": {"min": 0.01, "ratio": 1.0},
        "test_kept": {"min": 0.02, "ratio": 2.0},
        "test_deleted": {"min": 0.03, "ratio": 3.0},
    },
}


def _gate(tmp_path, names, mode="relative"):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(BASELINE))
    results = tmp_path / "results.json"
    results.write_text(json.dumps({"benchmarks": [
        {"name": name, "stats": {"min": BASELINE["baseline"][name]["min"]}}
        for name in names
    ]}))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(results), "--baseline",
         str(baseline), "--mode", mode],
        capture_output=True, text=True, timeout=60,
    )


def test_every_baseline_entry_present_passes(tmp_path):
    proc = _gate(tmp_path, ["test_floor", "test_kept", "test_deleted"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all benchmarks within tolerance" in proc.stdout


def test_a_deleted_benchmark_fails_the_gate(tmp_path):
    for mode in ("relative", "absolute"):
        proc = _gate(tmp_path, ["test_floor", "test_kept"], mode)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "MISS test_deleted" in proc.stdout
        assert "test_deleted: missing" in proc.stdout
        assert "test_kept" not in proc.stdout.split("or missing:")[1]


def _per_round_gate(tmp_path, floor_min, kept_min, kept_ratio, update=False):
    """Gate ``test_kept`` (min *kept_min*, recorded per-round ratio
    *kept_ratio*, none if None) against a baseline entry marked
    ``per_round``."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "meta": {"normalize_to": "test_floor", "tolerance": 0.25},
        "baseline": {
            "test_floor": {"min": 0.01, "ratio": 1.0},
            "test_kept": {"min": 0.02, "ratio": 2.0, "per_round": True},
        },
    }))
    kept = {"name": "test_kept", "stats": {"min": kept_min}}
    if kept_ratio is not None:
        kept["extra_info"] = {"floor_ratio": kept_ratio}
    results = tmp_path / "results.json"
    results.write_text(json.dumps({"benchmarks": [
        {"name": "test_floor", "stats": {"min": floor_min}}, kept]}))
    args = ["--update"] if update else ["--mode", "relative"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(results), "--baseline",
         str(baseline), *args],
        capture_output=True, text=True, timeout=60,
    )
    return proc, json.loads(baseline.read_text())


def test_per_round_ratio_ignores_a_quiet_floor_min(tmp_path):
    """A floor min that fell 40 % in one quiet stretch would put the
    ratio of mins at 3.33, over the bound; the recorded per-round ratio
    gates instead."""
    proc, _ = _per_round_gate(tmp_path, 0.006, 0.02, 2.0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ratio 2.000 vs baseline 2.000" in proc.stdout


def test_per_round_ratio_still_fails_a_30_percent_slowdown(tmp_path):
    proc, _ = _per_round_gate(tmp_path, 0.01, 0.026, 2.6)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL test_kept: ratio 2.600 vs baseline 2.000" in proc.stdout


def test_per_round_baseline_needs_the_recorded_ratio(tmp_path):
    proc, _ = _per_round_gate(tmp_path, 0.01, 0.02, None)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "gates 'test_kept' on per-round ratios" in proc.stderr


def test_update_without_a_recorded_ratio_gates_the_ratio_of_mins(tmp_path):
    proc, written = _per_round_gate(tmp_path, 0.01, 0.03, None, update=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert written["baseline"]["test_kept"] == {"min": 0.03, "ratio": 3.0}


def test_per_round_update_writes_the_recorded_ratio(tmp_path):
    proc, written = _per_round_gate(tmp_path, 0.01, 0.03, 2.7, update=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert written["baseline"] == {
        "test_floor": {"min": 0.01, "ratio": 1.0},
        "test_kept": {"min": 0.03, "ratio": 2.7, "per_round": True},
    }
