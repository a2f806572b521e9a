"""``scripts/check_bench_regression.py``: the committed-baseline gate.

A baseline entry the results file does not contain must fail the gate
and be named, so a benchmark deleted or renamed by mistake cannot pass
unnoticed.
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
