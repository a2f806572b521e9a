"""The workload characterization behind Tables 1–3 and Figure 8 is a
plain-data record kept in the engine's cell cache: a warm rerun only
formats it, gives the same artifacts, and loads neither the trace
synthesizer nor the fitting code."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import engine as engine_mod
from repro.experiments import workload_exp
from repro.experiments.engine import CellCache, ExperimentEngine
from repro.experiments.registry import run
from repro.experiments.reporting import artifact_to_dict

SRC = Path(__file__).resolve().parents[2] / "src"
IDS = ("table1", "table2", "table3", "figure8")


def _strip_notes(node):
    if isinstance(node, dict):
        return {k: _strip_notes(v) for k, v in node.items() if k != "notes"}
    if isinstance(node, list):
        return [_strip_notes(v) for v in node]
    return node


def _run(id_, cache_dir, enabled=None):
    engine = ExperimentEngine(cache=CellCache(cache_dir, enabled=enabled))
    return run(id_, quick=True, engine=engine), engine


def _notes(artifact):
    return [n for n in artifact.notes if n.startswith("workload characterization")]


def _entries(root):
    return sorted(p.name for p in Path(root).rglob("*.pkl"))


@pytest.mark.parametrize("id_", IDS)
def test_cold_and_warm_runs_match_apart_from_notes(tmp_path, id_):
    cold, _ = _run(id_, tmp_path)
    warm, engine = _run(id_, tmp_path)
    assert _notes(cold) == ["workload characterization: computed"]
    assert _notes(warm) == ["workload characterization: cached"]
    assert (json.dumps(_strip_notes(artifact_to_dict(cold)), sort_keys=True)
            == json.dumps(_strip_notes(artifact_to_dict(warm)), sort_keys=True))
    # Characterization reads are not engine cells; table3's one
    # validation cell is.
    cells = 1 if id_ == "table3" else 0
    assert engine.stats.cells_submitted == cells
    assert engine.stats.cache_hits == cells
    assert engine.stats.cells_run == 0


def test_table1_table2_and_figure8_share_one_record(tmp_path):
    for id_ in ("table1", "table2", "figure8"):
        _run(id_, tmp_path)
    assert len(_entries(tmp_path)) == 1


def test_key_follows_seed_scale_and_code_salt(monkeypatch):
    key = workload_exp._characterization_key
    base = key(workload_exp._pvmbt_tracing(True, 11))
    assert key(workload_exp._pvmbt_tracing(True, 11)) == base
    assert key(workload_exp._pvmbt_tracing(True, 12)) != base
    assert key(workload_exp._pvmbt_tracing(False, 11)) != base
    assert key(workload_exp._validation_tracing(True, 11)) != base
    monkeypatch.setattr(engine_mod, "_code_version", None)
    monkeypatch.setenv("REPRO_CACHE_SALT", "another build")
    assert key(workload_exp._pvmbt_tracing(True, 11)) != base


def test_corrupt_entry_is_quarantined_and_recomputed(tmp_path):
    cold, _ = _run("table2", tmp_path)
    (entry,) = Path(tmp_path).rglob("*.pkl")
    entry.write_bytes(entry.read_bytes()[:-7] + b"garbage")
    again, engine = _run("table2", tmp_path)
    assert _notes(again) == [
        "workload characterization: computed (corrupt cache entry quarantined)"
    ]
    assert engine.cache.corrupt_entries == 1
    assert entry.name in os.listdir(engine.cache.quarantine_dir)
    assert again.rows == cold.rows
    warm, _ = _run("table2", tmp_path)
    assert _notes(warm) == ["workload characterization: cached"]


def test_cache_off_recomputes_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CELL_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for _ in range(2):
        artifact = run("table2", quick=True, engine=ExperimentEngine())
        assert _notes(artifact) == ["workload characterization: computed"]
    assert list(Path(tmp_path).iterdir()) == []


def test_cache_rejects_an_entry_of_another_kind(tmp_path):
    cache = CellCache(tmp_path, enabled=True)
    cache.put("ab" * 32, {"fits": []})
    assert cache.get("ab" * 32, kind=dict) == {"fits": []}
    assert cache.get("ab" * 32) is None  # not a SimulationResults
    assert cache.corrupt_entries == 1


PROBE = """
import json, sys
import repro.experiments.__main__ as cli
status = cli.main(sys.argv[1:])
print(json.dumps({"status": status, "modules": sorted(
    m for m, mod in sys.modules.items() if mod is not None)}))
"""

#: What a warm rerun of the characterization artifacts never loads.
WARM_UNUSED = ("numpy.random", "repro.workload.tracing",
               "repro.variates.fitting", "repro.variates.goodness",
               "repro.rocc.system")


def test_warm_cli_run_loads_no_trace_fit_or_simulator_code(tmp_path):
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"),
               REPRO_WORKERS="1", PYTHONHASHSEED="0")
    env.pop("REPRO_CELL_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    runs = [
        subprocess.run([sys.executable, "-c", PROBE, *IDS], env=env,
                       capture_output=True, text=True, timeout=300)
        for _ in range(2)
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-2000:]
    cold, warm = (json.loads(p.stdout.strip().splitlines()[-1]) for p in runs)
    assert "repro.workload.tracing" in cold["modules"]
    loaded = [m for m in warm["modules"]
              if any(m == u or m.startswith(u + ".") for u in WARM_UNUSED)]
    assert loaded == []
    assert "[engine: 1 cells (1 run, 0 cached, 0 failed)" in runs[0].stderr
    assert "[engine: 1 cells (0 run, 1 cached, 0 failed)" in runs[1].stderr
    assert "workload characterization: cached" in runs[1].stdout
