"""Tests of the end-to-end benchmark harness (run with ``pytest benchmarks/``)."""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import harness as h
import traced


def _span(pid, sid, parent, name, start, end, info=None):
    return [pid, sid, parent, name, start, end, info]


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        _span(1, 0, None, "root", 0.0, 10.0),
        _span(1, 1, 0, "a", 1.0, 4.0),
        _span(1, 2, 1, "a1", 2.0, 3.0),
        _span(1, 3, 0, "b", 5.0, 9.0),
        # Same ids in another process must not mix with pid 1.
        _span(2, 0, None, "root", 0.0, 2.0),
    ]
    own = h.self_times(spans)
    assert own == {(1, 0): 3.0, (1, 1): 2.0, (1, 2): 1.0, (1, 3): 4.0,
                   (2, 0): 2.0}


def test_recorder_nests_spans_and_layers_cover_the_process():
    ticks = iter([1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    rec = traced.Recorder(clock=lambda: next(ticks))
    outer = rec.open("startup.import")      # 1.0
    inner = rec.open("expdesign.ci")        # 2.0
    rec.close(inner)                        # 3.0
    rec.close(outer)                        # 4.0
    cli = rec.open("experiments.cli")       # 6.0
    rec.close(cli)                          # 9.0
    assert [s[2] for s in rec.spans] == [0, None, None]
    op = h.Op(wall=10.0, launch=0.0, exit=10.0)
    m = h.layer_metrics(rec.spans, op, untraced_wall=8.0)
    assert m["startup.import_s"] == 2.0
    assert m["expdesign.ci_s"] == 1.0
    assert m["expdesign.ci.calls"] == 1
    assert m["experiments.cli_s"] == 3.0
    assert m["startup.boot_s"] == 1.0
    assert m["startup.shutdown_s"] == 1.0
    # 2 s between the two root spans belong to no layer.
    assert m["trace.self_sum_frac"] == pytest.approx(0.8)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert set(m) == set(h.per_layer_names())


def test_nested_spans_of_one_name_count_once():
    spans = [
        _span(1, 0, None, "engine.run_cells", 0.0, 4.0,
              {"wall": 4.0, "cell_wall": 6.0, "workers": 2}),
        _span(1, 1, 0, "engine.run_cells", 0.5, 3.5,
              {"wall": 3.0, "cell_wall": 5.0, "workers": 2}),
    ]
    m = h.layer_metrics(spans, h.Op(wall=4.0, launch=0.0, exit=4.0), 4.0)
    assert m["engine.run_cells.calls"] == 1
    assert m["engine.run_cells_s"] == 4.0
    assert m["engine.worker_utilization"] == pytest.approx(6.0 / 8.0)
    assert m["engine.parent_overhead_s"] == pytest.approx(1.0)


def test_process_class_strips_node_prefix():
    assert traced.process_class("node12/app0/main") == "app"
    assert traced.process_class("node3/pd/collect") == "pd"
    assert traced.process_class("smp/pd1") == "pd"
    assert traced.process_class("paradyn-main") == "main"
    assert traced.process_class("phantom-forwarders") == "phantom"
    assert traced.process_class("warmup-reset") == "unattributed"


# ---------------------------------------------------------------------------
# Rebinding wrappers
# ---------------------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    """``e2efake.a`` defines ``f`` and ``Base.m``; ``e2efake.b`` copies
    ``f`` by ``from e2efake.a import f`` and overrides ``m``."""
    pkg = types.ModuleType("e2efake")
    pkg.__path__ = []
    a = types.ModuleType("e2efake.a")
    b = types.ModuleType("e2efake.b")
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    exec("def f(x):\n    return x + 1\n"
         "class Base:\n    def m(self):\n        return 'base'\n", a.__dict__)
    exec("from e2efake.a import f, Base\n"
         "def g(x):\n    return f(x) * 10\n"
         "class Child(Base):\n    def m(self):\n"
         "        return 'child+' + super().m()\n", b.__dict__)
    return a, b


def test_wrapper_rebinds_from_import_names_and_restores(fake_package):
    a, b = fake_package
    original_f, original_m = a.f, a.Base.m
    rec = traced.Recorder()
    restore = traced.install(
        rec, [("e2efake.a", "f", "fake.f"), ("e2efake.a", "Base.m", "fake.m")],
        prefix="e2efake",
    )
    assert b.f is a.f and b.f is not original_f
    assert b.g(1) == 20
    assert b.Child().m() == "child+base"
    names = [s[3] for s in rec.spans]
    assert names.count("fake.f") == 1
    assert names.count("fake.m") == 2  # Child.m and the Base.m it calls
    restore()
    assert a.f is original_f and b.f is original_f
    assert a.Base.m is original_m
    assert "m" in vars(b.Child) and b.Child().m() == "child+base"
    calls = len(rec.spans)
    b.g(1)
    assert len(rec.spans) == calls


# ---------------------------------------------------------------------------
# Output digest
# ---------------------------------------------------------------------------


def _artifact(tmp: Path, notes, rows):
    tmp.mkdir()
    doc = {"type": "group", "title": "t", "notes": notes, "parts": [
        {"type": "table", "title": "x", "headers": ["a"], "rows": rows,
         "notes": notes}]}
    (tmp / "table9.json").write_text(json.dumps(doc))
    return h.artifact_digest(tmp)


def test_digest_ignores_notes_but_not_rows(tmp_path):
    base = _artifact(tmp_path / "1", ["engine: 1.2s wall"], [[1.0], [2.0]])
    notes = _artifact(tmp_path / "2", ["engine: 9.9s wall"], [[1.0], [2.0]])
    row = _artifact(tmp_path / "3", ["engine: 1.2s wall"], [[1.0], [2.5]])
    assert base == notes
    assert base != row


def test_shape_check_catches_a_broken_claim(tmp_path):
    def figure27(tree):
        doc = {"type": "group", "title": "Figure 27", "notes": [], "parts": [
            {"type": "series", "title": "Pd CPU utilization/node (%)",
             "x": [2, 8], "series": {"direct": [0.2, 0.2], "tree": tree},
             "notes": []}]}
        (tmp_path / "figure27.json").write_text(json.dumps(doc))
        return h.shape_failures(tmp_path)

    assert figure27([0.3, 0.2]) == []
    assert figure27([0.3, 0.1]) == ["figure27 tree Pd CPU below direct"]


def test_engine_counts_parse_the_cli_summary():
    line = ("[engine: 18 cells (18 run, 0 cached, 0 failed) in 6.11s wall / "
            "6.00s cpu, 1 worker(s), 99% utilization, 7 pruned, "
            "14 replications saved]")
    assert h.engine_counts("noise\n" + line) == {
        "cells": 18, "cells_run": 18, "cache_hits": 0, "cells_failed": 0,
        "cells_pruned": 7, "replications_saved": 14,
    }
    assert h.engine_counts("no summary") == {}


# ---------------------------------------------------------------------------
# Compare verdicts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.2, 10.1, 10.3, 10.2, 10.0],
     "lower", "unchanged"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.2],
     "lower", "regressed"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.0, 8.2],
     "lower", "improved"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.0, 8.2],
     "higher", "regressed"),
    # Parent spread (IQR 40% of median) wider than the 10% bound.
    ([8.0, 12.0, 10.0, 7.0, 13.0], [10.5, 9.5, 10.0, 11.0, 9.0],
     "lower", "unresolved"),
    # ... unless every change run beats every parent run.
    ([8.0, 12.0, 10.0, 7.0, 13.0], [6.0, 6.5, 6.2, 5.9, 6.1],
     "lower", "improved"),
])
def test_verdicts(parent, change, better, expected):
    assert h.verdict(parent, change, better, 0.10) == expected


def _result(wall, failed_frac=0.0, digest="d1", events=5):
    return {"workloads": {"w": {
        "metrics": {"wall_s": {"values": wall}},
        "failed_frac": failed_frac,
        "digests": [digest],
        "counts": {"events": events},
    }}}


def test_compare_flags_regressions_failures_and_digests():
    bounds = {"wall_s": {"unit": "s", "better": "lower", "bound": 0.10}}
    same = _result([1.0, 1.01, 0.99])
    rows, bad = h.compare(same, _result([1.0, 1.02, 0.98]), bounds)
    assert not bad and "unchanged" in rows[0]
    rows, bad = h.compare(same, _result([1.5, 1.6, 1.4]), bounds)
    assert bad and "regressed" in rows[0]
    rows, bad = h.compare(same, _result([1.0, 1.0, 1.0], failed_frac=0.2),
                          bounds)
    assert bad and any("failed_frac" in r for r in rows)
    rows, bad = h.compare(same, _result([1.0, 1.0, 1.0], digest="d2",
                                        events=6), bounds)
    assert not bad
    assert any("digests differ" in r for r in rows)
    assert any("counts differ" in r for r in rows)


def test_benchmark_json_lists_every_metric():
    spec = json.loads(h.BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(h.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(h.per_layer_names())
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in h.WORKLOADS]


# ---------------------------------------------------------------------------
# Host-speed adjustment
# ---------------------------------------------------------------------------


def test_runner_scales_by_gauge_readings_around_each_child(tmp_path,
                                                           monkeypatch):
    readings = iter([0.14, 0.07, 0.035])
    monkeypatch.setattr(h, "host_gauge", lambda: next(readings))
    monkeypatch.setattr(h.Runner, "_last_gauge", None)
    runner = h.Runner(h.workload("big-cell"), tmp_path / "work", seed=1)
    argv = [sys.executable, "-c", "pass"]
    _, first = runner._run(argv, None, tmp_path / "a")
    # The reading after the first child is the second child's "before".
    _, second = runner._run(argv, None, tmp_path / "b")
    assert first == pytest.approx(h.GAUGE_NOMINAL_S / 0.105)
    assert second == pytest.approx(h.GAUGE_NOMINAL_S / 0.0525)


def test_op_metrics_adjust_times_but_not_memory():
    op = h.Op(wall=2.0, cpu=3.0, rss_mb=50.0, scale=0.5)
    assert h.op_metrics([op], [0.4]) == {
        "wall_s": [1.0], "setup_s": [0.4], "cpu_s": [1.5],
        "peak_rss_mb": [50.0],
    }


def test_run_child_kills_a_command_past_its_limit(tmp_path):
    ex = h.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                     h.child_env(None), tmp_path / "log", timeout=0.5)
    assert ex.timed_out and ex.code != 0
    assert ex.wall < 10
    assert h._exit_failures(ex)[0].startswith("killed at its time limit")


# ---------------------------------------------------------------------------
# Smoke run
# ---------------------------------------------------------------------------


def test_big_cell_smoke_run(tmp_path):
    out = tmp_path / "set.json"
    proc = subprocess.run(
        [sys.executable, str(h.HERE / "run.py"), "--only", "big-cell",
         "--rounds", "1", "--out", str(out)],
        cwd=h.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    wl = json.loads(out.read_text())["workloads"]["big-cell"]
    assert wl["failed_frac"] == 0.0
    assert wl["metrics"]["wall_s"]["n"] == 1
    assert wl["counts"]["events"] > 0 and wl["counts"]["samples_received"] > 0
    assert len(wl["digests"]) == 1
    assert wl["layers"]["des.events"] == wl["counts"]["events"]
    assert wl["layers"]["des.calendar_cells"] == 1
