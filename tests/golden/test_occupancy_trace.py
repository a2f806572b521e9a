"""Golden master of a traced run's occupancy tracks.

A traced run hooks an :class:`~repro.rocc.system._OccupancyWatcher` on
every CPU's and the FIFO network's busy level; it turns level changes
into busy spans and counter samples.  ``occupancy_trace.json`` pins
every such record — ``[tid, ts, dur]`` per span, ``[track, ts, level]``
per counter sample — of two cells: a 4-node NOW cell (node CPUs, the
host CPU and the shared Ethernet) and an SMP cell, whose pooled CPUs
reach levels above 1.  The file is compared as text, so a level that
turns from ``1.0`` into ``1`` (and changes the trace JSON) fails too.
Regenerate with ``python -m pytest tests/golden --update-golden``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import Tracer, use_tracing
from repro.rocc.system import ParadynISSystem

from .test_golden_master import CONFIGS, GOLDEN_DIR

PATH = GOLDEN_DIR / "occupancy_trace.json"

TRACED = {
    "now": CONFIGS["now"].with_(duration=100_000.0),
    "smp": CONFIGS["smp"].with_(duration=100_000.0),
}


def occupancy_records(config) -> dict:
    """The occupancy spans and counter samples of one traced run."""
    tracer = Tracer()
    with use_tracing(tracer):
        ParadynISSystem(config).run()
    batch = tracer.batch()
    return {
        "spans": [[s.tid, s.ts, s.dur] for s in batch.spans
                  if s.cat == "occupancy"],
        "counters": [[c.name, c.ts, c.values["level"]]
                     for c in batch.counters],
    }


def render(doc: dict) -> str:
    """JSON text with one record per line, so a drift diffs by line."""
    tables = []
    for cell, records in doc.items():
        for kind, rows in records.items():
            body = ",\n".join(json.dumps(row) for row in rows)
            tables.append(f'"{cell}/{kind}": [\n{body}\n]')
    return "{\n" + ",\n".join(tables) + "\n}\n"


def test_occupancy_trace_golden(request: pytest.FixtureRequest) -> None:
    doc = {name: occupancy_records(cfg) for name, cfg in TRACED.items()}
    text = render(doc)
    if request.config.getoption("--update-golden"):
        PATH.write_text(text)
        pytest.skip(f"occupancy snapshot {PATH.name} regenerated")
    assert text.splitlines() == PATH.read_text().splitlines()
    assert text == PATH.read_text()


def test_occupancy_golden_covers_every_track_kind() -> None:
    """The NOW cell has rows for the node CPUs, the host CPU and the
    FIFO network; the SMP cell's pooled CPUs run more than one busy
    processor at a time."""
    golden = json.loads(PATH.read_text())
    now_tracks = {tid for tid, _, _ in golden["now/spans"]}
    assert {"node0.cpu", "node3.cpu", "host.cpu", "network"} <= now_tracks
    smp_levels = {level for name, _, level in golden["smp/counters"]
                  if name == "node0.cpu.level"}
    assert max(smp_levels) > 1.0
