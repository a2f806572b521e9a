"""Kernel observability continuity on the 64-node contention-free cell.

The per-kind and per-process-class event counts of ``now_cf64`` are
pinned in ``now_cf64_events.json``.  However the model's processes are
implemented, the kernel must process the same events, the tracers must
classify them the same way (``des.tracing.event_kind``), and the
profiler must attribute them to the same named processes.  Regenerate
with ``python -m pytest tests/golden --update-golden``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.des.profiling import KernelProfiler
from repro.rocc.system import ParadynISSystem

from .test_golden_master import CONFIGS, GOLDEN_DIR

PATH = GOLDEN_DIR / "now_cf64_events.json"


def event_profile(config) -> dict:
    """Event counts of one run by kind, by process class (the process
    name without its ``nodeN/`` prefix), and the distinct names seen."""
    system = ParadynISSystem(config)
    profiler = KernelProfiler(system.env, top_n=1 << 20)
    with profiler:
        system.env.run(until=config.duration)
    report = profiler.report()
    classes: dict = {}
    for name, row in report["by_process"].items():
        cls = re.sub(r"^node\d+/", "", name)
        classes[cls] = classes.get(cls, 0) + row["count"]
    return {
        "events": report["events"],
        "by_kind": {k: row["count"] for k, row in report["by_kind"].items()},
        "by_process_class": dict(sorted(classes.items())),
        "process_names": len(report["by_process"]),
    }


def test_now_cf64_event_counts(request: pytest.FixtureRequest) -> None:
    actual = event_profile(CONFIGS["now_cf64"])
    if request.config.getoption("--update-golden"):
        PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"event-count snapshot {PATH.name} regenerated")
    assert actual == json.loads(PATH.read_text())
