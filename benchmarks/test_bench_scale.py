"""Scale benchmarks: events/sec and peak RSS as cells grow.

The calendar-queue scheduler and the streaming statistics layer exist
so that one *large* cell stays fast and memory-flat; these benchmarks
measure exactly that promise at 64, 256, and 1024 NOW nodes.

Peak RSS (``ru_maxrss``) is monotonic over a process's lifetime, so
each node count runs in its own subprocess and reports a JSON record;
running them in-process would let the 64-node run inherit the 1024-node
high-water mark (or vice versa).

Committed baseline: ``BENCH_SCALE.json``, gated in CI by
``scripts/check_bench_regression.py --mode relative`` (wall times
normalized to the 64-node run, so runner speed cancels out while
superlinear scaling — the regression these benchmarks exist to catch —
does not).  The 1024-node cell's construction time is gated the same
way (``scale_now_1024n_build``): it catches per-stream seeding costs
coming back.  Set ``REPRO_SCALE_RESULTS=<path>`` to emit the results in
``--benchmark-json``-compatible form for that gate::

    PYTHONPATH=src REPRO_SCALE_RESULTS=scale_results.json \
        python -m pytest benchmarks/test_bench_scale.py -q
    python scripts/check_bench_regression.py scale_results.json \
        --baseline BENCH_SCALE.json --mode relative
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

NODE_COUNTS = (64, 256, 1024)
DURATION = 1_000_000.0  # one simulated second
SEED = 1

_SRC = Path(__file__).resolve().parent.parent / "src"

# Self-contained probe: build and run one NOW cell, report construction
# and run wall times, kernel event count (scheduler dequeues), and the
# process's peak RSS as one JSON line on stdout.  argv: nodes duration seed.
_PROBE = r"""
import json, resource, sys, time
from repro.rocc.config import Architecture, SimulationConfig
from repro.rocc.system import ParadynISSystem

nodes, duration, seed = int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3])
t0 = time.perf_counter()
system = ParadynISSystem(SimulationConfig(
    architecture=Architecture.NOW, nodes=nodes, duration=duration, seed=seed,
))
build = time.perf_counter() - t0
t0 = time.perf_counter()
results = system.run()
wall = time.perf_counter() - t0
stats = system.env.scheduler.stats()
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
print(json.dumps({
    "nodes": nodes,
    "build_seconds": build,
    "wall_seconds": wall,
    "events": stats["dequeues"],
    "events_per_second": stats["dequeues"] / wall if wall > 0 else 0.0,
    "queue_impl": stats["impl"],
    "maxrss_kb": maxrss,
    "samples_received": results.samples_received,
}))
"""


def _run_probe(nodes: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("PYTHONHASHSEED", "0")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(nodes), str(DURATION), str(SEED)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, (
        f"{nodes}-node probe failed:\n{proc.stderr}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def scale_probes():
    """One subprocess run per node count, shared by every test below."""
    probes = {n: _run_probe(n) for n in NODE_COUNTS}
    out = os.environ.get("REPRO_SCALE_RESULTS")
    if out:
        payload = {"benchmarks": [
            {"name": f"scale_now_{n}n", "stats": {"min": p["wall_seconds"]}}
            for n, p in probes.items()
        ] + [
            # Construction of the largest cell, normalized like the rest
            # to the 64-node run: catches per-stream seeding coming back.
            {"name": "scale_now_1024n_build",
             "stats": {"min": probes[1024]["build_seconds"]}},
        ]}
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return probes


@pytest.mark.parametrize("nodes", NODE_COUNTS)
def test_scale_cell_completes(scale_probes, nodes):
    """Each cell runs to the full horizon and does real work."""
    probe = scale_probes[nodes]
    assert probe["events"] > 0
    assert probe["samples_received"] > 0
    assert probe["events_per_second"] > 0


def test_scale_throughput_does_not_collapse(scale_probes):
    """Events/sec at 1024 nodes stays within 3x of the 64-node rate.

    An O(1) scheduler keeps per-event cost roughly flat as the schedule
    deepens; a heap regression shows up here as a widening gap long
    before the absolute gate in BENCH_SCALE.json trips.
    """
    small = scale_probes[64]["events_per_second"]
    large = scale_probes[1024]["events_per_second"]
    assert large > small / 3.0, (
        f"events/sec collapsed: {small:,.0f} at 64n -> {large:,.0f} at 1024n"
    )


def test_scale_memory_is_flat(scale_probes):
    """Peak RSS at 1024 nodes stays within 1.9x of 256 nodes.

    The streaming statistics layer (P^2 quantiles + reservoir, capped
    tallies, capped raw latency series) makes per-*sample* memory O(1),
    and variate-stream buffers grow geometrically with consumption
    instead of prefilling full blocks, so per-node memory is dominated
    by the irreducible object graph: ~13 named variate streams per node
    (the common-random-numbers design), each with a PCG64 generator
    created on its first draw, plus the daemon/application/CPU/pipe
    entities.  Measured on the reference
    machine: 47 MiB at 256n vs 78 MiB at 1024n (1.66x); before the
    buffer-growth fix the same sweep was 161 -> 530 MiB (3.29x).  The
    1.9x bound holds that per-node slope: an eager per-stream prefill
    or an unbounded per-sample buffer reappearing anywhere trips it
    immediately.
    """
    rss_256 = scale_probes[256]["maxrss_kb"]
    rss_1024 = scale_probes[1024]["maxrss_kb"]
    assert rss_1024 <= rss_256 * 1.9, (
        f"peak RSS grew {rss_1024 / rss_256:.2f}x from 256n "
        f"({rss_256} KiB) to 1024n ({rss_1024} KiB)"
    )
