"""Scale benchmarks: events/sec and peak RSS as cells grow.

The calendar-queue scheduler and the lean per-node object graph exist
so that one *large* cell stays fast and memory-flat; these benchmarks
measure exactly that promise at 64, 256, and 1024 NOW nodes.

Peak RSS (``ru_maxrss``) is monotonic over a process's lifetime, so
each node count runs in its own subprocess and reports a JSON record;
running them in-process would let the 64-node run inherit the 1024-node
high-water mark (or vice versa).  Each probe runs :data:`ROUNDS` times:
a cell's wall and build times are the minimum over its rounds (one run
of 0.06–0.8 s on a shared host is too noisy to gate on) and its peak
RSS the maximum.  The 64-node run, which every gated ratio divides by,
is the shortest and the noisiest, so it gets the most rounds, and each
node count's rounds are spread evenly over the whole benchmark, so a
slow stretch of a shared host slows every count alike.

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
#: Subprocess runs per node count.
ROUNDS = {64: 9, 256: 3, 1024: 3}

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


def _run_probe_once(nodes: int) -> dict:
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


def _best(rounds: list) -> dict:
    """The fastest of one cell's rounds, with build time the minimum and
    peak RSS the maximum of all rounds.  Every round simulates the same
    seeded cell, so the event and sample counts agree."""
    best = dict(min(rounds, key=lambda r: r["wall_seconds"]))
    best["build_seconds"] = min(r["build_seconds"] for r in rounds)
    best["maxrss_kb"] = max(r["maxrss_kb"] for r in rounds)
    assert {(r["events"], r["samples_received"]) for r in rounds} == {
        (best["events"], best["samples_received"])}
    return best


@pytest.fixture(scope="module")
def scale_probes():
    """:data:`ROUNDS` subprocess runs per node count, interleaved in
    the order of each round's fraction of its count's rounds, and
    shared by every test below."""
    rounds = {n: [] for n in NODE_COUNTS}
    for _, nodes in sorted((r / ROUNDS[n], n)
                           for n in NODE_COUNTS for r in range(ROUNDS[n])):
        rounds[nodes].append(_run_probe_once(nodes))
    probes = {n: _best(rs) for n, rs in rounds.items()}
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

    Per-*sample* memory is the two latency series' 16 bytes per receipt
    (about 0.4 MiB for the 1024-node second's ~25,600 receipts), and
    variate-stream buffers grow geometrically with consumption
    instead of prefilling full blocks, so per-node memory is dominated
    by the irreducible object graph: ~13 named variate streams per node
    (the common-random-numbers design), each keeping a 40-byte PCG64
    state record once it draws (the cell shares one generator), plus the
    daemon/application/CPU/pipe entities.  Measured on the reference
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
