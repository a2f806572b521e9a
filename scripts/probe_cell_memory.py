#!/usr/bin/env python
"""Memory and garbage-collector probe of one large NOW cell.

Builds ``ParadynISSystem`` for the end-to-end benchmark's ``big-cell``
(a contention-free NOW of ``NODES`` nodes for ``DURATION_US``, both read
from ``benchmarks/e2e/cell.py``; seed 1) and runs it twice, each time
in a fresh interpreter:

1. **Plain run.**  A ``gc.callbacks`` hook counts the completed
   collections of each generation and the wall time between each
   collection's ``start`` and ``stop``.  After the run it reports the
   run time, the number of GC-tracked objects (``gc.get_objects()``)
   and the process's peak RSS (``ru_maxrss``).
2. **Traced run.**  The same cell under ``tracemalloc`` (one frame per
   allocation); after the run it reports the traced peak and the ten
   source lines holding the most live memory.  Tracing slows the run and adds
   its own memory, so the plain run's figures are the ones to compare.

Usage::

    python scripts/probe_cell_memory.py [--nodes 1024] [--runs 1] [--json]

``--runs N`` repeats the plain run N times (GC seconds and run seconds
vary between runs; passes and object counts do not).  ``--json`` prints
one JSON object instead of the report.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# The benchmark's cell definition; run_path reads the file without
# importing it, so nothing is written under benchmarks/e2e/.
_CELL = runpy.run_path(str(ROOT / "benchmarks" / "e2e" / "cell.py"))
NODES = _CELL["NODES"]
DURATION_US = _CELL["DURATION_US"]
SEED = 1
#: tracemalloc sites to list.
TOP = 10


def _build(nodes: int):
    from repro.rocc.config import Architecture, NetworkMode, SimulationConfig
    from repro.rocc.system import ParadynISSystem

    return ParadynISSystem(SimulationConfig(
        architecture=Architecture.NOW,
        nodes=nodes,
        network_mode=NetworkMode.CONTENTION_FREE,
        duration=DURATION_US,
        seed=SEED,
    ))


def _plain(nodes: int) -> dict:
    import gc
    import resource
    from time import perf_counter

    system = _build(nodes)
    passes = [0, 0, 0]
    gc_s = 0.0
    started = 0.0

    def hook(phase: str, info: dict) -> None:
        nonlocal gc_s, started
        if phase == "start":
            started = perf_counter()
        else:
            gc_s += perf_counter() - started
            passes[info["generation"]] += 1

    gc.callbacks.append(hook)
    t0 = perf_counter()
    system.run()
    run_s = perf_counter() - t0
    gc.callbacks.remove(hook)
    return {
        "gc_passes_gen0_gen1_gen2": passes,
        "gc_s": round(gc_s, 4),
        "run_s": round(run_s, 4),
        "gc_tracked_after_run": len(gc.get_objects()),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    }


def _site(frame) -> str:
    """``file:line`` of *frame*, relative to ``src`` or, outside it, to
    the file's parent directory."""
    path = Path(frame.filename)
    try:
        name = path.relative_to(SRC).as_posix()
    except ValueError:
        name = "/".join(path.parts[-2:])
    return f"{name}:{frame.lineno}"


def _traced(nodes: int) -> dict:
    import tracemalloc

    # Import first, so that the sites are the cell's, not the modules'.
    import repro.rocc.system  # noqa: F401

    tracemalloc.start(1)
    system = _build(nodes)
    system.run()
    _, peak = tracemalloc.get_traced_memory()
    stats = tracemalloc.take_snapshot().statistics("lineno")
    tracemalloc.stop()
    return {
        "traced_peak_mb": round(peak / 2**20, 2),
        "top_sites": [
            {"site": _site(st.traceback[0]),
             "mib": round(st.size / 2**20, 2),
             "blocks": st.count}
            for st in stats[:TOP]
        ],
    }


def _child(mode: str, args) -> dict:
    cmd = [sys.executable, __file__, "--child", mode, "--nodes",
           str(args.nodes)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         check=True, timeout=900)
    return json.loads(out.stdout.splitlines()[-1])


def _report(result: dict) -> str:
    lines = [f"cell: NOW, {result['nodes']} nodes, contention-free, "
             f"{DURATION_US / 1e6:g} simulated s, seed {SEED}"]
    for i, run in enumerate(result["plain"], 1):
        gen0, gen1, gen2 = run["gc_passes_gen0_gen1_gen2"]
        lines.append(
            f"plain run {i}: gc passes {gen0}/{gen1}/{gen2} (gen0/1/2), "
            f"gc {run['gc_s']:.4f} s of {run['run_s']:.4f} s run, "
            f"{run['gc_tracked_after_run']:,} tracked objects after the run, "
            f"peak RSS {run['peak_rss_mb']:.2f} MiB")
    traced = result["traced"]
    lines.append(f"tracemalloc: traced peak {traced['traced_peak_mb']:.2f} MiB;"
                 " live after the run by source line:")
    for site in traced["top_sites"]:
        lines.append(f"  {site['mib']:8.2f} MiB {site['blocks']:>9,} blocks  "
                     f"{site['site']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, default=NODES)
    parser.add_argument("--runs", type=int, default=1,
                        help="plain runs (each in a fresh interpreter)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object")
    parser.add_argument("--child", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child == "plain":
        print(json.dumps(_plain(args.nodes)))
        return 0
    if args.child == "traced":
        print(json.dumps(_traced(args.nodes)))
        return 0
    result = {
        "nodes": args.nodes,
        "seed": SEED,
        "plain": [_child("plain", args) for _ in range(max(1, args.runs))],
        "traced": _child("traced", args),
    }
    print(json.dumps(result, indent=1) if args.json else _report(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
