"""The ``big-cell`` workload: one 1024-node NOW cell through the public API.

Usage::

    PYTHONPATH=src python benchmarks/e2e/cell.py --seed 1 [--build-only]

Builds ``ParadynISSystem(cfg)`` for a 1024-node NOW on the contention-free
network, a quarter of a simulated second, and calls ``.run()``.  Prints one JSON line:
construction and run wall times, the kernel's event count and queue, the
samples received, and a sha256 over every field of the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from typing import List, Optional

NODES = 1024
DURATION_US = 250_000.0


def _canonical(value):
    if isinstance(value, dict):
        return sorted((repr(k), _canonical(v)) for k, v in value.items())
    return repr(value)


def results_digest(results) -> str:
    """sha256 over every field of a ``SimulationResults``."""
    payload = [(f.name, _canonical(getattr(results, f.name)))
               for f in fields(results)]
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--build-only", action="store_true",
                        help="time the construction only")
    args = parser.parse_args(argv)

    from repro.rocc.config import Architecture, NetworkMode, SimulationConfig
    from repro.rocc.system import ParadynISSystem

    cfg = SimulationConfig(
        architecture=Architecture.NOW,
        nodes=NODES,
        network_mode=NetworkMode.CONTENTION_FREE,
        duration=DURATION_US,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    system = ParadynISSystem(cfg)
    out = {"build_s": time.perf_counter() - t0}
    if not args.build_only:
        t0 = time.perf_counter()
        results = system.run()
        out["run_s"] = time.perf_counter() - t0
        stats = system.env.scheduler.stats()
        out.update(
            events=stats.get("dequeues"),
            queue=stats.get("impl"),
            samples_received=results.samples_received,
            digest=results_digest(results),
        )
    print(json.dumps(out))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
