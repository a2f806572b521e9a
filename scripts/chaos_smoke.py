#!/usr/bin/env python
"""Chaos smoke: injected worker kills + cache corruption + cache resume.

End-to-end proof of the engine's retries, cache quarantine and resume
from the cell cache (`repro.experiments.engine`) against the chaos harness
(`repro.experiments.chaos`), suitable for CI:

1. **Reference** — a 16-cell sweep on a plain serial engine, no cache:
   the ground truth every resilient run must reproduce bit-identically.
2. **Chaos sweep** — the same 16 cells on a 4-worker engine with retries
   with 3 injected worker SIGKILLs and 1 corrupted on-disk cache entry.
   The run must complete via retries/quarantine with identical results.
3. **Interrupted sweep + cache resume** — a strict 2-worker sweep on
   an empty cache aborts at cell 10 on an injected failure.  Pool
   results arrive in submission order, so cells 0–9 are already cached;
   the rerun serves those 10 and simulates the remaining 6 (and only
   those), and the results are identical.

Exit status 0 = all phases passed, 1 = any check failed.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.chaos import (
    ChaosKilled,
    ChaosPlan,
    chaos_key,
    corrupt_cache_entry,
    install_chaos,
)
from repro.experiments import engine as engine_module
from repro.experiments.engine import (
    CellCache,
    ExperimentEngine,
    config_fingerprint,
    results_equal,
)
from repro.experiments.resilience import RetryPolicy
from repro.rocc.config import SimulationConfig

CELLS = 16
KILLS = 3
RESUME_PREFIX = 10

_failures = []


def check(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        _failures.append(what)


def make_cells():
    base = SimulationConfig(nodes=2, duration=2e5)
    return [base.with_(replication=i) for i in range(CELLS)]


def main() -> int:
    cells = make_cells()

    print(f"[1/3] reference sweep ({CELLS} cells, serial, no cache)")
    t0 = time.time()
    with ExperimentEngine(workers=1, cache=CellCache(enabled=False)) as ref:
        reference = ref.run_cells(cells)
    print(f"  done in {time.time() - t0:.1f}s")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        tmp = Path(tmp)

        print(f"[2/3] chaos sweep ({KILLS} worker kills, 1 corrupt cache entry)")
        cache = CellCache(root=tmp / "cache", enabled=True)
        # Pre-warm one entry, then damage it on disk: the sweep must
        # quarantine it and recompute rather than serve garbage.
        with ExperimentEngine(workers=1, cache=cache) as warm:
            warm.run_cells([cells[5]])
        corrupt_cache_entry(
            cache, config_fingerprint(cells[5], False), mode="truncate"
        )
        plan = ChaosPlan(
            state_dir=str(tmp / "chaos-state"),
            kill_once=tuple(chaos_key(c) for c in cells[:KILLS]),
            parent_pid=os.getpid(),
        )
        t0 = time.time()
        # Tolerate one pool failure per kill: this phase proves recovery
        # on the pool, not the degrade-to-serial fallback.
        engine_module.DEGRADE_AFTER = KILLS + 1
        with ExperimentEngine(
            workers=4,
            cache=cache,
            retry=RetryPolicy(max_attempts=3),
        ) as engine:
            install_chaos(engine, plan)
            chaotic = engine.run_cells(cells)
        stats = engine.stats
        print(
            f"  done in {time.time() - t0:.1f}s: {stats.summary()}"
        )
        check(
            all(results_equal(a, b) for a, b in zip(reference, chaotic)),
            f"all {CELLS} results identical to the reference",
        )
        check(not engine.failure_report.failures, "no cells lost")
        check(
            stats.retries >= KILLS,
            f"kills were retried (retries={stats.retries})",
        )
        check(
            stats.pool_resets >= 1,
            f"pool was reset after worker death (resets={stats.pool_resets})",
        )
        check(
            cache.corrupt_entries == 1,
            f"corrupt cache entry quarantined (corrupt={cache.corrupt_entries})",
        )
        check(
            any(cache.quarantine_dir.iterdir())
            if cache.quarantine_dir.exists() else False,
            "quarantine directory holds the damaged entry",
        )

        print(f"[3/3] interrupted sweep + cache resume")
        resume_cache = CellCache(root=tmp / "resume-cache", enabled=True)
        abort = ChaosPlan(
            state_dir=str(tmp / "abort-state"),
            raise_once=(chaos_key(cells[RESUME_PREFIX]),),
        )
        aborted = False
        with ExperimentEngine(workers=2, cache=resume_cache) as first:
            install_chaos(first, abort)
            try:
                first.run_cells(cells)
            except ChaosKilled:
                aborted = True
        check(aborted, f"strict sweep aborted at cell {RESUME_PREFIX}")
        with ExperimentEngine(workers=2, cache=resume_cache) as second:
            resumed = second.run_cells(cells)
        remainder = CELLS - RESUME_PREFIX
        check(
            second.stats.cache_hits == RESUME_PREFIX,
            f"rerun served the {RESUME_PREFIX} finished cells from the "
            f"cache (served {second.stats.cache_hits})",
        )
        check(
            second.stats.cells_run == remainder,
            f"rerun simulated only the {remainder}-cell remainder "
            f"(ran {second.stats.cells_run})",
        )
        check(
            all(results_equal(a, b) for a, b in zip(reference, resumed)),
            "resumed results identical to the reference",
        )

    if _failures:
        print(f"chaos smoke FAILED: {len(_failures)} check(s)", file=sys.stderr)
        return 1
    print("chaos smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
