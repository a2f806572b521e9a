"""Chaos harness: prove the resilience layer against injected faults.

The chaos harness attacks the *execution* layer — the host-side worker
pool, cell scheduling, and on-disk cache — not the simulated system.
Three failure modes are injected,
deterministically targeted by cell fingerprint:

* **Worker kills** (``kill_once``) — the worker ``SIGKILL``\\ s itself
  before running the cell, surfacing in the parent as
  ``BrokenProcessPool`` mid-batch.
* **Cell hangs** (``hang_once``) — the worker sleeps *outside* the
  simulation kernel, where the in-worker watchdog cannot fire, so only
  the engine's parent-side deadline guard can recover.
* **Injected failures** (``raise_once``) — the cell fails with
  :class:`ChaosKilled` inside the normal outcome channel (safe under
  serial engines, where a real ``SIGKILL`` would take out the parent).

Each fault fires exactly once per cell: the first attempt claims a
marker file in :attr:`ChaosPlan.state_dir` (atomic ``open(..., "x")``,
so it works across processes), and retries run clean.  That makes every
chaos scenario deterministic: a resilient engine must converge to the
exact same results as an undisturbed run.

:func:`corrupt_cache_entry` complements the runtime faults by damaging
a :class:`~repro.experiments.engine.CellCache` entry on disk, which the
cache must quarantine — not serve, not crash on.
"""

from __future__ import annotations

import functools
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Tuple

from .engine import (
    CellCache,
    CellError,
    ExperimentEngine,
    _CellOutcome,
    _run_cell,
    config_fingerprint,
)

__all__ = [
    "ChaosKilled",
    "ChaosPlan",
    "chaos_key",
    "chaos_cell_runner",
    "install_chaos",
    "corrupt_cache_entry",
]


class ChaosKilled(RuntimeError):
    """An injected (chaos) cell failure; classified as transient."""


def chaos_key(config, aggregated: bool = False) -> str:
    """Deadline-insensitive fingerprint used to target chaos faults.

    A resilient engine rewrites ``max_wall_seconds`` on the config it
    ships to workers (the cell deadline), which would change the plain
    cache fingerprint; chaos targeting must hit the same cell whether or
    not a deadline is armed, so the watchdog fields are pinned to None
    before fingerprinting.
    """
    return config_fingerprint(
        config.with_(max_wall_seconds=None), aggregated
    )


@dataclass(frozen=True)
class ChaosPlan:
    """Declarative, picklable description of the faults to inject.

    Cells are addressed by :func:`chaos_key` (the content fingerprint
    with deadline fields pinned), so a plan survives pickling into pool
    workers and targets the same cells on every attempt regardless of
    scheduling order or armed deadlines.
    """

    #: Directory holding the once-only marker files (must be shared by
    #: parent and workers; any tmp dir on the same host works).
    state_dir: str
    #: Fingerprints whose first attempt SIGKILLs its worker process.
    kill_once: Tuple[str, ...] = ()
    #: Fingerprints whose first attempt fails with :class:`ChaosKilled`.
    raise_once: Tuple[str, ...] = ()
    #: Fingerprints whose first attempt sleeps outside the kernel.
    hang_once: Tuple[str, ...] = ()
    #: How long a hung cell sleeps, seconds.
    hang_seconds: float = 30.0
    #: Pid of the scheduling process; a kill targeted at it (serial
    #: engine, no pool) degrades to a raise so chaos never takes down
    #: the run itself.
    parent_pid: int = 0

    def claim(self, action: str, key: str) -> bool:
        """Atomically claim the once-only marker for (action, cell)."""
        marker = Path(self.state_dir) / f"{action}.{key}"
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            with open(marker, "x"):
                return True
        except FileExistsError:
            return False


def _chaos_run_cell(plan: ChaosPlan, payload) -> _CellOutcome:
    """Drop-in for ``_run_cell`` that injects the planned faults."""
    config, aggregated, *_rest = payload
    key = chaos_key(config, aggregated)
    if key in plan.kill_once and plan.claim("kill", key):
        if not plan.parent_pid or os.getpid() != plan.parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        # Serial engine: refuse to kill the parent, fail the cell instead.
        exc = ChaosKilled(f"injected worker kill for cell {key[:12]}")
        return _CellOutcome(
            ok=False, error=CellError.from_exception(config, exc), exc=exc,
            pid=os.getpid(),
        )
    if key in plan.raise_once and plan.claim("raise", key):
        exc = ChaosKilled(f"injected failure for cell {key[:12]}")
        return _CellOutcome(
            ok=False, error=CellError.from_exception(config, exc), exc=exc,
            pid=os.getpid(),
        )
    if key in plan.hang_once and plan.claim("hang", key):
        # Hang outside the kernel: the in-worker watchdog cannot see
        # this, so recovery is the parent-side deadline guard's job.
        time.sleep(plan.hang_seconds)
    return _run_cell(payload)


def chaos_cell_runner(plan: ChaosPlan) -> Callable[[tuple], _CellOutcome]:
    """A picklable cell runner with *plan*'s faults armed."""
    return functools.partial(_chaos_run_cell, plan)


def install_chaos(engine: ExperimentEngine, plan: ChaosPlan) -> ExperimentEngine:
    """Arm *plan* on *engine* (in place); returns the engine."""
    engine.cell_runner = chaos_cell_runner(plan)
    return engine


def corrupt_cache_entry(cache: CellCache, key: str,
                        mode: str = "garbage") -> Path:
    """Damage one on-disk cache entry, returning its path.

    ``garbage`` overwrites the pickle with junk bytes; ``truncate``
    keeps only the first half (a torn write that atomic replace is
    supposed to prevent — injected here to prove the checksum catches
    it anyway).  Both leave the stored checksum stale, so a subsequent
    ``get`` must quarantine the entry instead of unpickling it.
    """
    path = cache.path_for(key)
    if mode == "garbage":
        path.write_bytes(b"\x80\x04chaos-garbage" * 8)
    elif mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path
