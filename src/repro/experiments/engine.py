"""Experiment engine: parallel, memoized and resumable cells.

Every number the paper reports is the outcome of an independent
*simulation cell* — one ``(SimulationConfig, replication)`` pair — and
cells draw from dedicated named substreams, so they are embarrassingly
parallel and fully deterministic.  :class:`ExperimentEngine` exploits
both properties:

* **Scheduling** — cells submitted through :meth:`ExperimentEngine.run_cells`
  fan out across a process pool (``workers > 1``) or run inline
  (``workers=1``, failing fast).  Failures ship back as picklable
  :class:`CellError` artifacts, so ``strict=False`` semantics survive
  the process boundary — including workers killed mid-cell.
* **Memoization and resume** — a :class:`CellCache` keys finished
  :class:`~repro.rocc.metrics.SimulationResults` by a stable content
  fingerprint of the config (every dataclass field, nested cost models,
  distributions, replication index) salted with a hash of
  the simulation source code, so re-running a sweep or benchmark
  recomputes only cells whose inputs or code actually changed.  Each
  result is stored the moment its cell finishes, so a sweep killed
  midway resumes on rerun: only the cells that had not finished run.
  Entries live under a directory per code version; the first cache
  opened on a root in a process drops the other versions' entries.
* **One failure contract** — a cell that fails (an exception, the
  kernel watchdog's ``--cell-timeout`` deadline, a worker killed
  mid-batch) is a :class:`CellError`: returned as an artifact under
  ``strict=False`` and listed in
  :attr:`ExperimentEngine.failure_report`, raised otherwise.  It is
  never cached and never retried.  Cells are
  deterministic, so the rerun is the retry: rerunning on the cache
  serves every finished cell and simulates only the lost ones.

The ``engine.cache_corrupt`` counter is published through the
:mod:`repro.obs` metrics registry, and every executed cell runs under
a span when tracing is enabled.

Environment knobs:

* ``REPRO_WORKERS`` — worker count of the ambient engine (default 1).
* ``REPRO_CELL_CACHE`` — set to ``0``/``off`` to disable the cache
  (such a run cannot be resumed).
* ``REPRO_CACHE_DIR`` — cache directory (default
  ``$XDG_CACHE_HOME/repro/cells`` or ``~/.cache/repro/cells``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import sys
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from math import inf, isnan, nan
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Set, Tuple, Union,
)

from ..obs.metrics import diff_snapshots, registry as obs_registry, timed
from ..obs.spans import (
    SpanBatch,
    Tracer,
    current_tracer,
    maybe_span,
    tracing_enabled,
    use_tracing,
)
from ..rocc.config import SimulationConfig
from ..rocc.metrics import SimulationResults

if TYPE_CHECKING:  # imported where used: a one-worker run creates no pool
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "CellError",
    "EngineCellError",
    "EngineStats",
    "FailureReport",
    "CellCache",
    "ExperimentEngine",
    "config_fingerprint",
    "content_key",
    "code_version",
    "results_equal",
    "current_engine",
    "use_engine",
]


# ---------------------------------------------------------------------------
# Failure artifacts
# ---------------------------------------------------------------------------


@dataclass
class CellError:
    """A failed cell, preserved as an artifact of the sweep.

    Under ``strict=False`` a crashing cell no longer aborts the whole
    experiment: the error (message + formatted traceback) rides along in
    :attr:`MeanResults.errors` and the sweep completes with whatever
    replications succeeded.  The artifact is plain strings, so it
    crosses process boundaries even when the original exception cannot
    be pickled.
    """

    config_summary: str
    error: str
    traceback: str

    @classmethod
    def from_exception(cls, config: SimulationConfig, exc: BaseException) -> "CellError":
        summary = (
            f"{config.architecture.value} n={config.nodes} "
            f"b={config.batch_size} rep={config.replication}"
        )
        return cls(
            config_summary=summary,
            error=f"{type(exc).__name__}: {exc}",
            traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )


class EngineCellError(RuntimeError):
    """Raised (strict runs) when a worker's exception cannot be
    re-raised verbatim in the parent — e.g. an unpicklable exception
    type or a worker process that died mid-cell."""

    def __init__(self, cell_error: CellError):
        self.cell_error = cell_error
        super().__init__(
            f"cell {cell_error.config_summary} failed: {cell_error.error}\n"
            f"{cell_error.traceback}"
        )


class FailureReport(List[CellError]):
    """The cells a run lost, in the order they failed.

    Filled by :meth:`ExperimentEngine.run_cells` (``engine.failure_report``)
    and truthy once a cell failed; both CLIs print :meth:`format` to
    stderr and exit 1 then.
    """

    def format(self) -> str:
        lines = [f"failure report: {len(self)} cell(s) failed"]
        lines += [f"  {e.config_summary}: {e.error}" for e in self]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Content-addressed fingerprinting
# ---------------------------------------------------------------------------

#: Sub-packages whose source defines simulation semantics; their content
#: hash salts every fingerprint so stale results die with code changes.
_SIM_PACKAGES = ("des", "rocc", "workload", "variates")

_code_version: Optional[str] = None


def code_version() -> str:
    """Hash of the simulation source tree (the cache's code salt)."""
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for pkg in _SIM_PACKAGES:
            for path in sorted((root / pkg).rglob("*.py")):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
        h.update(os.environ.get("REPRO_CACHE_SALT", "").encode())
        _code_version = h.hexdigest()[:16]
    return _code_version


def _canonical(obj) -> object:
    """Recursively reduce *obj* to a deterministic, order-stable form.

    Covers everything a :class:`SimulationConfig` can hold: nested
    dataclasses (cost models, workload, regulator), enums,
    distributions (plain objects — captured by class name + instance
    dict), numpy arrays, and containers.  ``repr`` of floats keeps full
    precision, so configs differing in the 17th digit fingerprint apart.
    numpy is looked up, not imported: while it is not loaded, no object
    can be one of its arrays or scalars.
    """
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, float):
        return ("f", repr(obj))
    if isinstance(obj, Enum):
        return ("enum", type(obj).__name__, _canonical(obj.value))
    if is_dataclass(obj) and not isinstance(obj, type):
        return (
            "dc",
            type(obj).__name__,
            tuple((f.name, _canonical(getattr(obj, f.name))) for f in fields(obj)),
        )
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(v) for v in obj), key=repr)))
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return ("nd", obj.shape, tuple(repr(float(v)) for v in obj.ravel()))
    if np is not None and isinstance(obj, np.generic):
        return ("f", repr(obj.item()))
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return (
            "obj",
            type(obj).__name__,
            tuple((k, _canonical(v)) for k, v in sorted(d.items())),
        )
    return ("repr", repr(obj))


def content_key(tag: str, *parts) -> str:
    """Cache key of *parts* under the entry kind *tag*.

    Two keys match iff the tags match, every part reduces to the same
    :func:`_canonical` form and the simulation source is unchanged.
    """
    payload = (tag, code_version(), *(_canonical(p) for p in parts))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def config_fingerprint(config: SimulationConfig, aggregated: bool = False) -> str:
    """Stable content address of one simulation cell.

    Two configs fingerprint identically iff every field — including the
    replication index and nested models — matches and the simulation
    source is unchanged.
    """
    return content_key("cell-v1", bool(aggregated), config)


def results_equal(a: SimulationResults, b: SimulationResults) -> bool:
    """Field-by-field equality, treating NaN as equal to NaN."""

    def same(x, y) -> bool:
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (isnan(x) and isnan(y))
        return x == y

    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


# ---------------------------------------------------------------------------
# On-disk cell cache
# ---------------------------------------------------------------------------


def _default_cache_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "cells"


def _cache_enabled_by_env() -> bool:
    return os.environ.get("REPRO_CELL_CACHE", "1").strip().lower() not in (
        "0", "off", "false", "no", "",
    )


#: Cache roots this process has already swept of other code versions.
_swept: Set[Path] = set()


def _drop_stale(root: Path) -> int:
    """Delete what the cache wrote under *root* for other code versions,
    once per root and process; returns the number of entries dropped.

    Stale means a version directory (16 hex digits) other than this
    code's, or the flat layout older code wrote: 2-hex shard directories
    and ``quarantine/`` that hold only ``*.pkl``/``*.pkl.sha256`` files.
    Everything else under *root* is left alone.
    """
    if root in _swept:
        return 0
    _swept.add(root)
    current = code_version()
    try:
        with os.scandir(root) as it:
            dirs = [d for d in it if d.is_dir(follow_symlinks=False)
                    and d.name != current]
    except OSError:
        return 0
    dropped = 0
    for d in dirs:
        version = re.fullmatch("[0-9a-f]{16}", d.name)
        if not (version or re.fullmatch("[0-9a-f]{2}|quarantine", d.name)):
            continue
        walk = list(os.walk(d.path))
        files = [name for _, _, names in walk for name in names]
        if version or len(walk) == 1 and all(
            name.endswith((".pkl", ".pkl.sha256")) for name in files
        ):
            import shutil

            dropped += sum(name.endswith(".pkl") for name in files)
            shutil.rmtree(d.path, ignore_errors=True)
    return dropped


class CellCache:
    """Content-addressed store of pickled :class:`SimulationResults`
    (and of the plain-data workload characterizations behind Tables 1–3
    and Figure 8, see :mod:`repro.experiments.workload_exp`).

    Entries live at ``<root>/<code_version()>/<key[:2]>/<key>.pkl`` with
    a sha256 checksum stored beside each one (``<key>.pkl.sha256``).
    Writes go to a temp file renamed into place with ``os.replace``, so
    a worker killed mid-``put`` can never leave a torn pickle under the
    entry's name.  They are not fsynced: reads verify the checksum
    *before* unpickling, so an entry that a power loss left empty or
    zero-filled — like any corrupted, truncated or unchecksummed entry —
    is quarantined (moved aside under ``quarantine/`` in the version
    directory) and treated as a miss, and the cell simply recomputes.

    The first enabled cache a process opens on a root drops every entry
    other code versions left there, which this code can never hit
    (counted in :attr:`stale_dropped`).
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 enabled: Optional[bool] = None):
        self.root = Path(root).expanduser() if root else _default_cache_root()
        self.enabled = _cache_enabled_by_env() if enabled is None else enabled
        #: Entries quarantined by this instance (checksum mismatches,
        #: unpicklable blobs); surfaced as ``EngineStats.cache_corrupt``.
        self.corrupt_entries = 0
        #: Entries of other code versions dropped when this cache opened.
        self.stale_dropped = _drop_stale(self.root) if self.enabled else 0

    @property
    def version_dir(self) -> Path:
        """The directory of this code version's entries."""
        return self.root / code_version()

    def path_for(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}.pkl"

    def checksum_path_for(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}.pkl.sha256"

    @property
    def quarantine_dir(self) -> Path:
        return self.version_dir / "quarantine"

    def get(self, key: str, kind: type = SimulationResults) -> Optional[Any]:
        """The entry under *key*, or None on a miss.  An entry that has
        no checksum or fails it, does not unpickle or is not a *kind* is
        quarantined and counts as a miss."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            expected = self.checksum_path_for(key).read_text().strip()
        except OSError:
            expected = None
        if hashlib.sha256(blob).hexdigest() != expected:
            self._quarantine(key)
            return None
        try:
            result = pickle.loads(blob)
        except Exception:
            self._quarantine(key)
            return None
        if not isinstance(result, kind):
            self._quarantine(key)
            return None
        return result

    def put(self, key: str, results: Any) -> bool:
        """Store *results* under *key*; False when nothing was stored
        (the cache is off or the write failed).

        A failed write (an unwritable root, a full disk) never raises:
        the entry is simply missing, so the next run computes it again.
        """
        if not self.enabled:
            return False
        path = self.path_for(key)
        blob = pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Blob first, checksum second: a crash between the two
            # renames leaves a mismatched pair, which get() quarantines
            # and recomputes — never a torn pickle served as a hit.
            self._atomic_write(path, blob)
            self._atomic_write(self.checksum_path_for(key), digest.encode())
        except OSError:
            return False
        return True

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry (and its checksum) aside for post-mortem
        instead of serving — or silently deleting — garbage."""
        self.corrupt_entries += 1
        obs_registry().counter(
            "engine.cache_corrupt",
            "cell-cache entries quarantined as corrupt",
        ).inc()
        qdir = self.quarantine_dir
        for p in (self.path_for(key), self.checksum_path_for(key)):
            if not p.exists():
                continue
            try:
                qdir.mkdir(parents=True, exist_ok=True)
                os.replace(p, qdir / p.name)
            except OSError:
                p.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Engine statistics
# ---------------------------------------------------------------------------


@dataclass
class EngineStats:
    """Shared counters of one engine's activity (see ``reporting``)."""

    workers: int = 1
    cells_submitted: int = 0
    #: Cells actually executed (cache misses, including failed cells).
    cells_run: int = 0
    cache_hits: int = 0
    cell_errors: int = 0
    #: Cache entries quarantined as corrupt during lookups.
    cache_corrupt: int = 0
    #: Finished cells whose cache write failed (a rerun computes them
    #: again; see :meth:`CellCache.put`).
    cache_write_failures: int = 0
    #: Entries of other code versions the engine's cache dropped on
    #: opening (see :class:`CellCache`).
    stale_dropped: int = 0
    #: Design cells the experiment planner served as analytic surrogates
    #: instead of simulating (see :mod:`repro.planner`).
    cells_pruned: int = 0
    #: Cell-replications the planner avoided vs the fixed-r baseline.
    replications_saved: int = 0
    #: Wall-clock seconds spent inside ``run_cells`` batches.
    wall_time: float = 0.0
    #: Sum of per-cell wall seconds as measured inside the workers.
    cell_wall_time: float = 0.0
    #: Sum of per-cell CPU seconds as measured inside the workers.
    cell_cpu_time: float = 0.0

    @property
    def worker_utilization(self) -> float:
        """Busy fraction of the worker pool: cell wall time over
        (batch wall time × workers).  NaN until something has run."""
        if self.wall_time <= 0 or self.workers < 1:
            return nan
        return self.cell_wall_time / (self.wall_time * self.workers)

    def copy(self) -> "EngineStats":
        return replace(self)

    def since(self, earlier: "EngineStats") -> "EngineStats":
        """Delta of the counters relative to an earlier snapshot."""
        return EngineStats(
            workers=self.workers,
            cells_submitted=self.cells_submitted - earlier.cells_submitted,
            cells_run=self.cells_run - earlier.cells_run,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cell_errors=self.cell_errors - earlier.cell_errors,
            cache_corrupt=self.cache_corrupt - earlier.cache_corrupt,
            cache_write_failures=(
                self.cache_write_failures - earlier.cache_write_failures
            ),
            stale_dropped=self.stale_dropped - earlier.stale_dropped,
            cells_pruned=self.cells_pruned - earlier.cells_pruned,
            replications_saved=(
                self.replications_saved - earlier.replications_saved
            ),
            wall_time=self.wall_time - earlier.wall_time,
            cell_wall_time=self.cell_wall_time - earlier.cell_wall_time,
            cell_cpu_time=self.cell_cpu_time - earlier.cell_cpu_time,
        )

    def summary(self) -> str:
        util = self.worker_utilization
        util_s = f"{100.0 * util:.0f}%" if util == util else "-"
        extra_bits = [
            f"{count} {label}"
            for count, label in (
                (self.cells_pruned, "pruned"),
                (self.replications_saved, "replications saved"),
                (self.cache_corrupt, "corrupt cache entries"),
                (self.cache_write_failures, "cache writes failed"),
                (self.stale_dropped, "stale entries dropped"),
            )
            if count
        ]
        extra_s = f", {', '.join(extra_bits)}" if extra_bits else ""
        return (
            f"{self.cells_submitted} cells ({self.cells_run} run, "
            f"{self.cache_hits} cached, {self.cell_errors} failed) in "
            f"{self.wall_time:.2f}s wall / {self.cell_cpu_time:.2f}s cpu, "
            f"{self.workers} worker(s), {util_s} utilization{extra_s}"
        )


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


@dataclass
class _CellOutcome:
    """What one executed cell produced (picklable in every branch)."""

    ok: bool
    result: Optional[SimulationResults] = None
    error: Optional[CellError] = None
    #: The original exception when it can cross the process boundary
    #: (re-raised verbatim by strict runs).
    exc: Optional[BaseException] = None
    wall: float = 0.0
    cpu: float = 0.0
    #: Spans recorded while running this cell (set only when traced).
    trace: Optional[SpanBatch] = None
    #: Metrics-registry delta produced by this cell (obs snapshot diff;
    #: a traced cell's kernel profile travels in it).
    metrics: Optional[dict] = None
    #: Process that executed the cell — the parent merges the metrics
    #: delta only for foreign pids (inline cells already published).
    pid: int = 0


def _run_cell(payload: Tuple[SimulationConfig, bool, bool]) -> _CellOutcome:
    """Execute one cell; never raises (failures become artifacts)."""
    # The simulator is imported by the first cell that runs, so a run
    # served from the cache never loads it.
    from ..rocc.aggregate import simulate_aggregated
    from ..rocc.system import simulate

    config, aggregated, traced = payload
    runner: Callable[[SimulationConfig], SimulationResults] = (
        simulate_aggregated if aggregated else simulate
    )
    # A traced cell records into its own fresh tracer (explicitly
    # installed — forked workers inherit the parent's tracer object, and
    # inline cells must not write parent spans twice) and ships the
    # batch back next to its metrics delta.
    tracer = Tracer() if traced else None
    metrics_before = obs_registry().snapshot()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is not None:
            with use_tracing(tracer):
                with tracer.span(
                    "cell", cat="engine.cell",
                    args={
                        "config": (
                            f"{config.architecture.value} n={config.nodes} "
                            f"rep={config.replication}"
                        ),
                        "aggregated": aggregated,
                    },
                ):
                    result = runner(config)
        else:
            result = runner(config)
    except Exception as exc:
        err = CellError.from_exception(config, exc)
        try:  # only ship the exception object if it survives pickling
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = None
        return _CellOutcome(
            ok=False, error=err, exc=exc,
            wall=time.perf_counter() - t0, cpu=time.process_time() - c0,
            trace=tracer.batch() if tracer is not None else None,
            metrics=diff_snapshots(metrics_before, obs_registry().snapshot()),
            pid=os.getpid(),
        )
    return _CellOutcome(
        ok=True, result=result,
        wall=time.perf_counter() - t0, cpu=time.process_time() - c0,
        trace=tracer.batch() if tracer is not None else None,
        metrics=diff_snapshots(metrics_before, obs_registry().snapshot()),
        pid=os.getpid(),
    )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

# Module-cached instruments (registry().reset() zeroes them in place,
# so the references stay valid across test isolation).
_CELL_SECONDS = obs_registry().histogram(
    "engine.cell_seconds", "wall seconds per executed cell"
)
_BATCH_SECONDS = obs_registry().histogram(
    "engine.batch_seconds", "wall seconds per run_cells batch"
)


class ExperimentEngine:
    """Schedules simulation cells over workers, memoized by content.

    ``workers=1`` (the default, or ``REPRO_WORKERS`` unset) executes
    inline, failing fast: a failed cell raises before later cells
    start.  ``workers=N`` fans cells out over a lazily created
    :class:`~concurrent.futures.ProcessPoolExecutor` that is reused
    across batches until :meth:`close`.

    The remaining parameters default to the plain run — no deadline,
    ``strict=True`` — which leaves a healthy run exactly as if each
    cell were simulated directly:

    * ``cell_timeout`` — per-cell wall-clock deadline, seconds, enforced
      inside the cell by the kernel watchdog (``max_wall_seconds``).
      Cache keys are taken from the configs as submitted, so a deadline
      never changes them.
    * ``strict`` — when False, a failed cell never raises: it is
      returned as a :class:`CellError` artifact, so sweeps return
      partial results.

    Every failed cell is appended to :attr:`failure_report` and never
    cached.  The engine never retries it: a rerun on the cache is what
    runs it again.  A worker that dies mid-batch fails the batch's
    unfinished cells with ``BrokenProcessPool``.  A broken pool, or one
    still running the wave of a strict run that a failure stopped, is
    dropped, and the next batch builds a fresh one.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[CellCache] = None,
                 stats: Optional[EngineStats] = None,
                 cell_timeout: Optional[float] = None,
                 strict: bool = True):
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1") or 1)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if cell_timeout is not None and not 0 < cell_timeout < inf:
            raise ValueError("cell_timeout must be finite and positive (or None)")
        self.workers = workers
        self.cache = cache if cache is not None else CellCache()
        self.stats = stats if stats is not None else EngineStats(workers=workers)
        self.stats.workers = workers
        self.stats.stale_dropped += self.cache.stale_dropped
        self.cell_timeout = cell_timeout
        self.strict = strict
        self.failure_report = FailureReport()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: The picklable callable executed per cell: :func:`_run_cell`,
        #: or a failing stand-in a test substitutes.
        self.cell_runner: Callable[[Tuple], _CellOutcome] = _run_cell

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            # Import the simulator before the workers fork, so that each
            # inherits it instead of importing it again.
            from ..rocc import aggregate, system  # noqa: F401

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scheduling ----------------------------------------------------
    def run_cells(
        self,
        configs: Sequence[SimulationConfig],
        aggregated: bool = False,
    ) -> List[Union[SimulationResults, CellError]]:
        """Run every cell, returning outcomes in submission order.

        Cached cells are served without executing; the rest run inline
        (``workers=1``) or on the pool.  Failures become
        :class:`CellError` entries under ``strict=False`` and raise
        otherwise — the original exception when picklable,
        :class:`EngineCellError` when not.
        """
        configs = list(configs)
        t_start = time.perf_counter()
        hits_before = self.stats.cache_hits
        try:
            with timed(_BATCH_SECONDS), maybe_span(
                "run_cells", cat="engine.batch",
                args={"cells": len(configs), "workers": self.workers},
            ) as span:
                outcomes = self._run_cells(configs, aggregated)
                if span is not None:
                    span.args["cache_hits"] = (
                        self.stats.cache_hits - hits_before
                    )
                return outcomes
        finally:
            self.stats.wall_time += time.perf_counter() - t_start

    def _run_cells(self, configs, aggregated):
        self.stats.cells_submitted += len(configs)
        outcomes: List[Union[SimulationResults, CellError, None]]
        outcomes = [None] * len(configs)
        pending = []
        for i, config in enumerate(configs):
            key = self._fingerprint(config, aggregated)
            hit = self._lookup(key)
            if hit is not None:
                outcomes[i] = hit
            else:
                pending.append((i, config, key))

        for i, key, out in self._execute(pending, aggregated):
            self.stats.cells_run += 1
            self._book(out)
            if out.ok:
                outcomes[i] = out.result
                if key and not self.cache.put(key, out.result):
                    self.stats.cache_write_failures += 1
                continue
            self.stats.cell_errors += 1
            self.failure_report.append(out.error)
            if self.strict:
                # The run stops here: cancel the rest of a pool wave.
                self._drop_pool()
                if out.exc is not None:
                    raise out.exc
                raise EngineCellError(out.error)
            outcomes[i] = out.error
        return outcomes

    def _fingerprint(self, config: SimulationConfig,
                     aggregated: bool) -> Optional[str]:
        """Cache key of one cell, or None when the cache is off."""
        if not self.cache.enabled:
            return None
        return config_fingerprint(config, aggregated)

    def _lookup(self, key: Optional[str]) -> Optional[SimulationResults]:
        """Serve a cell from the cache without executing it."""
        if key is None:
            return None
        corrupt_before = self.cache.corrupt_entries
        hit = self.cache.get(key)
        self.stats.cache_corrupt += self.cache.corrupt_entries - corrupt_before
        if hit is not None:
            self.stats.cache_hits += 1
        return hit

    # -- execution -----------------------------------------------------
    def _execute(self, pending, aggregated: bool):
        """Run *pending* ``(i, config, key)`` cells once each, yielding
        ``(i, key, outcome)`` as each finishes.

        Inline cells run one at a time as the caller asks for them, so a
        strict caller that raises on a failure starts no later cell.
        Pool cells are one wave: every cell is submitted up front.
        """
        traced = tracing_enabled()
        if self.workers == 1 or len(pending) <= 1:
            for i, config, key in pending:
                yield i, key, self._run_inline(config, aggregated, traced)
            return
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        futures = [
            pool.submit(self.cell_runner,
                        (self._with_deadline(config), aggregated, traced))
            for _, config, _ in pending
        ]
        for (i, config, key), future in zip(pending, futures):
            try:
                out = future.result()
            except Exception as exc:
                # A dead worker breaks the pool: this and every other
                # unfinished cell of the wave fail with BrokenProcessPool.
                if isinstance(exc, BrokenProcessPool):
                    self._drop_pool()
                out = _CellOutcome(
                    ok=False, error=CellError.from_exception(config, exc)
                )
            yield i, key, out

    def _run_inline(self, config: SimulationConfig,
                    aggregated: bool, traced: bool) -> _CellOutcome:
        """One inline cell; an exception from a substituted
        ``cell_runner`` becomes its failure artifact."""
        try:
            return self.cell_runner(
                (self._with_deadline(config), aggregated, traced)
            )
        except Exception as exc:
            return _CellOutcome(
                ok=False, error=CellError.from_exception(config, exc), exc=exc
            )

    def _drop_pool(self) -> None:
        """Forget the pool (broken, or busy with cells nobody will
        read) without waiting for it; the next batch builds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _with_deadline(self, config: SimulationConfig) -> SimulationConfig:
        if self.cell_timeout is None:
            return config
        current = config.max_wall_seconds
        deadline = (
            self.cell_timeout if current is None
            else min(current, self.cell_timeout)
        )
        if current == deadline:
            return config
        return config.with_(max_wall_seconds=deadline)

    # -- bookkeeping ---------------------------------------------------
    def _book(self, out: _CellOutcome) -> None:
        """Account for one executed cell: its wall and CPU time, spans
        and metrics delta."""
        _CELL_SECONDS.observe(out.wall)
        self.stats.cell_wall_time += out.wall
        self.stats.cell_cpu_time += out.cpu
        tracer = current_tracer()
        if tracer is not None and out.trace is not None:
            tracer.merge(out.trace)
        if out.metrics and out.pid != os.getpid():
            # Inline cells already published into this registry; only
            # foreign (worker) deltas need folding in.
            obs_registry().merge_snapshot(out.metrics)

# ---------------------------------------------------------------------------
# Ambient engine
# ---------------------------------------------------------------------------

_default_engine: Optional[ExperimentEngine] = None
_engine_stack: List[ExperimentEngine] = []


def current_engine() -> ExperimentEngine:
    """The innermost :func:`use_engine` engine, else a process-wide
    default built from the environment on first use."""
    if _engine_stack:
        return _engine_stack[-1]
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine


@contextmanager
def use_engine(engine: ExperimentEngine):
    """Make *engine* ambient for ``replicate``/``sweep`` in the block."""
    _engine_stack.append(engine)
    try:
        yield engine
    finally:
        _engine_stack.pop()
