"""Experiment engine: parallel, memoized, bounded and resumable cells.

Every number the paper reports is the outcome of an independent
*simulation cell* — one ``(SimulationConfig, replication)`` pair — and
cells draw from dedicated named substreams, so they are embarrassingly
parallel and fully deterministic.  :class:`ExperimentEngine` exploits
both properties:

* **Scheduling** — cells submitted through :meth:`ExperimentEngine.run_cells`
  fan out across a process pool (``workers > 1``) or run inline
  (``workers=1``, failing fast).  Failures ship back as picklable
  :class:`CellError` artifacts, so ``isolate=True`` semantics survive
  the process boundary — including workers killed mid-cell.
* **Memoization** — a :class:`CellCache` keys finished
  :class:`~repro.rocc.metrics.SimulationResults` by a stable content
  fingerprint of the config (every dataclass field, nested cost models,
  distributions, fault plan, replication index) salted with a hash of
  the simulation source code, so re-running a sweep or benchmark
  recomputes only cells whose inputs or code actually changed.
* **Bounded failure** — long sweeps die in mundane ways: a worker is
  OOM-killed mid-cell, a pathological configuration livelocks the
  kernel, a crash leaves a corrupt cache entry.  Per-cell deadlines,
  retries of transient failures (:class:`~repro.experiments.resilience.RetryPolicy`),
  a resumable run journal (:class:`~repro.experiments.resilience.RunJournal`),
  degrade-to-serial on repeated pool breakage and, with
  ``strict=False``, partial results plus a
  :class:`~repro.experiments.resilience.FailureReport` make every
  failure bounded and every sweep restartable.  The chaos harness in
  :mod:`repro.experiments.chaos` exercises each failure mode.

Counters (``engine.retries``, ``engine.cell_timeouts``,
``engine.pool_resets``, ``engine.cache_corrupt``) are published through
the :mod:`repro.obs` metrics registry, and every attempt runs under a
span when tracing is enabled.

Environment knobs:

* ``REPRO_WORKERS`` — worker count of the ambient engine (default 1).
* ``REPRO_CELL_CACHE`` — set to ``0``/``off`` to disable the cache.
* ``REPRO_CACHE_DIR`` — cache directory (default
  ``$XDG_CACHE_HOME/repro/cells`` or ``~/.cache/repro/cells``).
* ``REPRO_DES_PARALLEL`` — in-cell LP count when ``lp_workers`` is not
  given (read once, when the engine is built).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from math import inf, isnan, nan
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

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
from .resilience import CellTimeout, FailureReport, RetryPolicy, RunJournal

if TYPE_CHECKING:  # imported where used: a one-worker run creates no pool
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "CellError",
    "EngineCellError",
    "EngineStats",
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

    With ``isolate=True`` a crashing cell no longer aborts the whole
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
    """Raised (non-isolated runs) when a worker's exception cannot be
    re-raised verbatim in the parent — e.g. an unpicklable exception
    type or a worker process that died mid-cell."""

    def __init__(self, cell_error: CellError):
        self.cell_error = cell_error
        super().__init__(
            f"cell {cell_error.config_summary} failed: {cell_error.error}\n"
            f"{cell_error.traceback}"
        )


# ---------------------------------------------------------------------------
# Content-addressed fingerprinting
# ---------------------------------------------------------------------------

#: Sub-packages whose source defines simulation semantics; their content
#: hash salts every fingerprint so stale results die with code changes.
_SIM_PACKAGES = ("des", "rocc", "faults", "workload", "variates")

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
    dataclasses (cost models, workload, fault plans), enums,
    distributions (plain objects — captured by class name + instance
    dict), numpy arrays, and containers.  ``repr`` of floats keeps full
    precision, so configs differing in the 17th digit fingerprint apart.
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
    if isinstance(obj, np.ndarray):
        return ("nd", obj.shape, tuple(repr(float(v)) for v in obj.ravel()))
    if isinstance(obj, np.generic):
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


class CellCache:
    """Content-addressed store of pickled :class:`SimulationResults`
    (and of the plain-data workload characterizations behind Tables 1–3
    and Figure 8, see :mod:`repro.experiments.workload_exp`).

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` with a sha256
    checksum stored beside each one (``<key>.pkl.sha256``).  Writes are
    atomic (temp file + fsync + ``os.replace``) so a worker killed
    mid-``put`` can never leave a torn pickle in place, and reads verify
    the checksum *before* unpickling: a corrupted or truncated entry is
    quarantined (moved aside under ``<root>/quarantine/``) and treated
    as a miss, so the cell simply recomputes.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 enabled: Optional[bool] = None):
        self.root = Path(root).expanduser() if root else _default_cache_root()
        self.enabled = _cache_enabled_by_env() if enabled is None else enabled
        #: Entries quarantined by this instance (checksum mismatches,
        #: unpicklable blobs); surfaced as ``EngineStats.cache_corrupt``.
        self.corrupt_entries = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def checksum_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl.sha256"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def get(self, key: str, kind: type = SimulationResults) -> Optional[Any]:
        """The entry under *key*, or None on a miss.  An entry that fails
        its checksum, does not unpickle or is not a *kind* is quarantined
        and counts as a miss."""
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
            expected = None  # pre-checksum entry: fall back to unpickling
        if expected is not None and hashlib.sha256(blob).hexdigest() != expected:
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

    def put(self, key: str, results: Any) -> None:
        if not self.enabled:
            return
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        try:
            # Blob first, checksum second: a crash between the two
            # renames leaves a mismatched pair, which get() quarantines
            # and recomputes — never a torn pickle served as a hit.
            self._atomic_write(path, blob)
            self._atomic_write(self.checksum_path_for(key), digest.encode())
        except OSError:
            pass  # cache is best-effort

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
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

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.pkl"):
                path.unlink(missing_ok=True)
                path.with_name(path.name + ".sha256").unlink(missing_ok=True)
                n += 1
        return n


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
    #: Extra attempts executed (beyond each cell's first), including
    #: re-runs after pool breakage.
    retries: int = 0
    #: Cells that exceeded their wall-clock deadline (in-worker watchdog
    #: or the parent-side wait guard).
    cell_timeouts: int = 0
    #: Worker-pool restarts after breakage (killed/hung workers).
    pool_resets: int = 0
    #: Cache entries quarantined as corrupt during lookups.
    cache_corrupt: int = 0
    #: Cells served from a resumed run journal instead of executing.
    cells_resumed: int = 0
    #: Cells given an explicit ``lp_workers`` >= 2 whose configuration
    #: the partitioned kernel cannot run; they ran sequentially.
    lp_fallbacks: int = 0
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
    #: Kernel events processed by profiled cells (0 unless REPRO_PROFILE).
    sim_events: int = 0
    #: Merged kernel profile of every profiled cell (None unless
    #: REPRO_PROFILE; see :mod:`repro.des.profiling`).
    profile: Optional[dict] = None

    @property
    def cache_misses(self) -> int:
        return self.cells_run

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
        """Delta of the counters relative to an earlier snapshot.

        The merged ``profile`` is cumulative (profiles only ever merge),
        so the delta carries the current one unchanged.
        """
        return EngineStats(
            workers=self.workers,
            cells_submitted=self.cells_submitted - earlier.cells_submitted,
            cells_run=self.cells_run - earlier.cells_run,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cell_errors=self.cell_errors - earlier.cell_errors,
            retries=self.retries - earlier.retries,
            cell_timeouts=self.cell_timeouts - earlier.cell_timeouts,
            pool_resets=self.pool_resets - earlier.pool_resets,
            cache_corrupt=self.cache_corrupt - earlier.cache_corrupt,
            cells_resumed=self.cells_resumed - earlier.cells_resumed,
            lp_fallbacks=self.lp_fallbacks - earlier.lp_fallbacks,
            cells_pruned=self.cells_pruned - earlier.cells_pruned,
            replications_saved=(
                self.replications_saved - earlier.replications_saved
            ),
            wall_time=self.wall_time - earlier.wall_time,
            cell_wall_time=self.cell_wall_time - earlier.cell_wall_time,
            cell_cpu_time=self.cell_cpu_time - earlier.cell_cpu_time,
            sim_events=self.sim_events - earlier.sim_events,
            profile=self.profile,
        )

    def summary(self) -> str:
        util = self.worker_utilization
        util_s = f"{100.0 * util:.0f}%" if util == util else "-"
        events_s = (
            f", {self.sim_events:,} kernel events" if self.sim_events else ""
        )
        resilience_bits = [
            f"{count} {label}"
            for count, label in (
                (self.cells_pruned, "pruned"),
                (self.replications_saved, "replications saved"),
                (self.cells_resumed, "resumed"),
                (self.retries, "retries"),
                (self.cell_timeouts, "timeouts"),
                (self.pool_resets, "pool resets"),
                (self.cache_corrupt, "corrupt cache entries"),
                (self.lp_fallbacks, "ineligible for lp_workers (ran sequential)"),
            )
            if count
        ]
        resilience_s = (
            f", {', '.join(resilience_bits)}" if resilience_bits else ""
        )
        return (
            f"{self.cells_submitted} cells ({self.cells_run} run, "
            f"{self.cache_hits} cached, {self.cell_errors} failed) in "
            f"{self.wall_time:.2f}s wall / {self.cell_cpu_time:.2f}s cpu, "
            f"{self.workers} worker(s), {util_s} utilization"
            f"{resilience_s}{events_s}"
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
    #: (re-raised verbatim by non-isolated runs).
    exc: Optional[BaseException] = None
    wall: float = 0.0
    cpu: float = 0.0
    #: Kernel profile of the run (plain dict; set only under REPRO_PROFILE).
    profile: Optional[dict] = None
    #: Spans recorded while running this cell (set only when traced).
    trace: Optional[SpanBatch] = None
    #: Metrics-registry delta produced by this cell (obs snapshot diff).
    metrics: Optional[dict] = None
    #: Process that executed the cell — the parent merges the metrics
    #: delta only for foreign pids (inline cells already published).
    pid: int = 0


def _run_cell(payload: Tuple[SimulationConfig, bool, bool, Optional[int]]) -> _CellOutcome:
    """Execute one cell; never raises (failures become artifacts)."""
    # The simulator is imported by the first cell that runs, so a run
    # served from the cache never loads it.
    from ..des.profiling import take_last_profile
    from ..rocc.aggregate import simulate_aggregated
    from ..rocc.system import simulate

    config, aggregated, traced, lp_workers = payload
    if aggregated:
        runner: Callable[[SimulationConfig], SimulationResults] = simulate_aggregated
    else:
        # lp_workers=1 pins the sequential kernel: the engine has already
        # resolved REPRO_DES_PARALLEL, and its cache key says which ran.
        def runner(cfg, _k=lp_workers or 1):
            return simulate(cfg, lp_workers=_k)
    # A traced cell records into its own fresh tracer (explicitly
    # installed — forked workers inherit the parent's tracer object, and
    # inline cells must not write parent spans twice) and ships the
    # batch back, exactly like kernel profiles do.
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
        profile=take_last_profile(),
        trace=tracer.batch() if tracer is not None else None,
        metrics=diff_snapshots(metrics_before, obs_registry().snapshot()),
        pid=os.getpid(),
    )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

#: Pool failures tolerated before an engine demotes itself to serial
#: in-process execution.
DEGRADE_AFTER = 3
#: A pool worker gets ``cell_timeout × DEADLINE_GRACE + 2`` seconds before
#: the parent-side guard declares it hung and tears the pool down.
DEADLINE_GRACE = 3.0

# Module-cached instruments (registry().reset() zeroes them in place,
# so the references stay valid across test isolation).
_RETRIES = obs_registry().counter(
    "engine.retries", "cell re-executions scheduled by the engine"
)
_TIMEOUTS = obs_registry().counter(
    "engine.cell_timeouts", "cells that exceeded their wall-clock deadline"
)
_ATTEMPT_SECONDS = obs_registry().histogram(
    "engine.attempt_seconds", "wall seconds per executed cell attempt"
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

    The remaining parameters default to the plain run — sequential
    cells unless ``REPRO_DES_PARALLEL`` says otherwise, no retries, no
    deadline, no journal, ``strict=True`` — which leaves a healthy run
    exactly as if each cell were simulated directly:

    * ``lp_workers`` — in-cell LP parallelism: an LP count applied to
      every eligible cell, ``"auto"`` to partition big cells when cores
      allow, or ``None`` for ``REPRO_DES_PARALLEL`` (read once, here).
      Cell workers and LP workers multiply — size the product to the
      machine.
    * ``retry`` — the :class:`RetryPolicy` for transient failures
      (default :meth:`RetryPolicy.none`).
    * ``cell_timeout`` — per-cell wall-clock deadline, seconds.
      Enforced inside the worker via the kernel watchdog
      (``max_wall_seconds``) and, for workers hung outside the kernel,
      by a parent-side wait guard (:data:`DEADLINE_GRACE`) that tears
      the pool down.
    * ``journal`` — a :class:`RunJournal` (or a path) to checkpoint into
      and resume from: completed cells are served from the journal
      without executing.
    * ``strict`` — when False, a cell that exhausts its attempts never
      raises: it is returned as a :class:`CellError` artifact (the
      partial-results contract of ``isolate=True``) and recorded in
      :attr:`failure_report`.

    Attempt accounting: a failure *inside* a cell (exception, watchdog
    stall, deadline breach) consumes one of the cell's attempts.  Pool
    shrapnel — sibling futures that die with ``BrokenProcessPool`` or
    are cancelled because some *other* cell broke the pool — is requeued
    without consuming the victim cells' budgets, and is bounded by
    :data:`DEGRADE_AFTER` pool failures, after which the engine runs
    serially.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[CellCache] = None,
                 stats: Optional[EngineStats] = None,
                 lp_workers: Union[int, str, None] = None,
                 retry: Optional[RetryPolicy] = None,
                 cell_timeout: Optional[float] = None,
                 journal: Union[RunJournal, str, Path, None] = None,
                 strict: bool = True):
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1") or 1)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if lp_workers is None:
            # Only a set variable needs its parser, whose module loads
            # the model's network layer.
            if os.environ.get("REPRO_DES_PARALLEL", "").strip():
                from ..rocc.partition import lp_workers_from_env

                lp_workers = lp_workers_from_env()
        elif isinstance(lp_workers, str):
            if lp_workers != "auto":
                raise ValueError("lp_workers must be an int, 'auto', or None")
        elif lp_workers < 1:
            raise ValueError("lp_workers must be >= 1")
        elif lp_workers == 1:
            lp_workers = None
        if cell_timeout is not None and not 0 < cell_timeout < inf:
            raise ValueError("cell_timeout must be finite and positive (or None)")
        self.workers = workers
        #: ``None`` (sequential), an LP count >= 2, or ``"auto"``.
        self.lp_workers = lp_workers
        self.cache = cache if cache is not None else CellCache()
        self.stats = stats if stats is not None else EngineStats(workers=workers)
        self.stats.workers = workers
        self.retry = retry if retry is not None else RetryPolicy.none()
        self.cell_timeout = cell_timeout
        self.journal = (
            journal if isinstance(journal, RunJournal) or journal is None
            else RunJournal(journal)
        )
        self.strict = strict
        self.failure_report = FailureReport()
        self._pool_failures = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        #: The picklable callable executed per cell.  The chaos harness
        #: (:mod:`repro.experiments.chaos`) swaps in a fault-injecting
        #: wrapper; everything else uses :func:`_run_cell`.
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
        """Shut the worker pool down and close the journal (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scheduling ----------------------------------------------------
    def run_cells(
        self,
        configs: Sequence[SimulationConfig],
        aggregated: bool = False,
        isolate: bool = False,
    ) -> List[Union[SimulationResults, CellError]]:
        """Run every cell, returning outcomes in submission order.

        Journaled and cached cells are served without executing; the
        rest run inline (``workers=1``) or on the pool.  Failures become
        :class:`CellError` entries under ``isolate=True`` or
        ``strict=False`` and raise otherwise — the original exception
        when picklable, :class:`EngineCellError` when not.
        """
        configs = list(configs)
        isolate = isolate or not self.strict
        t_start = time.perf_counter()
        hits_before = self.stats.cache_hits
        try:
            with timed(_BATCH_SECONDS), maybe_span(
                "run_cells", cat="engine.batch",
                args={"cells": len(configs), "workers": self.workers},
            ) as span:
                outcomes = self._run_cells(configs, aggregated, isolate)
                if span is not None:
                    span.args["cache_hits"] = (
                        self.stats.cache_hits - hits_before
                    )
                return outcomes
        finally:
            self.stats.wall_time += time.perf_counter() - t_start

    def _run_cells(self, configs, aggregated, isolate):
        self.stats.cells_submitted += len(configs)
        outcomes: List[Union[SimulationResults, CellError, None]]
        outcomes = [None] * len(configs)
        pending = []
        for i, config in enumerate(configs):
            lp = self._lp_workers_for(config, aggregated)
            if lp is None and isinstance(self.lp_workers, int) and not aggregated:
                self.stats.lp_fallbacks += 1  # ineligible configuration
            key = self._fingerprint(config, aggregated)
            hit = self._lookup(key)
            if hit is not None:
                outcomes[i] = hit
            else:
                pending.append((i, config, key, lp, 1))

        for i, config, key, out, attempt in self._execute(
            pending, aggregated, isolate
        ):
            self.stats.cells_run += 1
            if out.ok:
                outcomes[i] = out.result
                if self.journal is not None:
                    self.journal.record_success(
                        key, out.result, attempt=attempt, wall=out.wall
                    )
                if key:
                    self.cache.put(key, out.result)
                continue
            self.stats.cell_errors += 1
            if self.journal is not None:
                self.journal.record_failure(
                    key, attempt, out.error.error.splitlines()[0]
                )
            self.failure_report.add(config, key, attempt, out.error)
            if not isolate:
                if out.exc is not None:
                    raise out.exc
                raise EngineCellError(out.error)
            outcomes[i] = out.error
        return outcomes

    def _lp_workers_for(self, config: SimulationConfig,
                        aggregated: bool) -> Optional[int]:
        """Resolve the in-cell LP count for one cell, or ``None``.

        ``"auto"`` partitions only cells big enough to amortize the
        worker processes (>= 256 nodes), only on machines with cores to
        spare, and only when the configuration is protocol-eligible.
        An explicit count runs an ineligible configuration sequentially.
        """
        if aggregated or self.lp_workers is None:
            return None
        from ..rocc.partition import parallel_ineligibility

        if parallel_ineligibility(config) is not None:
            return None
        if self.lp_workers == "auto":
            cpus = os.cpu_count() or 1
            if cpus < 4 or config.nodes < 256:
                return None
            return min(4, cpus)
        return self.lp_workers

    def _fingerprint(self, config: SimulationConfig,
                     aggregated: bool) -> Optional[str]:
        """Cache and journal key of one cell, or None when neither is on."""
        if not self.cache.enabled and self.journal is None:
            return None
        key = config_fingerprint(config, aggregated)
        lp = self._lp_workers_for(config, aggregated)
        if lp is not None:
            # A partitioned run may differ from the sequential one in
            # the last ulp of a few re-associated float sums; keep the
            # two result streams apart.
            key = hashlib.sha256(f"{key}|lp{lp}".encode()).hexdigest()
        return key

    def _lookup(self, key: Optional[str]) -> Optional[SimulationResults]:
        """Serve a cell without executing it (journal, then cache)."""
        if key is None:
            return None
        if self.journal is not None:
            result = self.journal.result_for(key)
            if result is not None:
                self.stats.cells_resumed += 1
                return result
        if not self.cache.enabled:
            return None
        corrupt_before = self.cache.corrupt_entries
        hit = self.cache.get(key)
        self.stats.cache_corrupt += self.cache.corrupt_entries - corrupt_before
        if hit is not None:
            self.stats.cache_hits += 1
        return hit

    # -- execution -----------------------------------------------------
    def _execute(self, pending, aggregated: bool, isolate: bool):
        """Run *pending* ``(i, config, key, lp, attempt)`` cells; yield
        ``(i, config, key, outcome, attempts)`` for each final outcome."""
        traced = tracing_enabled()
        while pending:
            if self.workers == 1 or len(pending) == 1:
                for i, config, key, lp, attempt in pending:
                    out, attempt = self._serial_attempts(
                        config, key, lp, aggregated, traced, attempt
                    )
                    yield i, config, key, out, attempt
                    if not out.ok and not isolate:
                        return  # fail fast: later cells never start
                return
            pending, delay = yield from self._pool_round(
                pending, aggregated, traced
            )
            if pending and delay > 0.0:
                time.sleep(delay)

    def _serial_attempts(self, config, key, lp, aggregated, traced,
                         attempt: int) -> Tuple[_CellOutcome, int]:
        """Run one cell inline until success or the policy gives up;
        returns the final outcome and the attempt count."""
        while True:
            self._journal_attempt(key, attempt)
            with maybe_span(
                "attempt", cat="engine.attempt",
                args={"attempt": attempt, "key": (key or "")[:12]},
            ):
                out = self._run_inline(config, lp, aggregated, traced)
            self._book(out)
            if out.ok or not self._retry(out, key, attempt):
                return out, attempt
            time.sleep(self.retry.delay(attempt, key or ""))
            attempt += 1

    def _pool_round(self, pending, aggregated, traced):
        """One parallel wave over *pending*; yields finished cells and
        returns ``(still_pending, backoff_delay)``."""
        # Not the builtin TimeoutError: before Python 3.11 they differ.
        from concurrent.futures import TimeoutError as _FuturesTimeout

        pool = self._ensure_pool()
        futures = []
        for item in pending:
            i, config, key, lp, attempt = item
            self._journal_attempt(key, attempt)
            futures.append((item, pool.submit(
                self.cell_runner,
                (self._with_deadline(config), aggregated, traced, lp),
            )))
        next_pending: List[Tuple] = []
        delay = 0.0
        pool_failed = False
        for item, future in futures:
            i, config, key, lp, attempt = item
            with maybe_span(
                "attempt", cat="engine.attempt",
                args={"attempt": attempt, "key": (key or "")[:12]},
            ) as span:
                try:
                    # Once the pool is known broken, the remaining
                    # futures fail (or were cancelled) immediately —
                    # keep a short guard instead of a full deadline wait.
                    wait = 15.0 if pool_failed else self._wait_timeout()
                    out = future.result(timeout=wait)
                except KeyboardInterrupt:
                    raise
                except _FuturesTimeout:
                    # The worker is hung somewhere the in-worker
                    # watchdog cannot reach; kill the pool and charge
                    # this cell.
                    out = self._timeout_outcome(config)
                    self._note_pool_failure(hard=True)
                    pool_failed = True
                except BaseException:
                    # Worker death (BrokenProcessPool) or post-reset
                    # cancellation: pool-level shrapnel.  Requeue
                    # without consuming the cell's attempt budget —
                    # bounded by DEGRADE_AFTER, not max_attempts.
                    if not pool_failed:
                        self._note_pool_failure(hard=False)
                        pool_failed = True
                    self._count_retry(key, attempt, "BrokenProcessPool")
                    next_pending.append(item)
                    if span is not None:
                        span.args["requeued"] = True
                    continue
                if span is not None:
                    span.args["ok"] = out.ok
            self._book(out)
            if not out.ok and self._retry(out, key, attempt):
                delay = max(delay, self.retry.delay(attempt, key or ""))
                next_pending.append((i, config, key, lp, attempt + 1))
            else:
                yield i, config, key, out, attempt
        return next_pending, delay

    def _run_inline(self, config: SimulationConfig, lp: Optional[int],
                    aggregated: bool, traced: bool) -> _CellOutcome:
        """One inline cell; exceptions from a swapped-in ``cell_runner``
        (chaos wrappers raise by design) become failure artifacts."""
        try:
            return self.cell_runner(
                (self._with_deadline(config), aggregated, traced, lp)
            )
        except Exception as exc:
            return _CellOutcome(
                ok=False, error=CellError.from_exception(config, exc), exc=exc
            )

    # -- bookkeeping ---------------------------------------------------
    def _book(self, out: _CellOutcome) -> None:
        """Account for one executed attempt, final or retried: its wall
        and CPU time, spans, metrics delta and kernel profile."""
        _ATTEMPT_SECONDS.observe(out.wall)
        self.stats.cell_wall_time += out.wall
        self.stats.cell_cpu_time += out.cpu
        tracer = current_tracer()
        if tracer is not None and out.trace is not None:
            tracer.merge(out.trace)
        if out.metrics and out.pid != os.getpid():
            # Inline cells already published into this registry; only
            # foreign (worker) deltas need folding in.
            obs_registry().merge_snapshot(out.metrics)
        if out.profile is not None:
            from ..des.profiling import merge_profiles

            self.stats.profile = merge_profiles(self.stats.profile, out.profile)
            self.stats.sim_events += out.profile["events"]

    def _retry(self, out: _CellOutcome, key: Optional[str],
               attempt: int) -> bool:
        """Note a failed attempt; True when the policy grants another."""
        if self.retry.error_class(out.error) in ("CellTimeout", "SimulationStalled"):
            self.stats.cell_timeouts += 1
            self.failure_report.cell_timeouts += 1
            _TIMEOUTS.inc()
        if not self.retry.should_retry(out.error, attempt):
            return False
        self._count_retry(key, attempt, out.error.error)
        return True

    def _count_retry(self, key: Optional[str], attempt: int,
                     error: str) -> None:
        self.stats.retries += 1
        self.failure_report.retries += 1
        _RETRIES.inc()
        if self.journal is not None:
            self.journal.record_retry(key, attempt, error.splitlines()[0])

    def _journal_attempt(self, key: Optional[str], attempt: int) -> None:
        if self.journal is not None:
            self.journal.record_attempt(key, attempt)

    # -- deadlines and pool failure ------------------------------------
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

    def _wait_timeout(self) -> Optional[float]:
        if self.cell_timeout is None:
            return None
        return self.cell_timeout * DEADLINE_GRACE + 2.0

    def _timeout_outcome(self, config: SimulationConfig) -> _CellOutcome:
        exc = CellTimeout(
            f"cell exceeded its wall-clock deadline of "
            f"{self.cell_timeout}s (worker unresponsive; pool reset)"
        )
        return _CellOutcome(
            ok=False, error=CellError.from_exception(config, exc), exc=exc
        )

    def _note_pool_failure(self, hard: bool) -> None:
        self._pool_failures += 1
        if hard:
            # The workers may be hung, not just dead: terminate them
            # before shutting the executor down.
            processes = getattr(self._pool, "_processes", None) or {}
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        self._reset_broken_pool()
        self.failure_report.pool_resets = self.stats.pool_resets
        if self._pool_failures >= DEGRADE_AFTER and self.workers > 1:
            # Graceful degradation: the pool keeps dying under us, so
            # stop using one.  Serial execution cannot lose workers.
            self.workers = 1
            self.stats.workers = 1
            self.failure_report.degraded_to_serial = True

    def _reset_broken_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self.stats.pool_resets += 1
            obs_registry().counter(
                "engine.pool_resets",
                "worker-pool restarts after breakage",
            ).inc()

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
