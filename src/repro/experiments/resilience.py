"""Formats and policies of bounded, resumable cell execution.

:class:`~repro.experiments.engine.ExperimentEngine` makes every failure
bounded and every sweep restartable; this module holds the pieces that
define *what* it does, independent of the scheduling loop:

* :class:`RetryPolicy` — which failures are transient (by exception
  class name), how many attempts a cell gets, and the exponential
  backoff with deterministic jitter between them.  Cells are
  deterministic, so a retry that succeeds is indistinguishable from a
  first-attempt success.
* :class:`RunJournal` — the append-only JSONL checkpoint format, keyed
  by the engine's content-addressed cell fingerprint.  Re-running with
  the same journal serves completed cells from it without simulating
  them again.
* :class:`FailureReport` — the structured account of lost cells,
  retries, deadline breaches and pool resets returned alongside
  partial results (``strict=False``).
* :class:`CellTimeout` — the failure of a worker that hung past its
  deadline outside the kernel, where the watchdog cannot reach.

The module imports nothing from the engine, which imports it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

from ..rocc.config import SimulationConfig
from ..rocc.metrics import SimulationResults

if TYPE_CHECKING:
    from .engine import CellError

__all__ = [
    "CellTimeout",
    "RetryPolicy",
    "CellFailure",
    "FailureReport",
    "RunJournal",
]


class CellTimeout(RuntimeError):
    """A cell exceeded its wall-clock deadline (parent-side wait guard)."""


#: Exception class names retried by default: everything that can be
#: transient on a loaded host — watchdog stalls (the cell itself is
#: deterministic, but wall-clock deadlines are not), worker death and
#: its pool-level shrapnel, and injected chaos faults.
DEFAULT_TRANSIENT: Tuple[str, ...] = (
    "SimulationStalled",
    "CellTimeout",
    "BrokenProcessPool",
    "ChaosKilled",
    "CancelledError",
    "EOFError",
    "BrokenPipeError",
    "ConnectionResetError",
    "LPWorkerLost",
)


@dataclass(frozen=True)
class RetryPolicy:
    """When and how to re-run a failed cell.

    Only *transient* failures are retried: the failure's exception class
    name (the prefix of :attr:`CellError.error`) must appear in
    :attr:`retry_on`.  Deterministic model errors (a ``ValueError`` from
    a bad config, say) would fail identically on every attempt, so they
    are never retried.  Backoff is exponential with multiplicative
    jitter derived from a hash of ``(cell key, attempt)`` — deterministic
    across runs, decorrelated across cells.
    """

    #: Total attempts per cell (1 = no retries).
    max_attempts: int = 3
    #: First backoff delay, seconds.
    backoff_base: float = 0.05
    #: Multiplier applied per additional attempt.
    backoff_factor: float = 2.0
    #: Jitter fraction in [0, 1): delay is scaled by 1 ± jitter·u.
    backoff_jitter: float = 0.5
    #: Exception class names considered transient.
    retry_on: Tuple[str, ...] = DEFAULT_TRANSIENT

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """No retries: every first failure is final."""
        return cls(max_attempts=1)

    def error_class(self, error: CellError) -> str:
        """The exception class name carried by a failure artifact."""
        return error.error.split(":", 1)[0].strip()

    def is_transient(self, error: CellError) -> bool:
        return self.error_class(error) in self.retry_on

    def should_retry(self, error: CellError, attempt: int) -> bool:
        """Whether attempt *attempt* (1-based) may be followed by another."""
        return attempt < self.max_attempts and self.is_transient(error)

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before attempt ``attempt + 1``, seconds."""
        d = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.backoff_jitter > 0.0:
            digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
            u = int.from_bytes(digest[:8], "big") / 2.0 ** 64  # [0, 1)
            d *= 1.0 + self.backoff_jitter * (2.0 * u - 1.0)
        return d


# ---------------------------------------------------------------------------
# Failure reporting
# ---------------------------------------------------------------------------


@dataclass
class CellFailure:
    """One cell that exhausted its attempts (or was not retryable)."""

    config_summary: str
    key: Optional[str]
    attempts: int
    error: str
    traceback: str = ""


@dataclass
class FailureReport:
    """Structured account of everything the resilience layer survived.

    Returned alongside partial results (``strict=False``) and threaded
    into reporting: :func:`repro.experiments.reporting.failure_report_table`
    renders it as an artifact table.  Truthiness means "cells were
    lost"; recovered incidents (pool resets, retries that eventually
    succeeded) are recorded but do not make the report truthy.
    """

    failures: List[CellFailure] = field(default_factory=list)
    retries: int = 0
    cell_timeouts: int = 0
    pool_resets: int = 0
    degraded_to_serial: bool = False

    def __bool__(self) -> bool:
        return bool(self.failures)

    def add(self, config: SimulationConfig, key: Optional[str],
            attempts: int, error: CellError) -> None:
        self.failures.append(CellFailure(
            config_summary=error.config_summary,
            key=key,
            attempts=attempts,
            error=error.error,
            traceback=error.traceback,
        ))

    def summary(self) -> str:
        bits = [f"{len(self.failures)} cell(s) failed"]
        if self.retries:
            bits.append(f"{self.retries} retries")
        if self.cell_timeouts:
            bits.append(f"{self.cell_timeouts} deadline breaches")
        if self.pool_resets:
            bits.append(f"{self.pool_resets} pool resets")
        if self.degraded_to_serial:
            bits.append("degraded to serial execution")
        return ", ".join(bits)

    def format(self) -> str:
        lines = [f"failure report: {self.summary()}"]
        for f in self.failures:
            lines.append(
                f"  {f.config_summary}: {f.error} "
                f"(after {f.attempts} attempt(s))"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Run journal (checkpoint / resume)
# ---------------------------------------------------------------------------


class RunJournal:
    """Append-only JSONL record of a sweep, keyed by cell fingerprint.

    Events: ``journal`` (header), ``attempt``, ``retry``, ``success``
    (carries the pickled :class:`SimulationResults`, base64-encoded,
    with a sha256 checksum), and ``failure`` (final, after retries).
    Because cell fingerprints already content-address the full config
    *and* the simulation source, resuming from a journal is safe across
    process restarts: a changed config or changed code simply produces
    different keys and re-runs.

    Loading tolerates a torn tail (a crash mid-append) and corrupt
    ``success`` payloads — any record that fails to parse or fails its
    checksum is ignored, so the worst outcome of journal damage is
    recomputing a cell, never serving garbage.
    """

    VERSION = 1

    def __init__(self, path: Union[str, Path], resume: bool = True):
        self.path = Path(path).expanduser()
        self._blobs: Dict[str, bytes] = {}
        self.attempts: Dict[str, int] = {}
        self.failed: Dict[str, str] = {}
        #: Lines skipped on load (torn tail, checksum mismatch).
        self.skipped_records = 0
        existed = self.path.exists()
        if resume and existed:
            self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        if not existed:
            self._write({
                "event": "journal",
                "version": self.VERSION,
                "pid": os.getpid(),
            })

    # -- persistence ---------------------------------------------------
    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                self.skipped_records += 1  # torn tail / scribbled line
                continue
            event = rec.get("event")
            key = rec.get("key")
            if event in ("attempt", "retry") and key:
                self.attempts[key] = max(
                    self.attempts.get(key, 0), int(rec.get("attempt", 1))
                )
            elif event == "success" and key:
                try:
                    blob = base64.b64decode(rec["result"])
                except (KeyError, ValueError):
                    self.skipped_records += 1
                    continue
                if hashlib.sha256(blob).hexdigest() != rec.get("sha256"):
                    self.skipped_records += 1
                    continue
                self._blobs[key] = blob
                self.failed.pop(key, None)
            elif event == "failure" and key:
                self.failed[key] = str(rec.get("error", ""))

    def _write(self, rec: dict, fsync: bool = False) -> None:
        rec = dict(rec)
        rec["ts"] = round(time.time(), 3)
        self._fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        self._fh.flush()
        if fsync:
            try:
                os.fsync(self._fh.fileno())
            except OSError:
                pass

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries -------------------------------------------------------
    def completed_keys(self) -> Set[str]:
        return set(self._blobs)

    def result_for(self, key: str) -> Optional[SimulationResults]:
        """The journaled result of a completed cell, else None."""
        blob = self._blobs.get(key)
        if blob is None:
            return None
        try:
            result = pickle.loads(blob)
        except Exception:
            self._blobs.pop(key, None)
            self.skipped_records += 1
            return None
        return result if isinstance(result, SimulationResults) else None

    # -- recording -----------------------------------------------------
    def record_attempt(self, key: Optional[str], attempt: int) -> None:
        if key:
            self.attempts[key] = max(self.attempts.get(key, 0), attempt)
            self._write({"event": "attempt", "key": key, "attempt": attempt})

    def record_retry(self, key: Optional[str], attempt: int, error: str) -> None:
        if key:
            self._write({
                "event": "retry", "key": key,
                "attempt": attempt, "error": error,
            })

    def record_success(self, key: Optional[str], results: SimulationResults,
                       attempt: int = 1, wall: float = 0.0) -> None:
        if not key:
            return
        blob = pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
        self._write({
            "event": "success",
            "key": key,
            "attempt": attempt,
            "wall": round(wall, 6),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "result": base64.b64encode(blob).decode("ascii"),
        }, fsync=True)
        self._blobs[key] = blob
        self.failed.pop(key, None)

    def record_failure(self, key: Optional[str], attempt: int, error: str) -> None:
        if key:
            self._write({
                "event": "failure", "key": key,
                "attempt": attempt, "error": error,
            }, fsync=True)
            self.failed[key] = error
