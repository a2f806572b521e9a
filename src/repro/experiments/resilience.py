"""Policies and reports of bounded cell execution.

:class:`~repro.experiments.engine.ExperimentEngine` makes every failure
bounded (a sweep restarts from its cell cache); this module holds the
pieces that define *what* it does, independent of the scheduling loop:

* :class:`RetryPolicy` — which failures are transient (by exception
  class name), how many attempts a cell gets, and the exponential
  backoff with deterministic jitter between them.  Cells are
  deterministic, so a retry that succeeds is indistinguishable from a
  first-attempt success.
* :class:`FailureReport` — the structured account of lost cells,
  retries, deadline breaches and pool resets returned alongside
  partial results (``strict=False``).
* :class:`CellTimeout` — the failure of a worker that hung past its
  deadline outside the kernel, where the watchdog cannot reach.

The module imports nothing from the engine, which imports it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..rocc.config import SimulationConfig

if TYPE_CHECKING:
    from .engine import CellError

__all__ = [
    "CellTimeout",
    "RetryPolicy",
    "CellFailure",
    "FailureReport",
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

    Returned alongside partial results (``strict=False``) as
    ``engine.failure_report``; both CLIs print :meth:`format` when it is
    truthy.  Truthiness means "cells were lost"; recovered incidents
    (pool resets, retries that eventually succeeded) are recorded but
    do not make the report truthy.
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
