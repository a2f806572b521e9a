"""Run flags shared by both command lines.

``python -m repro.experiments`` and ``python -m repro.rocc`` run their
cells through one :class:`~repro.experiments.engine.ExperimentEngine`.
:func:`add_run_flags` defines the flags that shape such a run —
the deadline, strictness, tracing (which also profiles the kernel),
and the planner's precision target and budget — and
:func:`engine_from_args` builds the engine from them.  There is no
resume or retry flag: a rerun serves every finished cell from the cell
cache and simulates only the cells that had not finished or failed.

Each flag has one default.  The values come from outside the program,
so each is checked as it is parsed: a count below its minimum, or a
time or fraction that is not finite and positive, is a usage error
(exit 2) like any other malformed argument.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable, Optional

__all__ = ["Checked", "add_run_flags", "engine_from_args", "int_at_least"]


class Checked(argparse.Action):
    """Store ``check(value)``; a ``ValueError`` becomes a usage error
    that names the flag (``--budget must be >= 1, got 0``)."""

    def __init__(self, *args, check: Callable, **kwargs):
        self.check = check
        super().__init__(*args, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            value = self.check(values)
        except ValueError as exc:
            parser.error(f"{option_string} {exc}")
        setattr(namespace, self.dest, value)


def int_at_least(minimum: int) -> Callable[[str], int]:
    """Check for an integer flag of at least *minimum*."""

    def check(raw: str) -> int:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"must be an integer, got {raw!r}") from None
        if n < minimum:
            raise ValueError(f"must be >= {minimum}, got {n}")
        return n

    return check


def _positive(raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ValueError(f"must be a number, got {raw!r}") from None
    if not 0.0 < x < math.inf:
        raise ValueError(f"must be finite and positive, got {raw}")
    return x


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Define the shared run flags on *parser* (``--plan`` stays per CLI)."""
    flag = parser.add_argument
    flag("--cell-timeout", action=Checked, check=_positive, default=None,
         metavar="SECONDS",
         help="per-cell wall-clock deadline: the kernel watchdog aborts "
         "a cell that exceeds it, and the cell fails")
    flag("--strict", action=argparse.BooleanOptionalAction, default=True,
         help="with --no-strict, failed cells are reported in a failure "
         "report (exit 1) and the run continues with partial results "
         "instead of aborting; a rerun on the cache runs only those")
    flag("--trace-out", metavar="PATH", default=None,
         help="record spans, occupancy tracks and a kernel profile of "
         "every executed cell, print the des.* profile rows with the "
         "metrics and write a trace to PATH (.jsonl for JSONL, otherwise "
         "Perfetto-loadable trace_event JSON; bypasses the cell cache; "
         "default: $REPRO_TRACE)")
    flag("--ci-target", action=Checked, check=_positive, default=0.35,
         metavar="FRACTION",
         help="adaptive replication: relative 90%% CI half-width to reach "
         "per cell (default: 0.35)")
    flag("--budget", action=Checked, check=int_at_least(1), default=None,
         metavar="N",
         help="cap on simulated cell-replications of a planned run "
         "(default: the fixed-r count of a design; 8 for one rocc cell)")


def engine_from_args(args: argparse.Namespace, cache=None,
                     workers: Optional[int] = 1):
    """The :class:`ExperimentEngine` the shared run flags in *args* ask
    for, with *cache* and *workers* as the caller decides."""
    from .engine import ExperimentEngine

    return ExperimentEngine(
        workers=workers,
        cache=cache,
        cell_timeout=args.cell_timeout,
        strict=args.strict,
    )
