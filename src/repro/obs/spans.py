"""Span-based tracing of the reproduction's *own* runs.

The paper's thesis is that an instrumentation system's data-collection
cost must be measured, not guessed; :mod:`repro.obs` applies that to the
harness itself.  A :class:`Tracer` records **spans** (named intervals
with a category, a track, and arguments) and **counter samples**
(timestamped values of a numeric track, e.g. busy CPUs of a node).
Exporters in :mod:`repro.obs.export` turn one tracer into JSONL, Chrome
``trace_event`` JSON (loadable in Perfetto), or a terminal summary.

Two time domains coexist:

* ``wall`` — host microseconds since the Unix epoch
  (:func:`wall_now_us`); used for experiment / cell / run spans.  The
  epoch clock is shared across processes, so worker spans merge onto a
  common timeline.  Exporters re-base wall times to the trace start.
* ``sim`` — simulated microseconds; used for the per-run Gantt tracks
  (CPU / network occupancy).  Each simulation run gets its own
  synthetic track pid (:func:`sim_track_pid`) so cells never share a
  timeline.

Tracing is **ambient and opt-in**: :func:`current_tracer` returns
``None`` unless a tracer was installed with :func:`use_tracing`, and
every instrumentation site in the stack guards itself with one
``is None`` test, so a disabled trace costs nothing measurable (the
DES kernel itself is never touched).  Worker processes of the experiment
engine record into their own tracer and ship a picklable
:class:`SpanBatch` back to the parent, next to their metrics delta.  A
traced run also profiles its kernel into the metrics registry
(:meth:`repro.des.profiling.KernelProfiler.publish`).

The ``REPRO_TRACE`` environment knob enables tracing from the CLIs:
``REPRO_TRACE=1`` writes ``repro-trace.json``, any other non-empty
value is used as the output path (``*.jsonl`` selects JSONL).
"""

from __future__ import annotations

import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "WALL",
    "SIM",
    "wall_now_us",
    "sim_track_pid",
    "Span",
    "CounterSample",
    "SpanBatch",
    "Tracer",
    "current_tracer",
    "tracing_enabled",
    "use_tracing",
    "maybe_span",
    "trace_path_from_env",
]

#: Time-domain markers (see module docstring).
WALL = "wall"
SIM = "sim"

TrackId = Union[int, str]


def wall_now_us() -> float:
    """Wall-clock microseconds since the Unix epoch (cross-process)."""
    return time.time_ns() / 1_000.0


def sim_track_pid(label: str) -> int:
    """Deterministic synthetic pid for one simulation run's sim-time
    tracks.  The high bit keeps it clear of real OS pids."""
    return 0x40000000 | (zlib.crc32(label.encode()) & 0x3FFFFFFF)


@dataclass
class Span:
    """One named interval on a ``(pid, tid)`` track."""

    name: str
    cat: str
    ts: float  # start, µs (domain decides the clock)
    dur: float  # length, µs
    pid: int
    tid: TrackId
    domain: str = WALL
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CounterSample:
    """One timestamped value set of a numeric track (Perfetto ``C``)."""

    name: str
    ts: float
    pid: int
    domain: str = SIM
    values: Dict[str, float] = field(default_factory=dict)


@dataclass
class SpanBatch:
    """Picklable bundle of everything one process recorded.

    Engine workers return this inside their cell outcome; the parent
    merges it into the ambient tracer with :meth:`Tracer.merge`, so a
    multi-process experiment produces one coherent trace.
    """

    pid: int
    spans: List[Span] = field(default_factory=list)
    counters: List[CounterSample] = field(default_factory=list)
    #: ``(pid, None)`` → process name; ``(pid, tid)`` → thread name.
    track_names: Dict[Tuple[int, Optional[TrackId]], str] = field(
        default_factory=dict
    )


class Tracer:
    """Collects spans and counter samples for one process.

    All methods are cheap appends; nothing is exported until one of the
    :mod:`repro.obs.export` writers is invoked.
    """

    def __init__(self, pid: Optional[int] = None, process_name: Optional[str] = None):
        self.pid = int(os.getpid() if pid is None else pid)
        self.spans: List[Span] = []
        self.counters: List[CounterSample] = []
        self.track_names: Dict[Tuple[int, Optional[TrackId]], str] = {}
        self.name_process(
            self.pid, process_name or f"repro pid {self.pid}"
        )

    # -- naming ----------------------------------------------------------
    def name_process(self, pid: int, name: str) -> None:
        self.track_names[(pid, None)] = name

    def name_thread(self, pid: int, tid: TrackId, name: str) -> None:
        self.track_names[(pid, tid)] = name

    # -- recording -------------------------------------------------------
    def add_span(
        self,
        name: str,
        *,
        cat: str,
        ts: float,
        dur: float,
        tid: TrackId = "main",
        pid: Optional[int] = None,
        domain: str = WALL,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        span = Span(
            name=name,
            cat=cat,
            ts=float(ts),
            dur=max(0.0, float(dur)),
            pid=self.pid if pid is None else int(pid),
            tid=tid,
            domain=domain,
            args=args or {},
        )
        self.spans.append(span)
        return span

    def add_counter(
        self,
        name: str,
        ts: float,
        values: Dict[str, float],
        *,
        pid: Optional[int] = None,
        domain: str = SIM,
    ) -> None:
        self.counters.append(
            CounterSample(
                name=name,
                ts=float(ts),
                pid=self.pid if pid is None else int(pid),
                domain=domain,
                values=dict(values),
            )
        )

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "task",
        tid: TrackId = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Span]:
        """Record a wall-clock span around the ``with`` body.

        The yielded :class:`Span` is live: the body may mutate its
        ``args``; ``ts``/``dur`` are filled in on exit.
        """
        t0 = wall_now_us()
        span = Span(
            name=name, cat=cat, ts=t0, dur=0.0,
            pid=self.pid, tid=tid, args=args or {},
        )
        try:
            yield span
        finally:
            span.dur = max(0.0, wall_now_us() - t0)
            self.spans.append(span)

    # -- cross-process ---------------------------------------------------
    def batch(self) -> SpanBatch:
        """Snapshot everything recorded so far as a picklable batch."""
        return SpanBatch(
            pid=self.pid,
            spans=list(self.spans),
            counters=list(self.counters),
            track_names=dict(self.track_names),
        )

    def merge(self, batch: SpanBatch) -> None:
        """Fold a worker's batch into this tracer."""
        self.spans.extend(batch.spans)
        self.counters.extend(batch.counters)
        for key, name in batch.track_names.items():
            self.track_names.setdefault(key, name)

    def __len__(self) -> int:
        return len(self.spans)


# ---------------------------------------------------------------------------
# Ambient tracer
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE is not None


@contextmanager
def use_tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Make a tracer ambient for the ``with`` body, restoring the
    previous one (possibly ``None``) afterwards."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev


@contextmanager
def maybe_span(
    name: str,
    cat: str = "task",
    tid: TrackId = "main",
    args: Optional[Dict[str, Any]] = None,
) -> Iterator[Optional[Span]]:
    """Span on the ambient tracer if one is active, else a no-op."""
    tracer = _ACTIVE
    if tracer is None:
        yield None
    else:
        with tracer.span(name, cat=cat, tid=tid, args=args) as span:
            yield span


def trace_path_from_env() -> Optional[str]:
    """Trace output path requested by ``REPRO_TRACE`` (``None`` = off)."""
    raw = os.environ.get("REPRO_TRACE", "").strip()
    if raw.lower() in ("", "0", "off", "false", "no"):
        return None
    if raw.lower() in ("1", "on", "true", "yes"):
        return "repro-trace.json"
    return raw
