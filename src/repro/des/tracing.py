"""Observability for the simulation kernel itself.

The ROCC study is about instrumenting systems; this module instruments
the *simulator*: an :class:`EventLog` records every processed event
(time, kind, actor name) for debugging and for the kernel-throughput
benchmarks.  Long runs are counted by the kernel profiler
(:mod:`repro.des.profiling`) instead, which traced runs attach.

Usage::

    env = Environment()
    with EventLog(env, limit=10_000) as log:
        env.run(until=1_000.0)
    print(log.summary())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .core import Environment
from .events import Actor, Event, Timeout

__all__ = ["TraceEntry", "EventLog", "event_kind"]


def event_kind(event: Event) -> str:
    """Short classification of an event for logs and counters.

    An :class:`~repro.des.events.Actor` is classified by what its entry
    completes (``initialize``, ``timeout``, ``cpudone``, ``transfer``,
    ...); any other event by its class name.
    """
    if isinstance(event, Actor):
        return event.kind
    if isinstance(event, Timeout):
        return "timeout"
    return type(event).__name__.lower()


@dataclass(frozen=True)
class TraceEntry:
    """One processed event."""

    time: float
    kind: str
    name: Optional[str]
    ok: bool


class EventLog:
    """Records processed events, optionally bounded to the last ``limit``.

    Works as a context manager that attaches/detaches itself from the
    environment's tracer list.
    """

    def __init__(self, env: Environment, limit: Optional[int] = None):
        self.env = env
        self.limit = limit
        self.entries: List[TraceEntry] = []
        self.dropped = 0

    # -- tracer protocol --------------------------------------------------
    def __call__(self, event: Event, now: float) -> None:
        if self.limit is not None and len(self.entries) >= self.limit:
            self.dropped += 1
            if not self.entries:  # limit == 0 retains nothing
                return
            self.entries.pop(0)
        self.entries.append(
            TraceEntry(
                time=now,
                kind=event_kind(event),
                name=getattr(event, "name", None),
                ok=bool(event._ok) if event.triggered else True,
            )
        )

    # -- lifecycle ---------------------------------------------------------
    def attach(self) -> "EventLog":
        self.env.add_tracer(self)
        return self

    def detach(self) -> None:
        self.env.remove_tracer(self)

    def __enter__(self) -> "EventLog":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def of_kind(self, kind: str) -> List[TraceEntry]:
        return [e for e in self.entries if e.kind == kind]

    def between(self, start: float, end: float) -> List[TraceEntry]:
        return [e for e in self.entries if start <= e.time <= end]

    def summary(self) -> Dict[str, int]:
        """Event counts by kind (over retained entries)."""
        out: Dict[str, int] = {}
        for e in self.entries:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out
