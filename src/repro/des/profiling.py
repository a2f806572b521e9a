"""Opt-in kernel profiler: where does a simulation's wall time go?

The ROCC study is about measuring an instrumentation system's own cost;
:class:`KernelProfiler` applies the same idea to the simulator.  It is
a tracer (see :class:`~repro.des.core.Environment.add_tracer`) that
attributes host wall-clock time to the event *whose callbacks are
running* — the span between two consecutive trace calls belongs to the
earlier event — and aggregates by event kind and by process name, plus
periodic heap-occupancy samples.

The profiler costs one ``perf_counter`` call and a couple of dict
updates per event, so it is strictly opt-in: enable it with the
``--profile`` CLI flags or ``REPRO_PROFILE=1``, which
:class:`~repro.rocc.system.ParadynISSystem` honours automatically.

A profile is a plain dict (JSON-friendly) so it can cross process
boundaries from experiment-engine workers back to
:class:`~repro.experiments.engine.EngineStats`.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from .core import Environment
from .events import Actor, Hold, Process
from .tracing import event_kind

__all__ = [
    "KernelProfiler",
    "profile_enabled",
    "merge_profiles",
    "format_profile",
    "set_last_profile",
    "take_last_profile",
]


def profile_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for kernel profiling."""
    return os.environ.get("REPRO_PROFILE", "").strip().lower() in (
        "1", "on", "true", "yes",
    )


class KernelProfiler:
    """Tracer aggregating per-event wall time, counts, and heap depth.

    Parameters
    ----------
    env:
        Environment to observe.
    heap_interval:
        Heap occupancy is sampled every this-many events (cheap
        amortized observability of schedule pressure).
    top_n:
        How many per-process rows :meth:`report` retains.
    """

    def __init__(self, env: Environment, heap_interval: int = 256, top_n: int = 10):
        self.env = env
        self.heap_interval = max(1, int(heap_interval))
        self.top_n = int(top_n)
        self.events = 0
        self._by_kind: Dict[str, List[float]] = {}  # kind -> [count, wall, sim]
        self._by_process: Dict[str, List[float]] = {}
        self._heap_samples = 0
        self._heap_sum = 0
        self._heap_max = 0
        self._last_key: Optional[Tuple[str, Optional[str]]] = None
        self._last_wall = 0.0
        self._last_sim = 0.0
        self._t0 = 0.0
        self._wall = 0.0

    # -- tracer protocol ------------------------------------------------
    def __call__(self, event, now: float) -> None:
        t = perf_counter()
        last = self._last_key
        if last is not None:
            self._charge(last, t - self._last_wall, now - self._last_sim)
        if type(event) is Hold:
            kind = "timeout"
            proc = event.proc
            name = proc.name if proc is not None else None
        else:
            kind = event_kind(event)
            name = getattr(event, "name", None)
            if name is None:
                # Attribute anonymous events to the process (or actor)
                # they resume.
                for cb in event.callbacks or ():
                    owner = getattr(cb, "__self__", None)
                    if isinstance(owner, (Process, Actor)):
                        name = owner.name
                        break
        self.events += 1
        if self.events % self.heap_interval == 0:
            depth = len(self.env)
            self._heap_samples += 1
            self._heap_sum += depth
            if depth > self._heap_max:
                self._heap_max = depth
        self._last_key = (kind, name)
        self._last_wall = t
        self._last_sim = now

    def _charge(self, key: Tuple[str, Optional[str]], wall: float, sim: float) -> None:
        kind, name = key
        row = self._by_kind.get(kind)
        if row is None:
            row = self._by_kind[kind] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += wall
        row[2] += sim
        if name is not None:
            row = self._by_process.get(name)
            if row is None:
                row = self._by_process[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += wall
            row[2] += sim

    # -- lifecycle ------------------------------------------------------
    def attach(self) -> "KernelProfiler":
        self._t0 = perf_counter()
        self.env.add_tracer(self)
        return self

    def detach(self) -> None:
        self.env.remove_tracer(self)
        t = perf_counter()
        if self._last_key is not None:
            # Close the span of the final event.
            self._charge(self._last_key, t - self._last_wall, 0.0)
            self._last_key = None
        self._wall = t - self._t0

    def __enter__(self) -> "KernelProfiler":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- output ---------------------------------------------------------
    def report(self) -> dict:
        """Aggregate the run into a plain (JSON-friendly) dict."""
        wall = self._wall if self._wall > 0 else perf_counter() - self._t0
        top = sorted(
            self._by_process.items(), key=lambda kv: kv[1][1], reverse=True
        )[: self.top_n]
        return {
            "events": self.events,
            "wall_seconds": wall,
            "events_per_second": self.events / wall if wall > 0 else 0.0,
            "sim_time": self.env.now,
            "by_kind": {
                k: {"count": int(v[0]), "wall_seconds": v[1], "sim_time": v[2]}
                for k, v in sorted(self._by_kind.items())
            },
            "by_process": {
                k: {"count": int(v[0]), "wall_seconds": v[1], "sim_time": v[2]}
                for k, v in top
            },
            "heap": {
                "samples": self._heap_samples,
                "mean": (
                    self._heap_sum / self._heap_samples if self._heap_samples else 0.0
                ),
                "max": self._heap_max,
            },
            # Scheduler's own operation counters (enqueues, dequeues,
            # bucket resizes, max bucket occupancy) — the calendar
            # queue's health at a glance.
            "queue": dict(self.env.scheduler.stats()),
        }


def merge_profiles(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    """Combine two profile dicts (sums counts/times, max of heap depth)."""
    if a is None:
        return b
    if b is None:
        return a

    def merge_rows(x: Dict[str, dict], y: Dict[str, dict]) -> Dict[str, dict]:
        out = {k: dict(v) for k, v in x.items()}
        for k, v in y.items():
            row = out.setdefault(k, {"count": 0, "wall_seconds": 0.0, "sim_time": 0.0})
            row["count"] += v["count"]
            row["wall_seconds"] += v["wall_seconds"]
            row["sim_time"] += v["sim_time"]
        return out

    wall = a["wall_seconds"] + b["wall_seconds"]
    events = a["events"] + b["events"]
    return {
        "events": events,
        "wall_seconds": wall,
        "events_per_second": events / wall if wall > 0 else 0.0,
        "sim_time": a["sim_time"] + b["sim_time"],
        "by_kind": merge_rows(a["by_kind"], b["by_kind"]),
        "by_process": merge_rows(a["by_process"], b["by_process"]),
        "heap": {
            "samples": a["heap"]["samples"] + b["heap"]["samples"],
            "mean": (
                (
                    a["heap"]["mean"] * a["heap"]["samples"]
                    + b["heap"]["mean"] * b["heap"]["samples"]
                )
                / (a["heap"]["samples"] + b["heap"]["samples"])
                if a["heap"]["samples"] + b["heap"]["samples"]
                else 0.0
            ),
            "max": max(a["heap"]["max"], b["heap"]["max"]),
        },
        "queue": _merge_queue(a.get("queue"), b.get("queue")),
    }


def _merge_queue(qa: Optional[dict], qb: Optional[dict]) -> dict:
    """Combine scheduler counter sections (tolerates legacy profiles)."""
    qa = qa or {}
    qb = qb or {}
    impl_a = qa.get("impl", "?")
    impl_b = qb.get("impl", "?")
    return {
        "impl": impl_a if impl_a == impl_b else f"{impl_a}+{impl_b}",
        "enqueues": qa.get("enqueues", 0) + qb.get("enqueues", 0),
        "dequeues": qa.get("dequeues", 0) + qb.get("dequeues", 0),
        "resizes": qa.get("resizes", 0) + qb.get("resizes", 0),
        "max_bucket": max(qa.get("max_bucket", 0), qb.get("max_bucket", 0)),
    }


def format_profile(profile: Optional[dict]) -> str:
    """Human-readable rendering of a profile dict."""
    if not profile:
        return "kernel profile: (empty)"
    lines = [
        f"kernel profile: {profile['events']} events in "
        f"{profile['wall_seconds']:.3f}s wall "
        f"({profile['events_per_second']:,.0f} ev/s), "
        f"sim time {profile['sim_time']:g}",
        f"  heap occupancy: mean {profile['heap']['mean']:.1f}, "
        f"max {profile['heap']['max']} "
        f"({profile['heap']['samples']} samples)",
    ]
    queue = profile.get("queue")
    if queue:
        lines.append(
            f"  event queue [{queue.get('impl', '?')}]: "
            f"{queue.get('enqueues', 0):,} enqueues, "
            f"{queue.get('dequeues', 0):,} dequeues, "
            f"{queue.get('resizes', 0)} resizes, "
            f"max bucket {queue.get('max_bucket', 0)}"
        )
    lines.append("  by event kind:")
    for kind, row in sorted(
        profile["by_kind"].items(), key=lambda kv: kv[1]["wall_seconds"], reverse=True
    ):
        lines.append(
            f"    {kind:<12s} {row['count']:>9d} ev  "
            f"{row['wall_seconds']:8.3f}s wall  {row['sim_time']:12.1f} sim"
        )
    if profile["by_process"]:
        lines.append("  top processes:")
        for name, row in sorted(
            profile["by_process"].items(),
            key=lambda kv: kv[1]["wall_seconds"],
            reverse=True,
        ):
            lines.append(
                f"    {name:<24s} {row['count']:>9d} ev  "
                f"{row['wall_seconds']:8.3f}s wall"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Last-profile handoff: lets layers that only see SimulationResults (the
# experiment engine's _run_cell) harvest the profile of the run that just
# finished in this process.
# ---------------------------------------------------------------------------

_last_profile: Optional[dict] = None


def set_last_profile(profile: Optional[dict]) -> None:
    global _last_profile
    _last_profile = profile


def take_last_profile() -> Optional[dict]:
    """Return and clear the most recent run's profile (or ``None``)."""
    global _last_profile
    profile, _last_profile = _last_profile, None
    return profile
