"""Kernel profiler: where does a simulation's wall time go?

The ROCC study is about measuring an instrumentation system's own cost;
:class:`KernelProfiler` applies the same idea to the simulator.  It is
a tracer (see :class:`~repro.des.core.Environment.add_tracer`) that
attributes host wall-clock time to the event *whose callbacks are
running* — the span between two consecutive trace calls belongs to the
earlier event — and aggregates by event kind and by process name, plus
periodic heap-occupancy samples.

The profiler costs one ``perf_counter`` call and a couple of dict
updates per event, so only traced runs pay it: when an obs tracer is
installed (``--trace-out`` or ``REPRO_TRACE``),
:class:`~repro.rocc.system.ParadynISSystem` attaches one and
:meth:`KernelProfiler.publish` its report into the :mod:`repro.obs`
metrics registry, which carries it across processes like every other
metric.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import registry as obs_registry
from .core import Environment
from .events import Actor, Hold, Process
from .tracing import event_kind

__all__ = ["KernelProfiler"]

#: ``des.heap_depth`` bucket bounds: powers of two up to 64 Ki entries.
_DEPTH_BOUNDS = tuple(float(1 << i) for i in range(17))


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
        self._heap_depths: List[int] = []
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
            self._heap_depths.append(len(self.env))
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
        depths = self._heap_depths
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
                "samples": len(depths),
                "mean": sum(depths) / len(depths) if depths else 0.0,
                "max": max(depths, default=0),
            },
            # Scheduler's own operation counters (enqueues, dequeues,
            # bucket resizes, max bucket occupancy) — the calendar
            # queue's health at a glance.
            "queue": dict(self.env.scheduler.stats()),
        }

    def publish(self) -> None:
        """Fold :meth:`report` into the process-wide obs metrics
        registry: counters ``des.events``, ``des.enqueues`` and
        ``des.dequeues``; an event count and a wall-seconds counter per
        event kind (``des.kind.<kind>``, ``des.kind.<kind>_s``) and per
        reported process (``des.proc.<name>``, ``des.proc.<name>_s``);
        and the sampled schedule depths as the ``des.heap_depth``
        histogram."""
        reg = obs_registry()
        report = self.report()
        queue = report["queue"]
        reg.counter("des.events", "kernel events of traced runs").inc(
            report["events"])
        reg.counter("des.enqueues", "scheduler enqueues of traced runs").inc(
            queue["enqueues"])
        reg.counter("des.dequeues", "scheduler dequeues of traced runs").inc(
            queue["dequeues"])
        for prefix, rows in (("des.kind.", report["by_kind"]),
                             ("des.proc.", report["by_process"])):
            for name, row in rows.items():
                reg.counter(prefix + name).inc(row["count"])
                reg.counter(prefix + name + "_s").inc(row["wall_seconds"])
        depth = reg.histogram("des.heap_depth", "sampled schedule depth",
                              bounds=_DEPTH_BOUNDS)
        for d in self._heap_depths:
            depth.observe(d)
