"""Process-wide metrics registry: counters, gauges, histograms.

Subsystems publish their activity here — the ROCC system publishes one
set of per-run totals after every simulation (and, when traced, its
kernel profile as ``des.*`` metrics), and the verification harness
counts audits and violations.  The registry is a
plain in-process singleton (:func:`registry`): publishing is one
attribute update, so the metrics stay cheap enough to leave on
unconditionally — the hot DES kernel never touches them.

Cross-process runs (the experiment engine's workers) ship a snapshot
delta back with each cell; :meth:`MetricsRegistry.merge_snapshot` folds
it into the parent so CLI summaries see the whole fleet's activity.
Snapshots are plain dicts (JSON-friendly, picklable).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "diff_snapshots",
    "timed",
]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-written value (e.g. current pool size)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


#: Default histogram bucket upper bounds: four decades around 1.0,
#: suiting both second-scale wall times and µs-scale latencies once the
#: caller picks the unit.
_DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


class Histogram:
    """Fixed-bucket histogram with count / sum / min / max."""

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count",
                 "total", "_min", "_max")

    def __init__(self, name: str, help: str = "",
                 bounds: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.help = help
        self.bounds = tuple(bounds) if bounds else _DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        # One bucket per bound plus the overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self.count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self.count else math.nan


class MetricsRegistry:
    """Name → metric map with get-or-create accessors.

    Accessors return the existing metric when the name is known (so
    hot sites can cache the object once) and raise on a kind mismatch
    rather than silently aliasing two different instruments.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, **kwargs)
        elif type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  bounds: Optional[Tuple[float, ...]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, bounds=bounds)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric **in place** — cached references (module
        globals of hot publishers) stay valid across test isolation."""
        for metric in self._metrics.values():
            if isinstance(metric, Counter) or isinstance(metric, Gauge):
                metric.value = 0.0
            elif isinstance(metric, Histogram):
                metric.bucket_counts = [0] * (len(metric.bounds) + 1)
                metric.count = 0
                metric.total = 0.0
                metric._min = math.inf
                metric._max = -math.inf

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """JSON-friendly view of every metric."""
        out: Dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {"type": "gauge", "value": metric.value}
            else:
                h = metric
                out[name] = {
                    "type": "histogram",
                    "count": h.count,
                    "sum": h.total,
                    "min": h.minimum if h.count else None,
                    "max": h.maximum if h.count else None,
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                }
        return out

    def merge_snapshot(self, snap: Dict[str, dict]) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value (last write wins, the gauge contract).
        """
        for name, entry in snap.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).value += entry["value"]
            elif kind == "gauge":
                self.gauge(name).set(entry["value"])
            elif kind == "histogram":
                h = self.histogram(name, bounds=tuple(entry["bounds"]))
                if tuple(entry["bounds"]) != h.bounds:
                    raise ValueError(
                        f"histogram {name!r} bucket bounds mismatch on merge"
                    )
                for i, c in enumerate(entry["bucket_counts"]):
                    h.bucket_counts[i] += c
                h.count += entry["count"]
                h.total += entry["sum"]
                if entry["count"]:
                    h._min = min(h._min, entry["min"])
                    h._max = max(h._max, entry["max"])

    def format(self) -> str:
        """Terminal rendering of every metric, one line each."""
        lines = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                lines.append(f"  {name:<36s} {metric.value:g}")
            elif isinstance(metric, Gauge):
                lines.append(f"  {name:<36s} {metric.value:g} (gauge)")
            else:
                lines.append(
                    f"  {name:<36s} n={metric.count} mean={metric.mean:g} "
                    f"min={metric.minimum:g} max={metric.maximum:g}"
                )
        return "\n".join(lines) if lines else "  (no metrics)"


def diff_snapshots(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, dict]:
    """Delta of two snapshots of the *same* registry (after − before).

    Used by engine workers to ship only the activity of one cell.
    Counters and histogram buckets subtract; gauges report the final
    value; histogram min/max carry the ``after`` values (extremes are
    not invertible — documented approximation).
    """
    out: Dict[str, dict] = {}
    for name, entry in after.items():
        prev = before.get(name)
        kind = entry.get("type")
        if kind == "counter":
            delta = entry["value"] - (prev["value"] if prev else 0.0)
            if delta:
                out[name] = {"type": "counter", "value": delta}
        elif kind == "gauge":
            if prev is None or prev["value"] != entry["value"]:
                out[name] = dict(entry)
        elif kind == "histogram":
            prev_counts = prev["bucket_counts"] if prev else [0] * len(entry["bucket_counts"])
            counts = [a - b for a, b in zip(entry["bucket_counts"], prev_counts)]
            count = entry["count"] - (prev["count"] if prev else 0)
            if count:
                out[name] = {
                    "type": "histogram",
                    "count": count,
                    "sum": entry["sum"] - (prev["sum"] if prev else 0.0),
                    "min": entry["min"],
                    "max": entry["max"],
                    "bounds": list(entry["bounds"]),
                    "bucket_counts": counts,
                }
    return out


@contextmanager
def timed(histogram: Histogram):
    """Observe a block's wall-clock duration (seconds) into *histogram*.

    The observation is recorded even when the block raises, so failure
    paths (retried cell attempts, aborted batches) stay visible in the
    latency distribution.
    """
    t0 = perf_counter()
    try:
        yield histogram
    finally:
        histogram.observe(perf_counter() - t0)


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry singleton."""
    return _REGISTRY
