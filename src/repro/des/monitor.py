"""Statistics accumulators for observing a running simulation.

Two accumulator flavours cover the metrics the ROCC study needs:

* :class:`Tally` — discrete observations (e.g. per-sample monitoring
  latency): count, mean, variance, min/max.
* :class:`TimeWeighted` — piecewise-constant signals integrated over
  time (e.g. number of busy CPUs, queue length): time-average and
  integral ("busy time").

Both are cheap (O(1) per observation, Welford updates) so they can be
attached to hot paths of the simulator.  Neither keeps the observations
themselves: a caller that needs order statistics keeps its own series
(the ROCC metrics keep every receipt's latencies, see
:class:`repro.rocc.metrics.Metrics`).
"""

from __future__ import annotations

import math

__all__ = ["Tally", "TimeWeighted"]


class Tally:
    """Streaming mean/variance of discrete observations (Welford)."""

    __slots__ = ("name", "_n", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self, name: str = ""):
        self.name = name
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self._total

    @property
    def mean(self) -> float:
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        return self._m2 / (self._n - 1) if self._n > 1 else math.nan

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._n else math.nan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tally({self.name!r}, n={self._n}, mean={self.mean:.4g}, "
            f"std={self.std:.4g})"
        )


class TimeWeighted:
    """Integrates a piecewise-constant signal over simulation time.

    Call :meth:`update` whenever the signal changes; read
    :meth:`integral` (area under the curve up to *now*) or
    :meth:`time_average`.

    An optional ``on_change(now, value)`` callback fires after every
    level change — observability watchers use it to sample occupancy
    without the accumulator knowing about them.  It defaults to ``None``
    and costs one attribute test per update.
    """

    __slots__ = ("name", "_value", "_last_time", "_start_time", "_area",
                 "_max", "on_change")

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0):
        self.name = name
        self._value = float(initial)
        self._last_time = float(start_time)
        self._start_time = float(start_time)
        self._area = 0.0
        self._max = float(initial)
        self.on_change = None

    @property
    def value(self) -> float:
        """Current level of the signal."""
        return self._value

    def update(self, value: float, now: float) -> None:
        """Set the signal to *value* at time *now*."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time} ({self.name})"
            )
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = float(value)
        if value > self._max:
            self._max = float(value)
        if self.on_change is not None:
            self.on_change(now, self._value)

    def increment(self, delta: float, now: float) -> None:
        """Adjust the signal by *delta* at time *now*.

        Hot-path variant of :meth:`update`: the body is inlined and the
        monotonic-time guard dropped — kernel callers pass ``env.now``,
        which cannot go backwards.  ``RoundRobinCPU`` inlines this body
        for its busy level.
        """
        value = self._value + delta
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value
        if value > self._max:
            self._max = value
        if self.on_change is not None:
            self.on_change(now, value)

    def integral(self, now: float) -> float:
        """Area under the signal from start to *now*."""
        if now < self._last_time:
            raise ValueError("time went backwards")
        return self._area + self._value * (now - self._last_time)

    def time_average(self, now: float) -> float:
        """Time-weighted mean of the signal from start to *now*."""
        span = now - self._start_time
        return self.integral(now) / span if span > 0 else math.nan

    @property
    def maximum(self) -> float:
        return self._max

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeWeighted({self.name!r}, value={self._value:.4g})"
