"""Statistics accumulator for observing a running simulation.

:class:`Tally` covers the discrete observations the ROCC study reports
(e.g. per-sample monitoring latency): count, mean, variance, min/max.
It is cheap (O(1) per observation, Welford updates) and keeps no
observations: a caller that needs order statistics keeps its own series
(the ROCC metrics keep every receipt's latencies, see
:class:`repro.rocc.metrics.Metrics`).

Resource busy time is plain per-owner accounting in the resources
(:mod:`repro.rocc.cpu`, :mod:`repro.rocc.network`); no time-weighted
level is kept, since no result reads one.
"""

from __future__ import annotations

import math

__all__ = ["Tally"]


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
