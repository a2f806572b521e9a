"""Statistics accumulators for observing a running simulation.

Two accumulator flavours cover the metrics the ROCC study needs:

* :class:`Tally` — discrete observations (e.g. per-sample monitoring
  latency): count, mean, variance, min/max, optional retention of the
  raw series.
* :class:`TimeWeighted` — piecewise-constant signals integrated over
  time (e.g. number of busy CPUs, queue length): time-average and
  integral ("busy time").

Both are cheap (O(1) per observation, Welford updates) so they can be
attached to hot paths of the simulator.

Long runs add two O(1)-memory companions: :class:`P2Quantile`, the
Jain & Chlamtac P² estimator (CACM 1985) for streaming percentiles, and
:class:`ReservoirSample` (Vitter's Algorithm R) for a bounded uniform
sample of an unbounded observation stream.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import List, Optional

__all__ = ["Tally", "TimeWeighted", "P2Quantile", "ReservoirSample"]


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac).

    Five markers track the running min, max, the target quantile ``q``
    and the two intermediate quantiles; marker heights are adjusted with
    a piecewise-parabolic fit as observations arrive.  Memory is O(1)
    and each observation costs a handful of comparisons, so the
    estimator can ride the receipt path of arbitrarily long runs where
    a stored series would grow without bound.

    Accuracy: the estimate converges on the true quantile for smooth
    distributions; in validation against ``np.percentile`` on the
    simulator's latency streams (heavy-tailed lognormal-ish mixtures,
    n ≥ 10⁵) the relative error of p50/p90 stays within a few percent
    and p99 within ~10% — adequate for the trend plots the paper
    reports, not for unit-test-tight assertions (use a stored series
    below the cap for those).
    """

    __slots__ = ("q", "_n", "_heights", "_pos", "_desired", "_incr")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must lie in (0, 1): {q}")
        self.q = q
        self._n = 0
        self._heights: List[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._incr = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        """Fold one observation into the estimate."""
        n = self._n
        self._n = n + 1
        heights = self._heights
        if n < 5:
            # Initialization: collect the first five observations.
            heights.append(value)
            if n == 4:
                heights.sort()
            return
        pos = self._pos
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while value >= heights[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        desired = self._desired
        incr = self._incr
        for i in range(5):
            desired[i] += incr[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                d = 1.0 if d >= 0.0 else -1.0
                hi, hl, hr = heights[i], heights[i - 1], heights[i + 1]
                pi, pl, pr = pos[i], pos[i - 1], pos[i + 1]
                # Piecewise-parabolic (P²) prediction.
                h = hi + d / (pr - pl) * (
                    (pi - pl + d) * (hr - hi) / (pr - pi)
                    + (pr - pi - d) * (hi - hl) / (pi - pl)
                )
                if not hl < h < hr:
                    # Parabola left the bracket: fall back to linear.
                    h = hi + d * (
                        (hr - hi) / (pr - pi) if d > 0 else (hl - hi) / (pl - pi)
                    )
                heights[i] = h
                pos[i] += d

    @property
    def count(self) -> int:
        return self._n

    @property
    def value(self) -> float:
        """Current estimate of the ``q``-quantile (NaN when empty)."""
        n = self._n
        if n == 0:
            return math.nan
        heights = self._heights
        if n <= 5:
            # Exact while everything observed still fits in the markers.
            s = sorted(heights)
            # Linear interpolation matching np.percentile's default.
            rank = self.q * (n - 1)
            lo = int(rank)
            hi = min(lo + 1, n - 1)
            frac = rank - lo
            return s[lo] * (1.0 - frac) + s[hi] * frac
        return heights[2]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"P2Quantile(q={self.q}, n={self._n}, value={self.value:.4g})"


class ReservoirSample:
    """Uniform fixed-size sample of an unbounded stream (Algorithm R).

    Every observation ever seen has probability ``size / n`` of being in
    the reservoir, so order statistics computed from it are unbiased
    estimates of the stream's.  Seeded deterministically (from the name,
    by default) so runs remain reproducible.
    """

    __slots__ = ("size", "_items", "_n", "_rng")

    def __init__(self, size: int, seed: Optional[int] = None, name: str = ""):
        if size < 1:
            raise ValueError("reservoir size must be >= 1")
        self.size = int(size)
        self._items: List[float] = []
        self._n = 0
        if seed is None:
            seed = zlib.crc32(name.encode("utf-8"))
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        """Offer one observation to the reservoir."""
        n = self._n
        self._n = n + 1
        items = self._items
        if len(items) < self.size:
            items.append(value)
        else:
            j = self._rng.randrange(n + 1)
            if j < self.size:
                items[j] = value

    @property
    def count(self) -> int:
        """Observations offered (not the reservoir occupancy)."""
        return self._n

    @property
    def items(self) -> List[float]:
        """The current sample (at most ``size`` values, unordered)."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReservoirSample(size={self.size}, n={self._n})"


class Tally:
    """Streaming mean/variance of discrete observations (Welford).

    ``keep_series`` retains the raw observations; ``series_cap`` bounds
    that retention: past the cap the series degrades gracefully into a
    uniform :class:`ReservoirSample`-style subsample (Algorithm R) of
    the whole stream instead of growing without bound, so long runs
    stay memory-flat while order statistics computed from the series
    remain unbiased.  The replacement RNG is seeded from the tally name,
    keeping runs reproducible.
    """

    __slots__ = ("name", "_n", "_mean", "_m2", "_min", "_max", "_total",
                 "series", "_series_cap", "_series_rng")

    def __init__(
        self,
        name: str = "",
        keep_series: bool = False,
        series_cap: Optional[int] = None,
    ):
        if series_cap is not None and series_cap < 1:
            raise ValueError("series_cap must be >= 1")
        self.name = name
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0
        #: Raw observations, retained only if ``keep_series`` was set.
        self.series: Optional[List[float]] = [] if keep_series else None
        self._series_cap = series_cap
        self._series_rng: Optional[random.Random] = None

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
        series = self.series
        if series is not None:
            cap = self._series_cap
            if cap is None or len(series) < cap:
                series.append(value)
            else:
                rng = self._series_rng
                if rng is None:
                    rng = random.Random(zlib.crc32(self.name.encode("utf-8")))
                    self._series_rng = rng
                j = rng.randrange(self._n)
                if j < cap:
                    series[j] = value

    @property
    def series_subsampled(self) -> bool:
        """Whether the retained series has degraded to a subsample."""
        return (
            self.series is not None
            and self._series_cap is not None
            and self._n > self._series_cap
        )

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
        which cannot go backwards.
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
