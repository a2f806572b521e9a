"""Confidence intervals on simulation output (the paper uses 90 %).

"The mean values of the two metrics ... are derived within 90 %
confidence intervals from a sample of fifty values" (§4.1).  These
helpers provide the t-based interval and the repetition-count check
("is r large enough for the target half-width?").

Both helpers are total over real pilot data — including the degenerate
samples an adaptive replication driver inevitably feeds them:

* fewer than two finite observations yield a *degenerate*
  :class:`MeanCI` (infinite half-width, ``n`` = the finite count)
  rather than raising — the caller sees "no precision yet" and keeps
  replicating;
* zero-variance samples (common under common-random-numbers sweeps
  where a metric is deterministic) yield a zero-width interval and a
  repetition estimate equal to the pilot size — converged, not a
  division by zero;
* non-finite observations (NaN latency from a run with no samples) are
  excluded consistently by both helpers.

Both are pure Python (no numpy on a warm planned rerun) and repeat
numpy's float64 pairwise summation, so every interval is bit for bit
the one ``np.mean``/``np.std`` gave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["MeanCI", "mean_confidence_interval", "repetitions_needed"]


@dataclass(frozen=True)
class MeanCI:
    """A mean with its confidence interval.

    A *degenerate* interval (fewer than two finite observations, see
    :func:`mean_confidence_interval`) has ``low = -inf``/``high = inf``;
    its :attr:`half_width` and :attr:`relative_half_width` are ``inf``,
    so precision tests like ``ci.relative_half_width <= target`` are
    well-defined and simply fail until more data arrives.
    """

    mean: float
    low: float
    high: float
    level: float
    n: int

    @property
    def degenerate(self) -> bool:
        """Whether the interval carries no precision information."""
        return self.n < 2

    @property
    def half_width(self) -> float:
        if self.degenerate:
            return math.inf
        return (self.high - self.low) / 2.0

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (∞ for a zero or
        undefined mean)."""
        if self.mean == 0 or not math.isfinite(self.mean):
            return math.inf
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def _pairwise_sum(values: List[float], lo: int, n: int) -> float:
    """numpy's float64 ``add.reduce`` of ``values[lo:lo + n]``, bit for
    bit: fewer than 8 values are summed in order; up to 128 with eight
    interleaved partial sums; longer runs split in two at a multiple
    of 8."""
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        r = values[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(values, lo, half)
            + _pairwise_sum(values, lo + half, n - half))


def _finite(data: Sequence[float]) -> List[float]:
    """The finite observations of *data*, as floats."""
    return [x for x in map(float, data) if math.isfinite(x)]


def _mean_std(values: List[float]) -> Tuple[float, float]:
    """``(np.mean(values), np.std(values, ddof=1))`` for two or more
    values, computed the way numpy computes them."""
    n = len(values)
    mean = _pairwise_sum(values, 0, n) / n
    squares = [d * d for d in (x - mean for x in values)]
    return mean, math.sqrt(_pairwise_sum(squares, 0, n) / (n - 1))


def mean_confidence_interval(
    data: Sequence[float], level: float = 0.90
) -> MeanCI:
    """t-based CI for the mean of iid observations.

    NaN/inf observations come from runs that produced no data for the
    metric (e.g. a latency series with zero samples); they carry no
    information about the mean, so they are excluded rather than letting
    a single NaN poison the whole interval.  With fewer than two finite
    observations left there is no variance estimate, and the result is
    a degenerate interval: ``mean`` is the single observation (or NaN
    for none), ``low``/``high`` are ∓∞, and ``n`` is the finite count.
    Zero-variance samples produce an exact zero-width interval.
    """
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    values = _finite(data)
    n = len(values)
    if n < 2:
        mean = values[0] if n == 1 else math.nan
        return MeanCI(mean=mean, low=-math.inf, high=math.inf,
                      level=level, n=n)
    from ..special import stdtrit

    mean, std = _mean_std(values)
    sem = std / math.sqrt(n)
    h = float(stdtrit(n - 1, 0.5 + level / 2.0)) * sem
    return MeanCI(mean=mean, low=mean - h, high=mean + h, level=level, n=n)


def repetitions_needed(
    data: Sequence[float],
    target_relative_half_width: float,
    level: float = 0.90,
) -> int:
    """Estimate how many repetitions reach the target relative precision.

    Standard pilot-run sizing: n* = (z s / (ε x̄))², rounded up, at
    least the pilot size.  Total over degenerate pilots:

    * non-finite observations are excluded (matching
      :func:`mean_confidence_interval`);
    * fewer than two finite observations → no variance estimate, so no
      extrapolation is attempted and the result is ``max(n_finite, 2)``
      (the smallest sample a CI can be formed from);
    * zero variance → the target is met at any n ≥ 2: returns the pilot
      size;
    * zero mean → the *relative* criterion is undefined (the true
      half-width target is 0·ε = 0); again no extrapolation is
      attempted and the pilot size is returned — callers that genuinely
      need convergence on a zero-mean response must use an absolute
      criterion instead.
    """
    if target_relative_half_width <= 0:
        raise ValueError("target_relative_half_width must be positive")
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    values = _finite(data)
    if len(values) < 2:
        return max(len(values), 2)
    mean, s = _mean_std(values)
    if mean == 0 or s == 0:
        return len(values)
    from ..special import ndtri

    z = float(ndtri(0.5 + level / 2.0))
    n_star = (z * s / (target_relative_half_width * mean)) ** 2
    return max(int(math.ceil(n_star)), len(values))
