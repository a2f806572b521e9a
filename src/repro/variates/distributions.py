"""Probability distributions used by the ROCC workload model.

The paper (Table 2) parameterizes request lengths with **exponential**
and **lognormal** distributions and considers **Weibull** as a fitting
candidate (Figure 8).  Distributions here are parameterized the way the
paper reports them — e.g. ``Lognormal(mean, std)`` takes the *observed*
mean and standard deviation of the data, not the log-space parameters —
so model code can transcribe Table 2 literally.

Every distribution supports scalar and vectorized sampling from a
``numpy.random.Generator``, plus pdf/cdf/ppf and exact moments, which
the fitting and goodness-of-fit modules rely on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Union

from .._lazy import lazy_module

np = lazy_module("numpy", globals())

__all__ = [
    "Distribution",
    "Deterministic",
    "Uniform",
    "Exponential",
    "Erlang",
    "Lognormal",
    "Weibull",
    "Normal",
    "Hyperexponential",
    "Pareto",
    "Empirical",
]

ArrayLike = Union[float, "np.ndarray"]


def _point_mass_ppf(q: np.ndarray, value: float) -> ArrayLike:
    """Quantile of a zero-variance distribution: *value* on ``[0, 1]``.

    ``mean + 0 * ndtri(q)`` would be NaN at ``q = 0`` and ``q = 1``
    (``0 * -inf``, ``0 * inf``).  NaN outside ``[0, 1]`` and at NaN, as
    ``ndtri`` gives.
    """
    return np.where((q >= 0) & (q <= 1), value, np.nan)[()]


class Distribution(ABC):
    """A one-dimensional distribution over non-negative reals."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected value."""

    @property
    @abstractmethod
    def var(self) -> float:
        """Variance."""

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.var)

    @property
    def support_min(self) -> float:
        """Greatest lower bound of the support (infimum).

        Used by the parallel-kernel partitioner to derive conservative
        lookahead from link latency distributions: no draw is ever below
        this value.  The base implementation returns 0.0 — every
        distribution here is over non-negative reals, so zero is always
        a safe (if loose) bound; subclasses with a tighter known floor
        (:class:`Deterministic`, :class:`Uniform`) override it.
        """
        return 0.0

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        """Draw one value (``size=None``) or an array of ``size`` values."""

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw *n* values as a float64 array (the hot block-refill path).

        Consumes exactly the same generator state as ``sample(rng, n)``,
        so block-buffered and per-call sampling yield identical
        sequences.  Subclasses whose vectorized draw is already a float64
        ndarray override this to skip the ``asarray`` normalization.
        """
        return np.asarray(self.sample(rng, n), dtype=float)

    @abstractmethod
    def pdf(self, x: ArrayLike) -> ArrayLike:
        """Probability density at *x*."""

    @abstractmethod
    def cdf(self, x: ArrayLike) -> ArrayLike:
        """Cumulative distribution at *x*."""

    @abstractmethod
    def ppf(self, q: ArrayLike) -> ArrayLike:
        """Quantile function (inverse cdf) at probability *q*."""

    def loglik(self, data: np.ndarray) -> float:
        """Total log-likelihood of *data* under this distribution."""
        with np.errstate(divide="ignore"):
            return float(np.sum(np.log(self.pdf(np.asarray(data, dtype=float)))))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(mean={self.mean:.6g}, std={self.std:.6g})"


class Deterministic(Distribution):
    """Degenerate distribution: always returns ``value``."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("value must be non-negative")
        self.value = float(value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def var(self) -> float:
        return 0.0

    @property
    def support_min(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        if size is None:
            return self.value
        return np.full(size, self.value)

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # No randomness to draw; rng state is untouched either way.
        return np.full(n, self.value)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        return np.where(x == self.value, np.inf, 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.value, 1.0, 0.0)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q = np.asarray(q, dtype=float)
        return np.full_like(q, self.value)


class Uniform(Distribution):
    """Continuous uniform on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if high <= low:
            raise ValueError("high must exceed low")
        self.low = float(low)
        self.high = float(high)

    @property
    def support_min(self) -> float:
        return self.low

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def var(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        return rng.uniform(self.low, self.high, size)

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, n)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q = np.asarray(q, dtype=float)
        return self.low + q * (self.high - self.low)


class Exponential(Distribution):
    """Exponential distribution parameterized by its **mean** (as in Table 2)."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = float(mean)

    @property
    def rate(self) -> float:
        """Rate parameter λ = 1/mean."""
        return 1.0 / self._mean

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def var(self) -> float:
        return self._mean * self._mean

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        return rng.exponential(self._mean, size)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        lam = self.rate
        return np.where(x >= 0, lam * np.exp(-lam * x), 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 1.0 - np.exp(-self.rate * x), 0.0)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q = np.asarray(q, dtype=float)
        return -self._mean * np.log1p(-q)


class Erlang(Distribution):
    """Erlang (gamma with integer shape ``k``) with the given **mean**."""

    def __init__(self, k: int, mean: float):
        if k < 1:
            raise ValueError("k must be >= 1")
        if mean <= 0:
            raise ValueError("mean must be positive")
        self.k = int(k)
        self._mean = float(mean)
        self.theta = self._mean / self.k  # scale of each stage

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def var(self) -> float:
        return self.k * self.theta**2

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        return rng.gamma(self.k, self.theta, size)

    # pdf/cdf/ppf evaluate the same scipy.special expressions, in the
    # same order, as scipy.stats.gamma(k, scale=theta), so the values
    # are bit-identical without importing scipy.stats
    # (tests/variates/test_special_equivalence.py).

    def pdf(self, x: ArrayLike) -> ArrayLike:
        from scipy.special import gammaln, xlogy

        x = np.asarray(x, dtype=float)
        z = x / self.theta
        with np.errstate(invalid="ignore"):
            out = np.exp(xlogy(self.k - 1.0, z) - z - gammaln(self.k)) / self.theta
        return np.where(x < 0, 0.0, out)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        from scipy.special import gammainc

        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, gammainc(self.k, x / self.theta))

    def ppf(self, q: ArrayLike) -> ArrayLike:
        from scipy.special import gammaincinv

        # gammaincinv is NaN outside [0, 1], 0 at q = 0 and inf at q = 1.
        return gammaincinv(self.k, np.asarray(q, dtype=float)) * self.theta


class Lognormal(Distribution):
    """Lognormal parameterized by the **observed mean and std** of the data.

    The paper writes ``lognormal(a, b)`` for "a lognormal random variable
    with mean *a* and [standard deviation] *b*" (Table 2).  Internally we
    solve for the log-space parameters::

        sigma^2 = ln(1 + (std/mean)^2)
        mu      = ln(mean) - sigma^2 / 2
    """

    def __init__(self, mean: float, std: float):
        if mean <= 0:
            raise ValueError("mean must be positive")
        if std < 0:
            raise ValueError("std must be non-negative")
        self._mean = float(mean)
        self._std = float(std)
        cv2 = (std / mean) ** 2
        self.sigma2 = math.log1p(cv2)
        self.sigma = math.sqrt(self.sigma2)
        self.mu = math.log(mean) - 0.5 * self.sigma2

    @classmethod
    def from_log_params(cls, mu: float, sigma: float) -> "Lognormal":
        """Construct from log-space parameters (μ, σ of the underlying normal)."""
        mean = math.exp(mu + 0.5 * sigma * sigma)
        var = (math.exp(sigma * sigma) - 1.0) * math.exp(2 * mu + sigma * sigma)
        return cls(mean, math.sqrt(var))

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def var(self) -> float:
        return self._std * self._std

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        return rng.lognormal(self.mu, self.sigma, size)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        if self.sigma == 0:  # point mass at the mean
            out = np.where(x == self._mean, np.inf, 0.0)
            return out if x.ndim else float(out)
        if x.ndim:
            out = np.zeros_like(x)
            pos = x > 0
            z = (np.log(x[pos]) - self.mu) / self.sigma
            out[pos] = np.exp(-0.5 * z * z) / (
                x[pos] * self.sigma * math.sqrt(2 * math.pi)
            )
            return out
        if not x > 0:
            return 0.0
        z = (math.log(x) - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (x * self.sigma * math.sqrt(2 * math.pi))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        from ..special import ndtr

        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-300)) - self.mu) / max(self.sigma, 1e-300)
        return np.where(x > 0, ndtr(z), 0.0)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        from ..special import ndtri

        q = np.asarray(q, dtype=float)
        if self.sigma == 0:
            return _point_mass_ppf(q, self._mean)
        return np.exp(self.mu + self.sigma * ndtri(q))


class Weibull(Distribution):
    """Weibull with shape ``k`` and scale ``lam`` (Figure 8 fit candidate)."""

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)

    @property
    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    @property
    def var(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1 * g1)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        return self.scale * rng.weibull(self.shape, size)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        k, lam = self.shape, self.scale
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (k / lam) * (x / lam) ** (k - 1.0) * np.exp(-((x / lam) ** k))
        return np.where(x >= 0, np.nan_to_num(out, posinf=np.inf), 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 1.0 - np.exp(-((np.maximum(x, 0) / self.scale) ** self.shape)), 0.0)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q = np.asarray(q, dtype=float)
        return self.scale * (-np.log1p(-q)) ** (1.0 / self.shape)

    def __repr__(self) -> str:
        return f"Weibull(shape={self.shape:.6g}, scale={self.scale:.6g})"


class Normal(Distribution):
    """Normal distribution, optionally truncated at zero when sampling.

    Request lengths are non-negative; ``truncate=True`` (default) clips
    samples at zero, matching how measurement noise is generated for the
    synthetic traces.  Moments reported are those of the *untruncated*
    normal.
    """

    def __init__(self, mean: float, std: float, truncate: bool = True):
        if std < 0:
            raise ValueError("std must be non-negative")
        self._mean = float(mean)
        self._std = float(std)
        self.truncate = truncate

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def var(self) -> float:
        return self._std * self._std

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        out = rng.normal(self._mean, self._std, size)
        if self.truncate:
            out = np.maximum(out, 0.0) if size is not None else max(out, 0.0)
        return out

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        s = max(self._std, 1e-300)
        z = (x - self._mean) / s
        return np.exp(-0.5 * z * z) / (s * math.sqrt(2 * math.pi))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        from ..special import ndtr

        x = np.asarray(x, dtype=float)
        return ndtr((x - self._mean) / max(self._std, 1e-300))

    def ppf(self, q: ArrayLike) -> ArrayLike:
        from ..special import ndtri

        q = np.asarray(q, dtype=float)
        if self._std == 0:
            return _point_mass_ppf(q, self._mean)
        return self._mean + self._std * ndtri(q)


class Hyperexponential(Distribution):
    """Mixture of exponentials: phase *i* with probability ``p_i``.

    The standard model for service times with coefficient of variation
    above 1 (e.g. bimodal request lengths mixing short control messages
    with large data transfers); complements the Table-2 families when
    exploring workload sensitivity.
    """

    def __init__(self, probs: Sequence[float], means: Sequence[float]):
        p = np.asarray(probs, dtype=float)
        m = np.asarray(means, dtype=float)
        if p.shape != m.shape or p.ndim != 1 or p.size == 0:
            raise ValueError("probs and means must be equal-length 1-D")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be non-negative and sum to 1")
        if (m <= 0).any():
            raise ValueError("phase means must be positive")
        self.probs = p
        self.means = m

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.means))

    @property
    def var(self) -> float:
        second_moment = float(np.dot(self.probs, 2.0 * self.means**2))
        return second_moment - self.mean**2

    @property
    def cv(self) -> float:
        """Coefficient of variation (>= 1 for any hyperexponential)."""
        return self.std / self.mean

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        if size is None:
            phase = rng.choice(self.probs.size, p=self.probs)
            return float(rng.exponential(self.means[phase]))
        phases = rng.choice(self.probs.size, size=size, p=self.probs)
        return rng.exponential(self.means[phases])

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for p, m in zip(self.probs, self.means):
            out = out + np.where(x >= 0, p / m * np.exp(-np.maximum(x, 0) / m), 0.0)
        return np.where(x >= 0, out, 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for p, m in zip(self.probs, self.means):
            out = out + p * (1.0 - np.exp(-np.maximum(x, 0) / m))
        return np.where(x >= 0, out, 0.0)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        # No closed form: bisection on the cdf (vectorized).
        q = np.atleast_1d(np.asarray(q, dtype=float))
        lo = np.zeros_like(q)
        hi = np.full_like(q, float(self.means.max()))
        # Grow hi until cdf(hi) exceeds every q.
        for _ in range(200):
            mask = np.asarray(self.cdf(hi)) < q
            if not mask.any():
                break
            hi = np.where(mask, hi * 2.0, hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = np.asarray(self.cdf(mid)) < q
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return out if out.size > 1 else float(out[0])

    def __repr__(self) -> str:
        return (
            f"Hyperexponential(probs={self.probs.tolist()}, "
            f"means={self.means.tolist()})"
        )


class Pareto(Distribution):
    """Pareto (Lomax-style, ``x >= xm``) — heavy-tail fitting candidate."""

    def __init__(self, alpha: float, xm: float):
        if alpha <= 0 or xm <= 0:
            raise ValueError("alpha and xm must be positive")
        self.alpha = float(alpha)
        self.xm = float(xm)

    @property
    def mean(self) -> float:
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1.0)

    @property
    def var(self) -> float:
        a = self.alpha
        if a <= 2:
            return math.inf
        return self.xm**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        return self.xm * (1.0 + rng.pareto(self.alpha, size))

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.alpha * self.xm**self.alpha / np.maximum(x, 1e-300) ** (
                self.alpha + 1.0
            )
        return np.where(x >= self.xm, out, 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = 1.0 - (self.xm / np.maximum(x, 1e-300)) ** self.alpha
        return np.where(x >= self.xm, out, 0.0)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q = np.asarray(q, dtype=float)
        return self.xm / (1.0 - q) ** (1.0 / self.alpha)

    def __repr__(self) -> str:
        return f"Pareto(alpha={self.alpha:.6g}, xm={self.xm:.6g})"


class Empirical(Distribution):
    """Resamples from an observed data set (with replacement).

    Used to drive "trace playback" style simulations where the fitted
    distribution is replaced by the raw measurements.
    """

    def __init__(self, data: Sequence[float]):
        arr = np.asarray(data, dtype=float)
        if arr.size == 0:
            raise ValueError("data must be non-empty")
        self.data = np.sort(arr)

    @property
    def mean(self) -> float:
        return float(np.mean(self.data))

    @property
    def var(self) -> float:
        return float(np.var(self.data, ddof=1)) if self.data.size > 1 else 0.0

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayLike:
        out = rng.choice(self.data, size=size, replace=True)
        return float(out) if size is None else out

    def pdf(self, x: ArrayLike) -> ArrayLike:  # histogram density
        hist, edges = np.histogram(self.data, bins="auto", density=True)
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(hist) - 1)
        inside = (x >= edges[0]) & (x <= edges[-1])
        return np.where(inside, hist[idx], 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.data, x, side="right") / self.data.size

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q = np.asarray(q, dtype=float)
        return np.quantile(self.data, q)

    def __repr__(self) -> str:
        return f"Empirical(n={self.data.size}, mean={self.mean:.6g})"
