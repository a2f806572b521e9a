"""Goodness-of-fit diagnostics: K-S, chi-square, Q-Q and histogram series.

These produce the data behind Figure 8 of the paper — histograms with
overlaid candidate pdfs, and quantile-quantile plots against the chosen
theoretical distribution — as plain numeric series suitable for textual
reporting or any plotting front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .distributions import Distribution

__all__ = [
    "ks_statistic",
    "ks_test",
    "anderson_darling",
    "chi_square_test",
    "qq_series",
    "histogram_series",
    "QQSeries",
    "HistogramSeries",
    "ChiSquareResult",
]


def ks_statistic(data: Sequence[float], dist: Distribution) -> float:
    """One-sample Kolmogorov–Smirnov distance between *data* and *dist*."""
    arr = np.sort(np.asarray(data, dtype=float))
    n = arr.size
    if n == 0:
        raise ValueError("empty data")
    cdf = np.asarray(dist.cdf(arr), dtype=float)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_test(data: Sequence[float], dist: Distribution) -> Tuple[float, float]:
    """K-S statistic and asymptotic p-value (Kolmogorov distribution)."""
    from scipy.special import kolmogorov

    arr = np.asarray(data, dtype=float)
    d = ks_statistic(arr, dist)
    n = arr.size
    p = float(kolmogorov(d * (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n))))
    return d, min(max(p, 0.0), 1.0)


def anderson_darling(data: Sequence[float], dist: Distribution) -> float:
    """Anderson–Darling statistic A² against a fully-specified *dist*.

    A² weights the tails far more heavily than K-S, which matters here:
    the paper's own Q-Q discussion notes the lognormal fit "exhibit[s]
    differences at both tails".  Values below ~2.5 indicate a good fit
    for a fully-specified distribution; the statistic is primarily
    useful for *ranking* candidate families on the same data.
    """
    arr = np.sort(np.asarray(data, dtype=float))
    n = arr.size
    if n < 2:
        raise ValueError("need at least two observations")
    cdf = np.clip(np.asarray(dist.cdf(arr), dtype=float), 1e-12, 1 - 1e-12)
    i = np.arange(1, n + 1)
    s = np.sum((2 * i - 1) * (np.log(cdf) + np.log1p(-cdf[::-1])))
    return float(-n - s / n)


@dataclass
class ChiSquareResult:
    """Chi-square goodness-of-fit outcome on equal-probability bins."""

    statistic: float
    dof: int
    p_value: float
    n_bins: int

    @property
    def rejected_at_05(self) -> bool:
        """Whether the fit is rejected at the 5 % level."""
        return self.p_value < 0.05


def chi_square_test(
    data: Sequence[float],
    dist: Distribution,
    n_bins: int = 0,
    fitted_params: int = 2,
) -> ChiSquareResult:
    """Chi-square test with equal-probability binning (Law & Kelton).

    ``n_bins=0`` chooses ``max(5, n // 25)`` bins capped at 50 so each
    bin expects >= ~5 observations.  ``fitted_params`` reduces the
    degrees of freedom for parameters estimated from the data.
    """
    from scipy.special import chdtrc

    arr = np.asarray(data, dtype=float)
    n = arr.size
    if n < 10:
        raise ValueError("need at least 10 observations")
    if n_bins <= 0:
        n_bins = int(min(50, max(5, n // 25)))
    # Equal-probability bin edges from the theoretical quantiles.
    qs = np.linspace(0.0, 1.0, n_bins + 1)
    edges = np.asarray(dist.ppf(qs[1:-1]), dtype=float)
    idx = np.searchsorted(edges, arr, side="right")
    counts = np.bincount(idx, minlength=n_bins).astype(float)
    expected = n / n_bins
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = max(1, n_bins - 1 - fitted_params)
    p = float(chdtrc(dof, stat))
    return ChiSquareResult(statistic=stat, dof=dof, p_value=p, n_bins=n_bins)


@dataclass
class QQSeries:
    """Data for a quantile-quantile plot (Figure 8, right panels)."""

    theoretical: np.ndarray
    observed: np.ndarray
    #: Endpoints of the ideal-fit 45-degree line.
    ideal: Tuple[Tuple[float, float], Tuple[float, float]] = field(default=((0, 0), (1, 1)))

    def max_tail_deviation(self, tail_fraction: float = 0.05) -> float:
        """Largest |observed − theoretical| within the distribution tails.

        The paper notes the lognormal Q-Q plot "exhibit[s] differences at
        both tails"; this quantifies that.
        """
        n = self.theoretical.size
        k = max(1, int(n * tail_fraction))
        dev = np.abs(self.observed - self.theoretical)
        return float(max(dev[:k].max(), dev[-k:].max()))

    def linearity(self) -> float:
        """Pearson correlation between observed and theoretical quantiles."""
        t, o = self.theoretical, self.observed
        if t.size < 2:
            return float("nan")
        return float(np.corrcoef(t, o)[0, 1])


def qq_series(data: Sequence[float], dist: Distribution) -> QQSeries:
    """Observed vs. theoretical quantiles at the plotting positions
    ``(i - 0.5) / n`` (Law & Kelton's convention)."""
    arr = np.sort(np.asarray(data, dtype=float))
    n = arr.size
    if n == 0:
        raise ValueError("empty data")
    probs = (np.arange(1, n + 1) - 0.5) / n
    theo = np.asarray(dist.ppf(probs), dtype=float)
    lo = float(min(theo[0], arr[0]))
    hi = float(max(theo[-1], arr[-1]))
    return QQSeries(theoretical=theo, observed=arr, ideal=((lo, lo), (hi, hi)))


@dataclass
class HistogramSeries:
    """Relative-frequency histogram plus overlaid pdf curves (Figure 8, left)."""

    edges: np.ndarray
    frequencies: np.ndarray  # relative frequency (density) per bin
    pdf_x: np.ndarray
    pdf_curves: dict  # family name -> density values on pdf_x


def histogram_series(
    data: Sequence[float],
    dists: dict,
    n_bins: int = 50,
    n_curve_points: int = 200,
) -> HistogramSeries:
    """Histogram of *data* with overlaid candidate pdfs.

    ``dists`` maps family names to :class:`Distribution` objects; the
    returned curves are evaluated on a common grid spanning the data.
    """
    arr = np.asarray(data, dtype=float)
    freq, edges = np.histogram(arr, bins=n_bins, density=True)
    x = np.linspace(edges[0], edges[-1], n_curve_points)
    curves = {name: np.asarray(d.pdf(x), dtype=float) for name, d in dists.items()}
    return HistogramSeries(edges=edges, frequencies=freq, pdf_x=x, pdf_curves=curves)
