"""Distribution fitting with maximum-likelihood estimators.

Implements the estimators the paper cites from Law & Kelton
(*Simulation Modeling and Analysis*):

* exponential — MLE mean is the sample mean;
* lognormal — MLE of (μ, σ) are mean/std of the log-data;
* Weibull — MLE via the one-dimensional profile equation for the shape,
  solved by bisection (Law & Kelton §6.5), scale in closed form.

:func:`fit_best` replicates the paper's model-selection step for
Figure 8 / Table 2: fit every candidate family and rank by
log-likelihood (optionally by Kolmogorov–Smirnov distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .distributions import (
    Distribution,
    Exponential,
    Lognormal,
    Weibull,
)

__all__ = [
    "FitResult",
    "fit_exponential",
    "fit_lognormal",
    "fit_weibull",
    "fit_best",
    "CANDIDATE_FAMILIES",
]


def _clean(data: Sequence[float], positive: bool = True) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise ValueError("cannot fit an empty data set")
    if positive:
        arr = arr[arr > 0]
        if arr.size == 0:
            raise ValueError("no positive observations to fit")
    return arr


def fit_exponential(data: Sequence[float]) -> Exponential:
    """MLE exponential fit: mean = sample mean."""
    arr = _clean(data)
    return Exponential(float(np.mean(arr)))


def fit_lognormal(data: Sequence[float]) -> Lognormal:
    """MLE lognormal fit via moments of ``log(data)``."""
    arr = _clean(data)
    logs = np.log(arr)
    mu = float(np.mean(logs))
    sigma = float(np.std(logs))  # MLE uses the biased (n) estimator
    if sigma == 0.0:
        sigma = 1e-12
    return Lognormal.from_log_params(mu, sigma)


def fit_weibull(
    data: Sequence[float],
    tol: float = 1e-10,
    max_iter: int = 200,
) -> Weibull:
    """MLE Weibull fit.

    Solves the profile likelihood equation for the shape *k*::

        sum(x^k ln x)/sum(x^k) - 1/k = mean(ln x)

    by bisection on ``k`` in a bracket grown from [1e-3, 1e3]; the scale
    then follows as ``(mean(x^k))^(1/k)``.
    """
    arr = _clean(data)
    ln = np.log(arr)
    mean_ln = float(np.mean(ln))

    def g(k: float) -> float:
        # Numerically-stable computation of sum(x^k ln x)/sum(x^k):
        # work with exp(k*ln(x) - m) where m = max(k*ln(x)).
        kl = k * ln
        m = float(np.max(kl))
        w = np.exp(kl - m)
        return float(np.sum(w * ln) / np.sum(w)) - 1.0 / k - mean_ln

    lo, hi = 1e-3, 10.0
    while g(hi) < 0 and hi < 1e6:
        hi *= 2.0
    glo = g(lo)
    if glo > 0:
        # Degenerate (near-constant) data: shape is effectively huge.
        lo = hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * max(1.0, hi):
            break
    k = 0.5 * (lo + hi)
    kl = k * ln
    m = float(np.max(kl))
    lam = math.exp((math.log(np.mean(np.exp(kl - m))) + m) / k)
    return Weibull(k, lam)


#: Fitting candidates considered in Figure 8 of the paper.
CANDIDATE_FAMILIES: Dict[str, Callable[[Sequence[float]], Distribution]] = {
    "exponential": fit_exponential,
    "weibull": fit_weibull,
    "lognormal": fit_lognormal,
}


@dataclass
class FitResult:
    """Outcome of fitting one family to one data set."""

    family: str
    distribution: Distribution
    loglik: float
    ks_statistic: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FitResult({self.family}, loglik={self.loglik:.4g}, "
            f"ks={self.ks_statistic:.4g}, {self.distribution!r})"
        )


def fit_best(
    data: Sequence[float],
    families: Iterable[str] = ("exponential", "weibull", "lognormal"),
    criterion: str = "loglik",
) -> Tuple[FitResult, List[FitResult]]:
    """Fit each candidate family and return (winner, all results).

    ``criterion`` is ``"loglik"`` (maximize) or ``"ks"`` (minimize the
    Kolmogorov–Smirnov distance).
    """
    from .goodness import ks_statistic

    arr = _clean(data)
    results: List[FitResult] = []
    for family in families:
        try:
            fitter = CANDIDATE_FAMILIES[family]
        except KeyError:
            raise ValueError(f"unknown family {family!r}") from None
        dist = fitter(arr)
        results.append(
            FitResult(
                family=family,
                distribution=dist,
                loglik=dist.loglik(arr),
                ks_statistic=ks_statistic(arr, dist),
            )
        )
    if criterion == "loglik":
        best = max(results, key=lambda r: r.loglik)
    elif criterion == "ks":
        best = min(results, key=lambda r: r.ks_statistic)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return best, results
