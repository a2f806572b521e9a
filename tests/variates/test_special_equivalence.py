"""Bit-identity oracle: ``scipy.special`` calls vs the ``scipy.stats`` ones.

``src/repro`` evaluates quantiles, tail probabilities and the Erlang
pdf/cdf/ppf with the ``scipy.special`` ufuncs that ``scipy.stats``
itself dispatches to, because importing ``scipy.stats`` costs about
0.7 s and 45 MiB per process.  Each test here pins one replacement to
the ``scipy.stats`` call it replaced with exact equality (NaN equal to
NaN), so a scipy release that changes either side fails loudly.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtrc, kolmogorov, ndtri, stdtrit

from repro.expdesign import (
    Factor,
    FactorialDesign,
    allocate_variation,
    mean_confidence_interval,
    repetitions_needed,
)
from repro.variates import Erlang, Exponential, Lognormal, chi_square_test, ks_test

LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
DFS = np.arange(1, 2001)


# Exact equality, with NaN equal to NaN.
assert_identical = np.testing.assert_array_equal


# --- t and normal quantiles (expdesign/confidence.py, expdesign/effects.py)


@pytest.mark.parametrize("level", LEVELS)
def test_stdtrit_equals_t_ppf(level):
    q = 0.5 + level / 2.0
    assert_identical(stdtrit(DFS, q), stats.t.ppf(q, DFS))


def test_ndtri_equals_norm_ppf():
    q = np.linspace(0.001, 0.999, 999)
    assert_identical(ndtri(q), stats.norm.ppf(q))
    levels = np.asarray(LEVELS)
    assert_identical(ndtri(0.5 + levels / 2.0), stats.norm.ppf(0.5 + levels / 2.0))


def test_mean_confidence_interval_matches_t_ppf(rng):
    for n in (2, 3, 10, 50, 333):
        data = rng.lognormal(3.0, 1.0, n)
        for level in LEVELS:
            ci = mean_confidence_interval(data, level)
            sem = float(data.std(ddof=1) / math.sqrt(n))
            h = float(stats.t.ppf(0.5 + level / 2.0, n - 1)) * sem
            assert (ci.low, ci.high) == (ci.mean - h, ci.mean + h)


def test_repetitions_needed_matches_norm_ppf(rng):
    data = rng.exponential(10.0, 20)
    mean, s = float(data.mean()), float(data.std(ddof=1))
    for level in LEVELS:
        for eps in (0.01, 0.05, 0.2):
            z = float(stats.norm.ppf(0.5 + level / 2.0))
            expected = max(math.ceil((z * s / (eps * mean)) ** 2), data.size)
            assert repetitions_needed(data, eps, level) == expected


def test_allocate_variation_ci_matches_t_ppf(rng):
    design = FactorialDesign([Factor(f"f{i}", -1, 1, chr(65 + i)) for i in range(3)])
    for r in (2, 3, 7):
        y = rng.normal(10.0, 1.0, (design.n_runs, r))
        for confidence in (0.9, 0.95):
            res = allocate_variation(design, y, confidence)
            run_means = y.mean(axis=1)
            dof = design.n_runs * (r - 1)
            sse = float(((y - run_means[:, None]) ** 2).sum())
            se = math.sqrt(sse / dof / (design.n_runs * r))
            half = float(stats.t.ppf(0.5 + confidence / 2.0, dof)) * se
            for share in res.shares:
                assert share.ci_low == float(share.effect - half)
                assert share.ci_high == float(share.effect + half)


# --- goodness-of-fit tail probabilities (variates/goodness.py)


def test_chdtrc_equals_chi2_sf():
    x = np.concatenate([[0.0], np.linspace(0.01, 200.0, 2000)])
    for df in (1, 2, 3, 5, 10, 22, 47):
        assert_identical(chdtrc(df, x), stats.chi2.sf(x, df))


def test_kolmogorov_equals_kstwobign_sf():
    x = np.concatenate([[0.0], np.linspace(0.005, 5.0, 1000)])
    assert_identical(kolmogorov(x), stats.kstwobign.sf(x))


def _chi_square_reference(data, dist, n_bins, fitted_params):
    """The pre-bincount implementation, on scipy.stats."""
    arr = np.asarray(data, dtype=float)
    n = arr.size
    qs = np.linspace(0.0, 1.0, n_bins + 1)
    edges = np.asarray(dist.ppf(qs[1:-1]), dtype=float)
    counts = np.zeros(n_bins)
    for i in np.searchsorted(edges, arr, side="right"):
        counts[i] += 1
    expected = n / n_bins
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = max(1, n_bins - 1 - fitted_params)
    return stat, dof, float(stats.chi2.sf(stat, dof))


@pytest.mark.parametrize(
    "dist", [Exponential(50.0), Lognormal(40.0, 60.0), Erlang(3, 50.0)],
    ids=lambda d: type(d).__name__,
)
@pytest.mark.parametrize("n_bins", [5, 20, 50])
def test_chi_square_test_matches_reference(rng, dist, n_bins):
    for data in (rng.exponential(50.0, 2000), rng.lognormal(3.5, 0.8, 777)):
        res = chi_square_test(data, dist, n_bins=n_bins, fitted_params=1)
        stat, dof, p = _chi_square_reference(data, dist, n_bins, 1)
        assert (res.statistic, res.dof, res.p_value) == (stat, dof, p)


@pytest.mark.parametrize(
    "dist", [Exponential(10.0), Exponential(14.0), Erlang(8, 10.0)],
    ids=["fit", "off", "erlang"],
)
def test_ks_test_matches_kstwobign(rng, dist):
    for n in (20, 500, 5000):
        data = rng.exponential(10.0, n)
        d, p = ks_test(data, dist)
        lam = d * (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n))
        assert p == min(max(float(stats.kstwobign.sf(lam)), 0.0), 1.0)


# --- Erlang pdf/cdf/ppf (variates/distributions.py)

X_EDGES = np.array([-np.inf, -5.0, -1e-300, -0.0, 0.0, 1e-300, np.inf, np.nan])
Q_EDGES = np.array([-np.inf, -0.5, -1e-12, 0.0, 1.0, 1.0 + 1e-12, 2.0, np.inf, np.nan])


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("mean", [1.0, 600.0])
def test_erlang_matches_scipy_gamma(k, mean):
    d = Erlang(k, mean)
    ref = stats.gamma(k, scale=d.theta)
    x = np.concatenate([X_EDGES, np.linspace(0.0, 12.0 * mean, 2001)])
    q = np.concatenate([Q_EDGES, np.linspace(0.0, 1.0, 1001)])
    with np.errstate(invalid="ignore"):  # scipy.stats's own inf - inf at x = inf
        pdf = ref.pdf(x)
    assert_identical(d.pdf(x), pdf)
    assert_identical(d.cdf(x), ref.cdf(x))
    assert_identical(d.ppf(q), ref.ppf(q))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_erlang_scalar_inputs_match_scipy_gamma(k):
    d = Erlang(k, 600.0)
    ref = stats.gamma(k, scale=d.theta)
    for x in (-1.0, 0.0, 150.0, float("nan")):
        assert_identical(d.pdf(x), ref.pdf(x))
        assert_identical(d.cdf(x), ref.cdf(x))
    for q in (-0.1, 0.0, 0.3, 1.0, 1.5, float("nan")):
        assert_identical(d.ppf(q), ref.ppf(q))
