"""Bit-identity oracle: ``repro.special`` and ``scipy.special`` vs scipy.

``src/repro`` never imports ``scipy.stats`` (about 0.7 s and 45 MiB per
process).  Tail probabilities and the Erlang pdf/cdf/ppf call the
``scipy.special`` ufuncs that ``scipy.stats`` itself dispatches to.  The
normal cdf and quantile and the 90 % t-quantile come from
``repro.special`` (cephes ports and a table of scipy's outputs), so the
paper-rerun and planned paths need no scipy at all.  Each test here pins
one replacement to the scipy call it replaced with exact equality (NaN
equal to NaN), so a scipy release that changes either side fails loudly.
"""

import math

import numpy as np
import pytest
import scipy.special as sc
from scipy import stats
from scipy.special import chdtrc, kolmogorov, ndtri, stdtrit

from repro import special
from repro.expdesign import (
    Factor,
    FactorialDesign,
    allocate_variation,
    mean_confidence_interval,
    repetitions_needed,
)
from repro.variates import (
    Erlang,
    Exponential,
    Lognormal,
    Normal,
    chi_square_test,
    ks_test,
)

LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
DFS = np.arange(1, 2001)


# Exact equality, with NaN equal to NaN.
assert_identical = np.testing.assert_array_equal


# --- t and normal quantiles (expdesign/confidence.py, expdesign/effects.py,
# through repro.special at the 90 % level)


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
    for n in (2, 3, 10, 50, 256, 257, 258, 333):  # df 256 ends the 90 % table
        data = rng.lognormal(3.0, 1.0, n)
        for level in LEVELS:
            ci = mean_confidence_interval(data, level)
            sem = float(data.std(ddof=1) / math.sqrt(n))
            h = float(stats.t.ppf(0.5 + level / 2.0, n - 1)) * sem
            assert (ci.low, ci.high) == (ci.mean - h, ci.mean + h)


def test_repetitions_needed_matches_norm_ppf(rng):
    data = rng.exponential(10.0, 20)
    mean, s = float(data.mean()), float(data.std(ddof=1))
    for level in LEVELS + (0.9999,):
        for eps in (0.01, 0.05, 0.2):
            z = float(stats.norm.ppf(0.5 + level / 2.0))
            expected = max(math.ceil((z * s / (eps * mean)) ** 2), data.size)
            assert repetitions_needed(data, eps, level) == expected


def test_allocate_variation_ci_matches_t_ppf(rng):
    design = FactorialDesign([Factor(f"f{i}", -1, 1, chr(65 + i)) for i in range(3)])
    for r in (2, 3, 7, 33, 34):  # dof 256 ends the 90 % table, 264 is past it
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


# --- repro.special: cephes ndtr/ndtri ports and the t table


def _ulps(v, k=64):
    """*v* and its 2k nearest float64 neighbours (both signs for v != 0)."""
    bits = np.float64(abs(v)).view(np.int64)
    near = np.arange(max(bits - k, 0), bits + k + 1, dtype=np.int64).view(np.float64)
    return np.concatenate([near, -near])


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-300, -1e-300, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.5, -0.5, 1.0, -1.0, 2.0])


def _same(ours, ref):
    assert type(ours) is type(ref)
    assert np.shape(ours) == np.shape(ref)
    assert_identical(ours, ref)


def test_ndtr_port_is_bit_identical():
    rng = np.random.default_rng(20)
    sqrt2 = math.sqrt(2.0)
    maxlog = 7.09782712893383996843e2
    # Branch edges of ndtr/erf/erfc, in ndtr's argument: |a|/sqrt2 against
    # 1/sqrt2, 1, 8 and sqrt(MAXLOG).
    edges = [1.0, sqrt2, 8.0 * sqrt2, math.sqrt(2.0 * maxlog), 1.0 / 7.07106781186547524401e-1,
             sqrt2 / 7.07106781186547524401e-1, 8.0 / 7.07106781186547524401e-1,
             math.sqrt(maxlog) / 7.07106781186547524401e-1]
    a = np.concatenate([
        np.linspace(-40.0, 40.0, 400_001),
        rng.normal(0.0, 3.0, 300_000),
        rng.uniform(-39.0, 39.0, 300_000),
        -(10.0 ** rng.uniform(-320.0, 2.0, 20_000)),
        10.0 ** rng.uniform(-320.0, 2.0, 20_000),
        *[_ulps(e, 256) for e in edges],
        SPECIALS,
    ])
    assert a.size > 1_000_000
    assert_identical(special.ndtr(a), sc.ndtr(a))


def test_ndtri_port_is_bit_identical():
    rng = np.random.default_rng(21)
    expm2 = 0.13533528323661269189
    # Branch edges: exp(-2) and 1 - exp(-2) (central vs tail) and the
    # y whose sqrt(-2 log y) is 8 (the two tail fits), on both sides.
    edges = [expm2, 1.0 - expm2, math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5,
             1.0, 5e-324, 2.2250738585072014e-308]
    q = np.concatenate([
        np.linspace(0.0, 1.0, 400_001),
        rng.uniform(0.0, 1.0, 300_000),
        10.0 ** rng.uniform(-323.6, 0.0, 150_000),
        1.0 - 10.0 ** rng.uniform(-16.5, 0.0, 150_000),
        *[_ulps(e, 256) for e in edges],
        SPECIALS,
        [1.0 + 2.220446049250313e-16, -1e-12, 1.5],
    ])
    assert q.size > 1_000_000
    assert_identical(special.ndtri(q), sc.ndtri(q))


@pytest.mark.parametrize("fn", ["ndtr", "ndtri"])
def test_ports_keep_ufunc_return_types(fn):
    ours, ref = getattr(special, fn), getattr(sc, fn)
    for x in (0.3, -0.0, float("nan"), 1, np.float64(0.7), np.array(0.2),
              np.array([0.1, 0.9]), np.array([[0.1, 0.5], [0.0, 1.0]]),
              np.array([]), [0.25, 0.75]):
        _same(ours(x), ref(x))


def test_t95_table_is_scipys_stdtrit():
    dfs = np.arange(1, len(special.T95) + 1)
    assert len(special.T95) == 256
    assert_identical(np.array(special.T95), sc.stdtrit(dfs, 0.95))
    for df in dfs:
        assert special.stdtrit(int(df), 0.95) == sc.stdtrit(df, 0.95)
        assert special.stdtrit(df, 0.95) == sc.stdtrit(df, 0.95)


@pytest.mark.parametrize("df, p", [(257, 0.95), (1000, 0.95), (8, 0.975),
                                   (2, 0.5), (8.5, 0.95), (3, 0.05)])
def test_stdtrit_off_table_calls_scipy(df, p):
    assert special.stdtrit(df, p) == sc.stdtrit(df, p)


# --- Lognormal/Normal cdf/ppf against the scipy.special expressions they replaced

X_GRID = np.concatenate([X_EDGES, np.linspace(0.0, 5000.0, 5001),
                         10.0 ** np.linspace(-300.0, 300.0, 601)])
Q_GRID = np.concatenate([Q_EDGES, np.linspace(0.0, 1.0, 1001), [1e-300, 5e-324]])
SHAPES = (0.3, 250.0, -1.0, float("nan"), np.array(40.0), np.array([1.0, 50.0]),
          np.array([[0.0, 0.5], [1.0, 2.0]]))


def _lognormal_ref(d):
    def cdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-300)) - d.mu) / max(d.sigma, 1e-300)
        return np.where(x > 0, sc.ndtr(z), 0.0)

    def ppf(q):
        return np.exp(d.mu + d.sigma * sc.ndtri(np.asarray(q, dtype=float)))

    return cdf, ppf


def _normal_ref(d):
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return sc.ndtr((x - d.mean) / max(d.std, 1e-300))

    def ppf(q):
        return d.mean + d.std * sc.ndtri(np.asarray(q, dtype=float))

    return cdf, ppf


@pytest.mark.parametrize(
    "dist",
    [Lognormal(2213.0, 3034.0), Lognormal(40.0, 1.0), Lognormal(1.0, 1e4),
     Normal(100.0, 30.0), Normal(0.0, 1.0), Normal(-5.0, 1e-3)],
    ids=repr,
)
def test_distribution_cdf_ppf_match_scipy(dist):
    cdf, ppf = (_lognormal_ref if isinstance(dist, Lognormal) else _normal_ref)(dist)
    with np.errstate(invalid="ignore"):  # inf - inf in the Normal references
        assert_identical(dist.cdf(X_GRID), cdf(X_GRID))
        assert_identical(dist.ppf(Q_GRID), ppf(Q_GRID))
        for v in SHAPES:
            _same(dist.cdf(v), cdf(v))
            if np.all(np.asarray(v) <= 1):
                _same(dist.ppf(v), ppf(v))
