"""Tests for the distribution library: moments, pdf/cdf/ppf coherence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.variates import (
    Deterministic,
    Empirical,
    Exponential,
    Lognormal,
    Normal,
    Uniform,
    Weibull,
)

ALL_DISTS = [
    Deterministic(5.0),
    Uniform(2.0, 8.0),
    Exponential(223.0),
    Lognormal(2213.0, 3034.0),
    Weibull(1.5, 100.0),
    Normal(50.0, 10.0),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_sample_mean_matches_analytic(dist, rng):
    x = np.asarray(dist.sample(rng, 40_000), dtype=float)
    assert x.mean() == pytest.approx(dist.mean, rel=0.08)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_sample_scalar_and_vector_forms(dist, rng):
    scalar = dist.sample(rng)
    assert np.isscalar(scalar) or np.asarray(scalar).shape == ()
    vec = dist.sample(rng, 10)
    assert np.asarray(vec).shape == (10,)


@pytest.mark.parametrize(
    "dist",
    [Uniform(2, 8), Exponential(223), Lognormal(100, 50), Weibull(1.5, 100),
     Normal(50, 10)],
    ids=lambda d: type(d).__name__,
)
def test_ppf_inverts_cdf(dist):
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        x = float(dist.ppf(q))
        assert float(dist.cdf(x)) == pytest.approx(q, abs=1e-6)


@pytest.mark.parametrize(
    "dist",
    [Uniform(2, 8), Exponential(223), Lognormal(100, 50), Weibull(1.5, 100),
     Normal(50, 10)],
    ids=lambda d: type(d).__name__,
)
def test_pdf_integrates_to_one(dist):
    lo = float(dist.ppf(1e-6))
    hi = float(dist.ppf(1.0 - 1e-6))
    x = np.linspace(lo, hi, 20_001)
    total = np.trapezoid(dist.pdf(x), x)
    assert total == pytest.approx(1.0, abs=2e-3)


class TestExponential:
    def test_parameterized_by_mean(self):
        d = Exponential(223.0)
        assert d.mean == 223.0
        assert d.rate == pytest.approx(1 / 223.0)
        assert d.var == pytest.approx(223.0**2)

    def test_memoryless_cdf(self):
        d = Exponential(10.0)
        assert float(d.cdf(10.0)) == pytest.approx(1 - math.exp(-1))

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            Exponential(0)


class TestLognormal:
    def test_moments_roundtrip(self):
        d = Lognormal(2213.0, 3034.0)
        assert d.mean == 2213.0
        assert d.std == 3034.0

    def test_from_log_params_roundtrip(self):
        d = Lognormal(500.0, 200.0)
        d2 = Lognormal.from_log_params(d.mu, d.sigma)
        assert d2.mean == pytest.approx(500.0)
        assert d2.std == pytest.approx(200.0)

    def test_pdf_zero_below_zero(self):
        d = Lognormal(10, 5)
        assert float(d.pdf(-1.0)) == 0.0
        assert float(d.cdf(0.0)) == 0.0

    def test_samples_positive(self, rng):
        d = Lognormal(2213, 3034)
        assert (d.sample(rng, 10_000) > 0).all()


class TestZeroVariance:
    """σ = 0 Lognormal and Normal are point masses at the mean."""

    def test_lognormal_pdf_scalar_agrees_with_array(self):
        d = Lognormal(5.0, 0.0)
        assert d.pdf(5.0) == math.inf
        assert d.pdf(np.array(5.0)) == math.inf
        assert d.pdf(np.array([5.0]))[0] == math.inf
        assert d.pdf(4.0) == 0.0 and d.pdf(-1.0) == 0.0
        np.testing.assert_array_equal(d.pdf(np.array([4.0, 5.0, 6.0])), [0.0, np.inf, 0.0])

    @pytest.mark.parametrize("dist", [Lognormal(5.0, 0.0), Normal(5.0, 0.0)],
                             ids=["lognormal", "normal"])
    def test_ppf_is_the_mean_on_the_closed_unit_interval(self, dist):
        for q in (0.0, 0.3, 1.0):
            assert dist.ppf(q) == 5.0
            assert type(dist.ppf(q)) is np.float64
        np.testing.assert_array_equal(
            dist.ppf(np.array([0.0, 0.5, 1.0, -0.5, 1.5, np.nan])),
            [5.0, 5.0, 5.0, np.nan, np.nan, np.nan],
        )

    def test_nondegenerate_ppf_endpoints_unchanged(self):
        assert Lognormal(5.0, 1.0).ppf(0.0) == 0.0
        assert Lognormal(5.0, 1.0).ppf(1.0) == math.inf
        assert Normal(5.0, 1.0).ppf(0.0) == -math.inf
        assert Normal(5.0, 1.0).ppf(1.0) == math.inf


class TestWeibull:
    def test_shape_one_is_exponential(self):
        w = Weibull(1.0, 100.0)
        e = Exponential(100.0)
        x = np.linspace(1, 500, 50)
        np.testing.assert_allclose(w.cdf(x), e.cdf(x), rtol=1e-9)

    def test_mean_formula(self):
        w = Weibull(2.0, 100.0)
        assert w.mean == pytest.approx(100.0 * math.gamma(1.5))


class TestDeterministic:
    def test_always_value(self, rng):
        d = Deterministic(7.0)
        assert d.sample(rng) == 7.0
        assert (np.asarray(d.sample(rng, 5)) == 7.0).all()
        assert d.var == 0.0

    def test_cdf_step(self):
        d = Deterministic(7.0)
        assert float(d.cdf(6.9)) == 0.0
        assert float(d.cdf(7.0)) == 1.0


class TestNormalTruncation:
    def test_truncated_samples_nonnegative(self, rng):
        d = Normal(1.0, 10.0, truncate=True)
        assert (np.asarray(d.sample(rng, 5000)) >= 0).all()

    def test_untruncated_allows_negative(self, rng):
        d = Normal(0.0, 10.0, truncate=False)
        assert (np.asarray(d.sample(rng, 5000)) < 0).any()


class TestEmpirical:
    def test_resamples_from_data(self, rng):
        data = [1.0, 2.0, 3.0]
        d = Empirical(data)
        out = set(np.asarray(d.sample(rng, 1000)))
        assert out <= set(data)

    def test_moments(self):
        d = Empirical([1.0, 2.0, 3.0, 4.0])
        assert d.mean == 2.5
        assert d.var == pytest.approx(np.var([1, 2, 3, 4], ddof=1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Empirical([])

    def test_cdf_is_ecdf(self):
        d = Empirical([1.0, 2.0, 3.0, 4.0])
        assert float(d.cdf(2.5)) == 0.5


@given(
    mean=st.floats(min_value=1.0, max_value=1e5),
    cv=st.floats(min_value=0.05, max_value=3.0),
)
@settings(max_examples=60)
def test_lognormal_moment_parameterization_property(mean, cv):
    """Lognormal(mean, std) must reproduce the requested moments exactly."""
    d = Lognormal(mean, cv * mean)
    assert d.mean == pytest.approx(mean)
    assert d.std == pytest.approx(cv * mean)
    # Analytic check through the log-space parameters.
    assert math.exp(d.mu + d.sigma2 / 2) == pytest.approx(mean, rel=1e-9)


@given(st.floats(min_value=0.5, max_value=5), st.floats(min_value=1, max_value=1e4))
@settings(max_examples=40)
def test_weibull_ppf_cdf_property(shape, scale):
    d = Weibull(shape, scale)
    for q in (0.1, 0.5, 0.9):
        assert float(d.cdf(d.ppf(q))) == pytest.approx(q, abs=1e-9)


class TestSupportMin:
    """Lower support bound used for parallel-kernel lookahead."""

    def test_deterministic_is_its_value(self):
        assert Deterministic(42.0).support_min == 42.0

    def test_uniform_is_low(self):
        assert Uniform(5.0, 15.0).support_min == 5.0

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_never_exceeds_samples(self, dist, rng):
        lo = dist.support_min
        assert lo >= 0.0
        assert np.all(dist.sample_block(rng, 500) >= lo)

    def test_unbounded_below_distributions_default_to_zero(self):
        assert Exponential(100.0).support_min == 0.0
        assert Lognormal(10.0, 4.0).support_min == 0.0
        assert Weibull(1.5, 100.0).support_min == 0.0
