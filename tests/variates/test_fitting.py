"""Tests for MLE distribution fitting (Law & Kelton estimators)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.variates import (
    Exponential,
    Lognormal,
    Weibull,
    fit_best,
    fit_exponential,
    fit_lognormal,
    fit_weibull,
)


def test_fit_exponential_is_sample_mean(rng):
    data = rng.exponential(223.0, 5000)
    fit = fit_exponential(data)
    assert fit.mean == pytest.approx(float(np.mean(data[data > 0])))


def test_fit_lognormal_recovers_parameters(rng):
    true = Lognormal(2213.0, 3034.0)
    data = true.sample(rng, 30_000)
    fit = fit_lognormal(data)
    assert fit.mean == pytest.approx(2213.0, rel=0.08)
    assert fit.std == pytest.approx(3034.0, rel=0.15)


def test_fit_weibull_recovers_parameters(rng):
    true = Weibull(1.7, 120.0)
    data = true.sample(rng, 20_000)
    fit = fit_weibull(data)
    assert fit.shape == pytest.approx(1.7, rel=0.05)
    assert fit.scale == pytest.approx(120.0, rel=0.05)


def test_fit_weibull_exponential_data_shape_near_one(rng):
    data = rng.exponential(100.0, 20_000)
    fit = fit_weibull(data)
    assert fit.shape == pytest.approx(1.0, rel=0.05)


def test_fit_best_picks_lognormal_for_lognormal_data(rng):
    data = Lognormal(2213.0, 3034.0).sample(rng, 8000)
    best, results = fit_best(data)
    assert best.family == "lognormal"
    assert len(results) == 3


def test_fit_best_ks_criterion(rng):
    data = rng.exponential(100.0, 5000)
    best, _ = fit_best(data, criterion="ks")
    # Weibull nests exponential so either may win narrowly, but the
    # chosen fit must describe the data (mean close).
    assert best.distribution.mean == pytest.approx(100.0, rel=0.1)


def test_fit_best_unknown_family_rejected(rng):
    with pytest.raises(ValueError):
        fit_best(rng.exponential(1.0, 100), families=["cauchy"])


def test_fit_best_unknown_criterion_rejected(rng):
    with pytest.raises(ValueError):
        fit_best(rng.exponential(1.0, 100), criterion="aicc")


def test_empty_data_rejected():
    with pytest.raises(ValueError):
        fit_exponential([])
    with pytest.raises(ValueError):
        fit_lognormal([0.0, -1.0])


def test_loglik_ordering_consistent(rng):
    """The chosen family's log-likelihood must be the maximum reported."""
    data = Lognormal(100.0, 80.0).sample(rng, 4000)
    best, results = fit_best(data)
    assert best.loglik == max(r.loglik for r in results)


def test_fit_result_contains_ks(rng):
    data = rng.exponential(10.0, 1000)
    _, results = fit_best(data)
    for r in results:
        assert 0 <= r.ks_statistic <= 1


@given(
    mean=st.floats(min_value=10.0, max_value=1e4),
    n=st.integers(min_value=200, max_value=2000),
)
@settings(max_examples=20, deadline=None)
def test_exponential_fit_roundtrip_property(mean, n):
    rng = np.random.default_rng(17)
    data = rng.exponential(mean, n)
    fit = fit_exponential(data)
    # MLE of an exponential is unbiased: within 5 SEs of the truth.
    se = mean / np.sqrt(n)
    assert abs(fit.mean - mean) < 5 * se + 1e-9


def test_degenerate_near_constant_data_weibull():
    data = np.full(100, 42.0) + np.linspace(0, 1e-6, 100)
    fit = fit_weibull(data)
    assert fit.scale == pytest.approx(42.0, rel=0.01)
