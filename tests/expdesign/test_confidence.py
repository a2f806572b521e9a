"""Tests for confidence intervals and repetition sizing."""

import numpy as np
import pytest

from repro.expdesign import mean_confidence_interval, repetitions_needed


def test_single_observation_degenerate():
    ci = mean_confidence_interval([1.0])
    assert ci.degenerate
    assert ci.n == 1
    assert ci.mean == 1.0
    assert ci.low == float("-inf") and ci.high == float("inf")
    assert ci.half_width == float("inf")
    assert ci.relative_half_width == float("inf")
    assert ci.contains(42.0)  # an uninformative interval excludes nothing


def test_empty_sample_degenerate():
    ci = mean_confidence_interval([])
    assert ci.degenerate
    assert ci.n == 0
    assert ci.mean != ci.mean  # NaN
    assert ci.half_width == float("inf")
    assert ci.relative_half_width == float("inf")


def test_zero_variance_zero_width():
    ci = mean_confidence_interval([5.0, 5.0, 5.0, 5.0])
    assert not ci.degenerate
    assert ci.mean == 5.0
    assert ci.half_width == 0.0
    assert ci.relative_half_width == 0.0
    assert ci.contains(5.0) and not ci.contains(5.0001)


def test_level_validation():
    with pytest.raises(ValueError):
        mean_confidence_interval([1.0, 2.0], level=1.5)


def test_interval_contains_mean():
    ci = mean_confidence_interval([1.0, 2.0, 3.0], level=0.90)
    assert ci.mean == pytest.approx(2.0)
    assert ci.low < 2.0 < ci.high
    assert ci.contains(2.0)
    assert not ci.contains(100.0)


def test_matches_scipy_t_interval(rng):
    from scipy import stats

    data = rng.normal(10.0, 2.0, 30)
    ci = mean_confidence_interval(data, level=0.95)
    lo, hi = stats.t.interval(
        0.95, len(data) - 1, loc=np.mean(data),
        scale=stats.sem(data, ddof=1),
    )
    assert ci.low == pytest.approx(lo)
    assert ci.high == pytest.approx(hi)


def test_higher_level_wider_interval(rng):
    data = rng.normal(size=20)
    narrow = mean_confidence_interval(data, level=0.80)
    wide = mean_confidence_interval(data, level=0.99)
    assert wide.half_width > narrow.half_width


def test_coverage_about_right():
    """~90 % of 90 % CIs should contain the true mean."""
    rng = np.random.default_rng(7)
    hits = 0
    trials = 400
    for _ in range(trials):
        data = rng.normal(5.0, 1.0, 10)
        if mean_confidence_interval(data, level=0.90).contains(5.0):
            hits += 1
    assert hits / trials == pytest.approx(0.90, abs=0.05)


def test_relative_half_width():
    ci = mean_confidence_interval([10.0, 10.0, 10.2, 9.8])
    assert ci.relative_half_width < 0.05
    zero = mean_confidence_interval([-1.0, 1.0])
    assert zero.relative_half_width == float("inf")


def test_repetitions_needed_scales_with_precision(rng):
    pilot = rng.normal(100.0, 20.0, 10)
    loose = repetitions_needed(pilot, target_relative_half_width=0.2)
    tight = repetitions_needed(pilot, target_relative_half_width=0.02)
    assert tight > loose
    assert tight >= 100 * loose // 110  # roughly quadratic


def test_repetitions_needed_validation():
    with pytest.raises(ValueError):
        repetitions_needed([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        repetitions_needed([1.0, 2.0], 0.1, level=1.2)


def test_repetitions_needed_degenerate_pilots():
    # <2 finite observations: no variance estimate, no extrapolation —
    # the answer is the smallest sample a CI can be formed from.
    assert repetitions_needed([1.0], 0.1) == 2
    assert repetitions_needed([], 0.1) == 2
    assert repetitions_needed([1.0, float("nan"), float("inf")], 0.1) == 2


def test_repetitions_needed_zero_variance_converged():
    assert repetitions_needed([3.0, 3.0, 3.0], 0.01) == 3


def test_repetitions_needed_zero_mean_no_extrapolation():
    # The relative criterion is undefined at x̄ = 0; the pilot size comes
    # back instead of a div-by-zero surprise.
    assert repetitions_needed([-1.0, 1.0], 0.1) == 2
    assert repetitions_needed([-2.0, 0.0, 2.0], 0.1) == 3


def test_repetitions_needed_filters_nonfinite(rng):
    clean = rng.normal(100.0, 20.0, 10)
    noisy = list(clean) + [float("nan"), float("inf")]
    assert repetitions_needed(noisy, 0.05) == repetitions_needed(clean, 0.05)


def test_repetitions_at_least_pilot_size(rng):
    pilot = rng.normal(100.0, 0.001, 25)
    assert repetitions_needed(pilot, 0.5) == 25


def test_nonfinite_observations_excluded():
    clean = mean_confidence_interval([1.0, 2.0, 3.0])
    noisy = mean_confidence_interval(
        [1.0, float("nan"), 2.0, float("inf"), 3.0]
    )
    assert noisy.mean == pytest.approx(clean.mean)
    assert noisy.low == pytest.approx(clean.low)
    assert noisy.high == pytest.approx(clean.high)
    assert noisy.n == 3


def test_too_few_finite_observations_degenerate():
    ci = mean_confidence_interval([1.0, float("nan"), float("nan")])
    assert ci.degenerate and ci.n == 1 and ci.mean == 1.0
    all_nan = mean_confidence_interval([float("nan")] * 5)
    assert all_nan.degenerate and all_nan.n == 0
    assert all_nan.relative_half_width == float("inf")


def test_pure_python_moments_are_numpys_bit_for_bit():
    """The intervals repeat numpy's float64 pairwise summation: the mean
    and the ddof=1 standard deviation equal ``np.mean``/``np.std`` bit
    for bit, on every block shape (below 8, up to 128, split above)."""
    from repro.expdesign.confidence import _mean_std, _pairwise_sum

    gen = np.random.default_rng(5)
    for n in [*range(1, 40), 127, 128, 129, 136, 255, 256, 257, 1000, 2049]:
        for scale in (1e-3, 1.0, 1e9):
            arr = gen.normal(gen.random() * scale, scale, n)
            values = arr.tolist()
            assert _pairwise_sum(values, 0, n) == float(np.add.reduce(arr))
            if n >= 2:
                mean, std = _mean_std(values)
                assert mean == float(arr.mean())
                assert std == float(arr.std(ddof=1))


def test_interval_and_sizing_equal_the_numpy_formulas(rng):
    from repro.special import ndtri, stdtrit

    for n in (2, 3, 10, 50):
        data = rng.lognormal(3.0, 1.0, n)
        ci = mean_confidence_interval(data, level=0.9)
        h = float(stdtrit(n - 1, 0.95)) * float(data.std(ddof=1) / np.sqrt(n))
        assert ci.mean == float(data.mean())
        assert (ci.low, ci.high) == (ci.mean - h, ci.mean + h)
        z = float(ndtri(0.95))
        n_star = (z * float(data.std(ddof=1)) / (0.05 * float(data.mean()))) ** 2
        assert repetitions_needed(data, 0.05) == max(int(np.ceil(n_star)), n)
