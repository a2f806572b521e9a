"""Tests for the Tally and TimeWeighted statistics accumulators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import P2Quantile, ReservoirSample, Tally, TimeWeighted


class TestTally:
    def test_empty(self):
        t = Tally()
        assert t.count == 0
        assert math.isnan(t.mean)
        assert math.isnan(t.variance)
        assert math.isnan(t.minimum)

    def test_single_observation(self):
        t = Tally()
        t.observe(5.0)
        assert t.mean == 5.0
        assert t.minimum == t.maximum == 5.0
        assert math.isnan(t.variance)

    def test_matches_numpy(self):
        data = [3.1, 4.1, 5.9, 2.6, 5.3, 5.8]
        t = Tally()
        for v in data:
            t.observe(v)
        assert t.mean == pytest.approx(np.mean(data))
        assert t.variance == pytest.approx(np.var(data, ddof=1))
        assert t.std == pytest.approx(np.std(data, ddof=1))
        assert t.total == pytest.approx(sum(data))

    def test_series_retention(self):
        t = Tally(keep_series=True)
        t.observe(1.0)
        t.observe(2.0)
        assert t.series == [1.0, 2.0]
        assert Tally().series is None

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60))
    def test_welford_agrees_with_numpy(self, data):
        t = Tally()
        for v in data:
            t.observe(v)
        assert t.mean == pytest.approx(float(np.mean(data)), rel=1e-9, abs=1e-9)
        assert t.variance == pytest.approx(
            float(np.var(data, ddof=1)), rel=1e-6, abs=1e-6
        )


class TestTimeWeighted:
    def test_integral_of_constant(self):
        tw = TimeWeighted(initial=2.0)
        assert tw.integral(10.0) == 20.0

    def test_step_function(self):
        tw = TimeWeighted()
        tw.update(1.0, 5.0)  # 0 until t=5
        tw.update(3.0, 10.0)  # 1 on [5,10)
        assert tw.integral(20.0) == pytest.approx(0 * 5 + 1 * 5 + 3 * 10)
        assert tw.time_average(20.0) == pytest.approx(35.0 / 20.0)

    def test_increment(self):
        tw = TimeWeighted()
        tw.increment(2, 1.0)
        tw.increment(-1, 3.0)
        assert tw.value == 1.0
        assert tw.integral(4.0) == pytest.approx(0 + 2 * 2 + 1 * 1)

    def test_time_cannot_go_backwards(self):
        tw = TimeWeighted()
        tw.update(1.0, 5.0)
        with pytest.raises(ValueError):
            tw.update(2.0, 4.0)
        with pytest.raises(ValueError):
            tw.integral(4.0)

    def test_maximum_tracked(self):
        tw = TimeWeighted()
        tw.update(7.0, 1.0)
        tw.update(2.0, 2.0)
        assert tw.maximum == 7.0

    def test_time_average_with_nonzero_start(self):
        tw = TimeWeighted(initial=4.0, start_time=10.0)
        assert tw.time_average(20.0) == pytest.approx(4.0)

    def test_zero_span_is_nan(self):
        tw = TimeWeighted()
        assert math.isnan(tw.time_average(0.0))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=100),  # dt
                st.floats(min_value=-50, max_value=50),  # new value
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_integral_matches_direct_sum(self, steps):
        tw = TimeWeighted()
        now = 0.0
        expected = 0.0
        value = 0.0
        for dt, new in steps:
            expected += value * dt
            now += dt
            tw.update(new, now)
            value = new
        assert tw.integral(now) == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestP2Quantile:
    def test_exact_below_five(self):
        est = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            est.observe(v)
        assert est.value == pytest.approx(2.0)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.9).value)

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_tracks_lognormal_within_tolerance(self, q):
        rng = np.random.default_rng(42)
        data = rng.lognormal(mean=3.0, sigma=1.0, size=50_000)
        est = P2Quantile(q)
        for v in data:
            est.observe(v)
        exact = float(np.percentile(data, q * 100.0))
        # Documented accuracy envelope: a few percent for p50/p90,
        # ~10% for p99 on heavy-tailed streams.
        tol = 0.10 if q >= 0.99 else 0.05
        assert est.value == pytest.approx(exact, rel=tol)
        assert est.count == len(data)

    def test_monotone_markers_on_constant_stream(self):
        est = P2Quantile(0.5)
        for _ in range(100):
            est.observe(7.0)
        assert est.value == pytest.approx(7.0)


class TestReservoirSample:
    def test_keeps_everything_below_cap(self):
        res = ReservoirSample(10, seed=1)
        for v in range(7):
            res.observe(float(v))
        assert sorted(res.items) == [float(v) for v in range(7)]
        assert res.count == 7

    def test_size_is_capped(self):
        res = ReservoirSample(16, seed=1)
        for v in range(10_000):
            res.observe(float(v))
        assert len(res) == 16
        assert res.count == 10_000

    def test_roughly_uniform(self):
        # Mean of a uniform subsample of 0..n-1 should sit near (n-1)/2.
        res = ReservoirSample(512, seed=7)
        n = 20_000
        for v in range(n):
            res.observe(float(v))
        mean = sum(res.items) / len(res)
        assert abs(mean - (n - 1) / 2) < n * 0.05

    def test_deterministic_given_seed(self):
        a = ReservoirSample(8, seed=3)
        b = ReservoirSample(8, seed=3)
        for v in range(1000):
            a.observe(float(v))
            b.observe(float(v))
        assert a.items == b.items


class TestTallySeriesCap:
    def test_series_capped_and_moments_exact(self):
        t = Tally("capped", keep_series=True, series_cap=32)
        data = [float(i) for i in range(1000)]
        for v in data:
            t.observe(v)
        assert len(t.series) == 32
        assert t.series_subsampled
        assert t.count == 1000
        # Moments stay exact regardless of the series subsampling.
        assert t.mean == pytest.approx(np.mean(data))
        assert t.variance == pytest.approx(np.var(data, ddof=1))
        # Every retained value came from the stream.
        assert set(t.series) <= set(data)

    def test_no_cap_keeps_all(self):
        t = Tally(keep_series=True)
        for v in range(100):
            t.observe(float(v))
        assert len(t.series) == 100
        assert not t.series_subsampled

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            Tally(keep_series=True, series_cap=0)
