"""Tests for the Tally and TimeWeighted statistics accumulators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Tally, TimeWeighted


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
