"""Tests for the Tally statistics accumulator."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Tally
from repro.rocc.metrics import _fold


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

    @given(
        st.lists(
            st.one_of(
                st.just(-0.0),
                st.just(0.0),
                st.sampled_from([1.5, -2.25, 1e-300, 7.0]),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            max_size=60,
        ),
    )
    def test_fold_is_per_value_welford_bit_for_bit(self, data):
        """The metrics' fold gives, bit for bit, the state a per-value
        Welford loop written out here reaches."""
        n, mean, m2, total = 0, 0.0, 0.0, 0.0
        low, high = math.inf, -math.inf
        for value in data:
            n += 1
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
            total += value
            if value < low:
                low = value
            if value > high:
                high = value

        folded = _fold("latency", iter(data))

        def bits(x):
            return struct.pack("<d", x)

        assert folded.count == n
        assert [bits(v) for v in (folded._mean, folded._m2, folded._total,
                                  folded._min, folded._max)] == [
            bits(v) for v in (mean, m2, total, low, high)]
