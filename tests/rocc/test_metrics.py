"""Tests for the Metrics accumulator and SimulationResults container."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.monitor import Tally
from repro.rocc.metrics import Metrics, SimulationResults, sorted_percentile


class TestMetrics:
    def test_initial_state(self):
        m = Metrics()
        assert m.samples_generated == 0
        assert m.samples_received == 0
        assert math.isnan(m.latency_total.mean)

    def test_note_forward_accumulates(self):
        m = Metrics()
        m.note_forward(0, 5)
        m.note_forward(0, 3)
        m.note_forward(2, 1)
        assert m.forwarded_by_node == {0: 8, 2: 1}
        assert m.forward_calls_by_node == {0: 2, 2: 1}

    def test_note_receipt_updates_latencies(self):
        m = Metrics()
        m.note_receipt(now=150.0, created_at=50.0, ready_at=120.0)
        assert m.samples_received == 1
        assert m.latency_total.mean == 100.0
        assert m.latency_forwarding.mean == 30.0

    def test_note_merge(self):
        m = Metrics()
        m.note_merge(3)
        m.note_merge(3)
        assert m.merges_by_node == {3: 2}

    def test_reset(self):
        m = Metrics()
        m.note_forward(0, 5)
        m.note_receipt(10.0, 0.0, 0.0)
        m.reset()
        assert m.samples_received == 0
        assert m.forwarded_by_node == {}


class TestEpochFiltering:
    def test_pre_epoch_receipt_not_counted(self):
        m = Metrics()
        m.reset(now=100.0)
        assert m.note_receipt(now=150.0, created_at=50.0, ready_at=120.0) is False
        assert m.samples_received == 0
        assert m.note_receipt(now=150.0, created_at=100.0, ready_at=120.0) is True
        assert m.samples_received == 1


class TestLatencyPercentiles:
    def test_empty_is_nan(self):
        ps = Metrics().latency_percentiles()
        assert all(math.isnan(v) for v in ps.values())

    def test_values_match_numpy(self):
        import numpy as np

        m = Metrics()
        for i in range(100):
            m.note_receipt(now=float(i), created_at=0.0, ready_at=0.0)
        ps = m.latency_percentiles()
        raw = [float(i) for i in range(100)]
        assert ps[90.0] == pytest.approx(np.percentile(raw, 90.0))

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            Metrics().latency_percentiles(qs=(50.0, 101.0))

    def test_rejects_non_finite_latency(self):
        m = Metrics()
        m.note_receipt(now=math.inf, created_at=0.0, ready_at=0.0)
        with pytest.raises(ValueError, match="non-finite"):
            m.latency_percentiles()


def make_results(**kw):
    base = dict(
        config_summary="test",
        duration=2_000_000.0,
        nodes=4,
        pd_cpu_time_per_node=40_000.0,
        main_cpu_time=100_000.0,
    )
    base.update(kw)
    return SimulationResults(**base)


class TestSimulationResults:
    def test_seconds_conversions(self):
        r = make_results()
        assert r.duration_seconds == 2.0
        assert r.pd_cpu_seconds_per_node == 0.04
        assert r.main_cpu_seconds == 0.1

    def test_is_cpu_seconds_per_node(self):
        r = make_results()
        assert r.is_cpu_seconds_per_node == pytest.approx(
            (40_000.0 + 100_000.0 / 4) / 1e6
        )

    def test_latency_ms_conversions(self):
        r = make_results(
            monitoring_latency_forwarding=1500.0,
            monitoring_latency_total=250_000.0,
        )
        assert r.monitoring_latency_forwarding_ms == 1.5
        assert r.monitoring_latency_total_ms == 250.0

    def test_delivery_ratio(self):
        r = make_results(samples_generated=200, samples_received=180)
        assert r.delivery_ratio == pytest.approx(0.9)

    def test_delivery_ratio_nan_without_samples(self):
        r = make_results()
        assert math.isnan(r.delivery_ratio)


class TestExactAtVolume:
    """Every counted receipt is kept: no cap, no streaming estimates."""

    N = 70_000  # past the 65,536 receipts an earlier cap allowed

    @pytest.fixture(scope="class")
    def filled(self):
        rng = random.Random(7)
        m = Metrics()
        fwd, total = [], []
        for i in range(self.N):
            now = 1e6 + i
            f = rng.lognormvariate(5.0, 0.8)
            t = f + rng.expovariate(1e-3)
            created, ready = now - t, now - f
            m.note_receipt(now, created, ready)
            fwd.append(now - ready)
            total.append(now - created)
        return m, fwd, total

    def test_percentiles_are_exact_order_statistics(self, filled):
        m, fwd, _ = filled
        qs = (0.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0)
        ordered = sorted(fwd)
        assert m.latency_percentiles(qs) == {
            q: sorted_percentile(ordered, q) for q in qs
        }

    def test_means_match_a_per_receipt_tally(self, filled):
        m, fwd, total = filled
        for tally, series in ((m.latency_forwarding, fwd),
                              (m.latency_total, total)):
            eager = Tally()
            for v in series:
                eager.observe(v)
            assert tally.count == self.N
            assert tally.mean == eager.mean
            assert tally.variance == eager.variance


class TestSortedPercentile:
    """``sorted_percentile`` is ``np.percentile`` (linear method), bit for
    bit, without loading ``numpy.ma``."""

    @staticmethod
    def _same(data, q):
        """Equal values always; equal signs unless the data hold both
        zeros, whose order ``np.percentile``'s partition does not fix
        (it can read ``-0.0`` where the sorted data give ``0.0``)."""
        import numpy as np

        got = sorted_percentile(np.sort(np.asarray(data, dtype=float)), q)
        want = float(np.percentile(np.asarray(data, dtype=float), q))
        assert got == want
        signs = {math.copysign(1, x) for x in data if x == 0}
        if len(signs) < 2:
            assert math.copysign(1, got) == math.copysign(1, want)

    @given(
        data=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
            | st.sampled_from([0.0, 1.0, 2.5, 1e6]),
            min_size=1, max_size=60,
        ),
        q=st.floats(min_value=0.0, max_value=100.0)
        | st.sampled_from([0.0, 50.0, 90.0, 99.0, 100.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy(self, data, q):
        self._same(data, q)

    @pytest.mark.parametrize("data,q", [
        ([7.0], 0.0), ([7.0], 50.0), ([7.0], 100.0),           # n = 1
        ([1.0, 4.0], 50.0), ([1.0, 4.0], 25.0), ([1.0, 4.0], 99.0),  # n = 2
        ([0.1, 0.7, 0.3], 25.0), ([3.0, 1.0, 2.0, 9.0, 5.0], 12.5),  # t = 0.5
        ([5.0] * 9 + [6.0], 95.0),                               # ties
        ([0.0, -0.0], 100.0),                        # top end: -0.0 + 0.0
        ([0.0, -0.0, 0.0], 50.0),                    # both signed zeros
    ])
    def test_edge_cases(self, data, q):
        self._same(data, q)

    def test_percentiles_load_no_masked_arrays(self):
        code = (
            "import sys\n"
            "from repro.rocc.metrics import Metrics\n"
            "m = Metrics()\n"
            "for i in range(50):\n"
            "    m.note_receipt(now=float(i * i), created_at=0.0, ready_at=0.0)\n"
            "m.latency_percentiles()\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"
