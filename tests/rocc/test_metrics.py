"""Tests for the Metrics accumulator and SimulationResults container."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rocc.metrics import Metrics, SimulationResults


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

    def test_rejects_tally_observed_behind_raw_series(self):
        m = Metrics()
        m.latency_forwarding.observe(5.0)  # bypasses note_receipt
        with pytest.raises(ValueError, match="never saw"):
            m.latency_percentiles()

    def test_rejects_desynced_series(self):
        m = Metrics()
        m.note_receipt(now=10.0, created_at=0.0, ready_at=5.0)
        _ = m.latency_forwarding  # flush
        m.latency_forwarding.observe(7.0)  # extra direct observation
        with pytest.raises(ValueError, match="out of sync"):
            m.latency_percentiles()

    def test_rejects_non_finite_latency(self):
        m = Metrics()
        m.note_receipt(now=math.inf, created_at=0.0, ready_at=0.0)
        with pytest.raises(ValueError, match="non-finite"):
            m.latency_percentiles()

    def test_setter_restarts_raw_series(self):
        from repro.des.monitor import Tally

        m = Metrics()
        m.note_receipt(now=10.0, created_at=0.0, ready_at=5.0)
        m.latency_forwarding = Tally("replacement")
        # The raw series belonging to the replaced tally is gone: no
        # stale percentiles, and new receipts stay in sync.
        ps = m.latency_percentiles()
        assert all(math.isnan(v) for v in ps.values())
        m.note_receipt(now=20.0, created_at=0.0, ready_at=12.0)
        assert m.latency_percentiles()[50.0] == 8.0
        assert m.latency_forwarding.count == 1


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


class TestStreamingLatency:
    """Past ``raw_cap`` the recorder switches to O(1)-memory estimators."""

    def _fill(self, m, values):
        for i, v in enumerate(values):
            now = 1000.0 + i
            m.note_receipt(now, now - 2 * v, now - v)

    def test_raw_series_stays_capped(self):
        m = Metrics()
        m.raw_cap = 64
        self._fill(m, [float(i % 37 + 1) for i in range(500)])
        assert len(m._lat_fwd_raw) == 64
        assert len(m._lat_total_raw) == 64
        assert m.latency_forwarding.count == 500
        assert m.latency_total.count == 500

    def test_streaming_percentiles_close_to_exact(self):
        import numpy as np

        rng = np.random.default_rng(11)
        data = list(rng.lognormal(mean=2.0, sigma=0.8, size=20_000))
        exact = Metrics()
        self._fill(exact, data)
        streaming = Metrics()
        streaming.raw_cap = 256
        self._fill(streaming, data)
        pe = exact.latency_percentiles()
        ps = streaming.latency_percentiles()
        for q in (50.0, 90.0):
            assert ps[q] == pytest.approx(pe[q], rel=0.05)
        assert ps[99.0] == pytest.approx(pe[99.0], rel=0.15)

    def test_streaming_mean_is_exact(self):
        data = [float(i % 91 + 1) for i in range(3000)]
        exact = Metrics()
        self._fill(exact, data)
        streaming = Metrics()
        streaming.raw_cap = 128
        self._fill(streaming, data)
        assert streaming.latency_forwarding.mean == pytest.approx(
            exact.latency_forwarding.mean
        )
        assert streaming.latency_total.mean == pytest.approx(
            exact.latency_total.mean
        )

    def test_noncanonical_percentile_uses_reservoir(self):
        m = Metrics()
        m.raw_cap = 64
        self._fill(m, [float(i % 101 + 1) for i in range(2000)])
        p = m.latency_percentiles(qs=(75.0,))
        assert 1.0 <= p[75.0] <= 101.0

    def test_desync_still_detected_in_streaming_mode(self):
        m = Metrics()
        m.raw_cap = 32
        self._fill(m, [float(i + 1) for i in range(100)])
        m.latency_forwarding.observe(5.0)  # bypasses note_receipt
        with pytest.raises(ValueError):
            m.latency_percentiles()


class TestMerge:
    """Cross-LP fragment folding used by the parallel kernel."""

    def test_counters_and_node_counters_sum(self):
        a, b = Metrics(), Metrics()
        a.samples_generated = 10
        b.samples_generated = 3
        a.note_forward(0, 5)
        b.note_forward(0, 2)
        b.note_forward(4, 7)
        a.note_merge(1)
        b.note_merge(1)
        a.pipe_blocked_time = 1.5
        b.pipe_blocked_time = 0.25
        a.merge(b)
        assert a.samples_generated == 13
        assert a.forwarded_by_node == {0: 7, 4: 7}
        assert a.merges_by_node == {1: 2}
        assert a.pipe_blocked_time == 1.75

    def test_latency_recorders_adopted_from_receipt_side(self):
        main, node = Metrics(), Metrics()
        node.samples_generated = 4
        main.note_receipt(now=150.0, created_at=50.0, ready_at=120.0)
        main.note_receipt(now=200.0, created_at=120.0, ready_at=180.0)
        merged = Metrics()
        merged.merge(node)
        merged.merge(main)
        assert merged.samples_received == 2
        assert merged.latency_total.mean == 90.0
        assert merged.samples_generated == 4

    def test_both_sides_with_receipts_raises(self):
        a, b = Metrics(), Metrics()
        a.note_receipt(10.0, 0.0, 5.0)
        b.note_receipt(20.0, 0.0, 15.0)
        with pytest.raises(ValueError, match="main-process LP"):
            a.merge(b)

    def test_epoch_mismatch_raises(self):
        a, b = Metrics(), Metrics()
        b.reset(now=100.0)
        with pytest.raises(ValueError, match="epoch"):
            a.merge(b)

    def test_merge_preserves_epoch_after_shared_warmup(self):
        a, b = Metrics(), Metrics()
        a.reset(now=100.0)
        b.reset(now=100.0)
        b.samples_generated = 1
        a.merge(b)
        assert a.epoch == 100.0
        assert a.samples_generated == 1


class TestSortedPercentile:
    """``sorted_percentile`` is ``np.percentile`` (linear method), bit for
    bit, without loading ``numpy.ma``."""

    @staticmethod
    def _same(data, q):
        import numpy as np

        from repro.rocc.metrics import sorted_percentile

        got = sorted_percentile(np.sort(np.asarray(data, dtype=float)), q)
        want = float(np.percentile(np.asarray(data, dtype=float), q))
        assert got == want and math.copysign(1, got) == math.copysign(1, want)

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
