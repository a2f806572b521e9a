"""Unit tests for the analytic screen: trust, gradients, anchors."""

from __future__ import annotations

import math

import pytest

from repro.expdesign import Factor, FactorialDesign
from repro.planner import (
    ScreeningPolicy,
    applicability,
    predict,
    screen,
)
from repro.planner.screening import neighbors
from repro.rocc.config import (
    Architecture,
    NetworkMode,
    SimulationConfig,
)


def _cfg(**kw) -> SimulationConfig:
    base = dict(nodes=2, duration=500_000.0, sampling_period=40_000.0)
    base.update(kw)
    return SimulationConfig(**base)


class TestApplicability:
    def test_default_config_is_modeled(self):
        assert applicability(_cfg()) is None

    def test_uninstrumented_rejected(self):
        assert "uninstrumented" in applicability(_cfg(instrumented=False))

    def test_barrier_rejected(self):
        assert applicability(_cfg(barrier_period=5_000.0)) is not None

    def test_inapplicable_prediction_has_no_metrics(self):
        pred = predict(_cfg(instrumented=False))
        assert not pred.applicable
        assert pred.metrics == {}
        assert pred.max_utilization == 0.0


class TestPredict:
    def test_light_cell_unsaturated(self):
        pred = predict(_cfg(sampling_period=100_000.0, batch_size=8))
        assert pred.applicable and not pred.saturated
        assert 0.0 < pred.max_utilization < 0.5
        for name, value in pred.metrics.items():
            assert math.isfinite(value), name
            assert value >= 0.0, name

    def test_heavy_cell_saturates(self):
        # 1 ms sampling of 4 procs/node: λ·D_main >> 1 at the main host.
        pred = predict(
            _cfg(nodes=8, sampling_period=1_000.0, app_processes_per_node=4)
        )
        assert pred.saturated
        assert pred.max_utilization >= 1.0

    def test_utilizations_scale_with_sampling_rate(self):
        slow = predict(_cfg(sampling_period=80_000.0))
        fast = predict(_cfg(sampling_period=20_000.0))
        assert fast.max_utilization > slow.max_utilization

    def test_smp_exposes_is_cpu_utilization(self):
        pred = predict(
            _cfg(
                architecture=Architecture.SMP,
                nodes=4,
                app_processes_per_node=4,
                daemons=2,
                sampling_period=100_000.0,
            )
        )
        assert pred.applicable
        assert "is_cpu_utilization_per_node" in pred.metrics

    def test_drop_risk_requires_shared_network(self):
        pred = predict(
            _cfg(
                architecture=Architecture.MPP,
                nodes=4,
                network_mode=NetworkMode.CONTENTION_FREE,
            )
        )
        assert not pred.drop_risk
        assert pred.shared_network_offered == 0.0


class TestPolicy:
    def test_trust_bound_validated(self):
        with pytest.raises(ValueError):
            ScreeningPolicy(trust_utilization=0.0)
        with pytest.raises(ValueError):
            ScreeningPolicy(trust_utilization=1.0)

    def test_gradient_threshold_validated(self):
        with pytest.raises(ValueError):
            ScreeningPolicy(gradient_threshold=0.0)


def _design_and_configs(periods=(10_000.0, 160_000.0), batches=(1, 16)):
    design = FactorialDesign([
        Factor("sampling_period", *periods, "B"),
        Factor("batch_size", *batches, "C"),
    ])
    configs = [
        _cfg(
            sampling_period=run["sampling_period"],
            batch_size=int(run["batch_size"]),
        )
        for run in design.runs()
    ]
    return design, configs


class TestScreen:
    def test_one_decision_per_cell_in_standard_order(self):
        design, configs = _design_and_configs()
        report = screen(design, configs)
        assert [d.index for d in report.decisions] == list(range(4))
        assert all(d.reason for d in report.decisions)

    def test_config_count_mismatch_rejected(self):
        design, configs = _design_and_configs()
        with pytest.raises(ValueError):
            screen(design, configs[:-1])

    def test_every_pruned_cell_has_simulated_anchor(self):
        design, configs = _design_and_configs()
        report = screen(design, configs)
        simulated = set(report.simulated)
        for i in report.pruned:
            assert any(j in simulated for j in neighbors(design, i)), (
                f"pruned cell {i} has no simulated neighbor"
            )

    def test_never_prunes_everything(self):
        # All four cells sit deep in the trusted region.
        design, configs = _design_and_configs(
            periods=(200_000.0, 400_000.0), batches=(8, 16)
        )
        report = screen(design, configs)
        assert report.simulated, "design pruned to nothing"
        # The anchor pass is what kept them: reasons say so.
        anchors = [
            d for d in report.decisions
            if d.simulate and d.trusted
        ]
        assert anchors, "no anchor cells retained"
        assert any("anchor" in d.reason for d in anchors)

    def test_inapplicable_cells_always_simulated(self):
        design, configs = _design_and_configs()
        configs = [c.with_(instrumented=False) for c in configs]
        report = screen(design, configs)
        assert report.pruned == []
        assert all("uninstrumented" in d.reason for d in report.decisions)

    def test_strict_trust_bound_prunes_nothing(self):
        design, configs = _design_and_configs()
        report = screen(
            design, configs, ScreeningPolicy(trust_utilization=0.0001)
        )
        assert report.pruned == []

    def test_neighbors_are_hamming_one(self):
        design, _ = _design_and_configs()
        assert sorted(neighbors(design, 0)) == [1, 2]
        assert sorted(neighbors(design, 3)) == [1, 2]
