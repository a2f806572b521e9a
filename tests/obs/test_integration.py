"""Integration tests: observability threaded through the real stack.

Covers the acceptance shape in-process (no subprocess): a traced
4-node NOW engine run produces spans from the engine-cell,
simulation-run, and resource-occupancy layers, and the trace survives
export + validation.  Also pins the zero-cost contract: an untraced
run records nothing and its results carry an empty ``observability``;
and a traced run's kernel profile reaches the parent's registry across
engine worker processes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import CellCache, ExperimentEngine
from repro.experiments.engine import results_equal
from repro.experiments.runners import run_design
from repro.experiments.validation import design_spec
from repro.obs import (
    Tracer,
    chrome_trace,
    current_tracer,
    registry,
    use_tracing,
    validate_trace_events,
)
from repro.rocc import Architecture, SimulationConfig, simulate
from repro.rocc.config import NetworkMode
from repro.rocc.network import FIFONetwork
from repro.rocc.system import ParadynISSystem, _OccupancyWatcher

NOW_CONFIG = SimulationConfig(
    architecture=Architecture.NOW,
    nodes=4,
    duration=400_000.0,
    sampling_period=20_000.0,
    batch_size=2,
    seed=11,
)


@pytest.fixture()
def engine(tmp_path):
    with ExperimentEngine(
        workers=1, cache=CellCache(tmp_path / "cache", enabled=False)
    ) as eng:
        yield eng


def test_traced_now_run_covers_three_layers(engine) -> None:
    registry().reset()
    with use_tracing() as tracer:
        [result] = engine.run_cells([NOW_CONFIG])

    spans = tracer.batch().spans
    cats = {s.cat for s in spans}
    assert {"engine.cell", "run", "occupancy"} <= cats

    # Per-node CPU occupancy tracks exist for the 4 NOW nodes.
    occupancy_tids = {s.tid for s in spans if s.cat == "occupancy"}
    assert {f"node{i}.cpu" for i in range(4)} <= occupancy_tids

    # Counter samples back the occupancy Gantt tracks.
    tracks = {c.name for c in tracer.batch().counters}
    assert any(name.endswith(".cpu.level") for name in tracks)

    # The run advertises what it recorded.
    assert result.observability["occupancy_spans"] > 0
    assert result.observability["counter_samples"] > 0
    assert "sim_track" in result.observability

    # And the whole thing exports to a valid Chrome trace.
    doc = chrome_trace(tracer, registry())
    assert validate_trace_events(doc) == []
    assert registry().counter("rocc.runs").value == 1


def test_untraced_run_records_nothing(engine) -> None:
    assert current_tracer() is None
    [result] = engine.run_cells([NOW_CONFIG])
    assert result.observability == {}


def test_tracing_does_not_perturb_results(engine) -> None:
    """Observability must be read-only: identical RNG stream, identical
    sampled metrics, traced or not."""
    [plain] = engine.run_cells([NOW_CONFIG])
    with use_tracing():
        [traced] = engine.run_cells([NOW_CONFIG])
    assert traced.pd_cpu_time_per_node == plain.pd_cpu_time_per_node
    assert traced.samples_received == plain.samples_received
    assert traced.delivery_ratio == plain.delivery_ratio


def test_traced_and_untraced_cpu_level_updates_agree() -> None:
    """A traced run, whose watchers hear each CPU's and the FIFO
    network's busy level through ``on_change``, gives the untraced run's
    results; its hooks are gone after the run, and a 1-CPU node's busy
    spans add up to the node's charged busy time, within the slice
    still running at the end."""
    config = NOW_CONFIG.with_(nodes=2, duration=200_000.0)
    plain = ParadynISSystem(config).run()
    system = ParadynISSystem(config)
    tracer = Tracer()
    with use_tracing(tracer):
        traced = system.run()
    # Field for field (NaN equal to NaN), apart from the provenance
    # record only a traced run fills in.
    assert traced.observability["occupancy_spans"] > 0
    assert results_equal(replace(traced, observability={}), plain)
    assert isinstance(system.network, FIFONetwork)
    for resource in (*system.worker_cpus, system.host_cpu, system.network):
        assert resource.on_change is None  # the watcher is gone
    for node, cpu in enumerate(system.worker_cpus):
        assert cpu.n_cpus == 1
        spans = [s.dur for s in tracer.batch().spans
                 if s.cat == "occupancy" and s.tid == f"node{node}.cpu"]
        assert 0 < len(spans) < _OccupancyWatcher.MAX_SPANS  # none dropped
        # Busy time is charged when a slice ends, so the span the run's
        # end closes holds up to one quantum nobody has been charged.
        charged = sum(cpu.busy_by_owner.values())
        if cpu._free:
            assert sum(spans) == pytest.approx(charged, rel=1e-12)
        else:
            assert charged < sum(spans) <= charged + cpu.quantum + 1e-6


def test_direct_simulate_honours_ambient_tracer() -> None:
    """rocc.simulate() picks up the ambient tracer without the engine."""
    tracer = Tracer()
    with use_tracing(tracer):
        simulate(NOW_CONFIG)
    cats = {s.cat for s in tracer.batch().spans}
    assert "run" in cats
    assert "occupancy" in cats


@pytest.mark.parametrize("mode", ["fifo", "cf"])
def test_only_the_shared_network_has_an_occupancy_row(mode) -> None:
    """A FIFO (shared) interconnect gets a ``network`` occupancy row; a
    contention-free one keeps no in-flight signal and gets none."""
    config = NOW_CONFIG.with_(
        network_mode=NetworkMode.SHARED if mode == "fifo"
        else NetworkMode.CONTENTION_FREE)
    tracer = Tracer()
    with use_tracing(tracer):
        simulate(config)
    occupancy_tids = {s.tid for s in tracer.batch().spans
                      if s.cat == "occupancy"}
    assert "node0.cpu" in occupancy_tids
    assert ("network" in occupancy_tids) == (mode == "fifo")


def _kernel_counts() -> dict:
    """``des.events`` and the per-kind event counts in the registry."""
    reg = registry()
    return {
        name: reg.get(name).value for name in reg.names()
        if name == "des.events"
        or (name.startswith("des.kind.") and not name.endswith("_s"))
    }


def _traced_figure30(workers: int) -> dict:
    """Kernel counts published by a traced run of figure30's cells."""
    spec = design_spec(quick=True)
    registry().reset()
    with ExperimentEngine(
        workers=workers, cache=CellCache(enabled=False)
    ) as eng, use_tracing():
        run_design(spec.design, spec.make, spec.repetitions, engine=eng)
    assert eng.stats.cells_run == 4 * spec.repetitions
    return _kernel_counts()


def test_kernel_profile_crosses_engine_workers() -> None:
    """A traced run's kernel profile is registry metrics, so pool
    workers' deltas add up to what one inline worker publishes."""
    inline = _traced_figure30(workers=1)
    pooled = _traced_figure30(workers=2)
    assert inline["des.events"] > 0
    assert "des.kind.timeout" in inline
    assert pooled == inline
