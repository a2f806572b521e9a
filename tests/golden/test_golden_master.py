"""Golden-master regression suite for the ROCC simulation.

One seeded NOW, SMP, and MPP cell each, a 64-node contention-free NOW
cell, a NOW cell that drives the application's blocking paths, one
under the adaptive overhead regulator, NOW and SMP cells with a BF
flush timer, a NOW cell with a warmup, and an aggregated MPP tree cell
is snapshotted — every field of
its :class:`~repro.rocc.metrics.SimulationResults` — as JSON under
``tests/golden/``.  Any silent model drift (a cost-model tweak, a
kernel change that perturbs event order, a metrics accounting change)
fails the comparison field by field.

Intentional model changes regenerate the snapshots with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and the resulting diff is reviewed like any other code change.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.rocc.adaptive import RegulatorConfig
from repro.rocc.aggregate import simulate_aggregated
from repro.rocc.config import (
    Architecture,
    ForwardingTopology,
    NetworkMode,
    SimulationConfig,
)
from repro.rocc.metrics import SimulationResults
from repro.rocc.system import ParadynISSystem, simulate
from repro.variates.distributions import Exponential

GOLDEN_DIR = Path(__file__).parent

#: Floats must match to this relative tolerance — tight enough that any
#: model change trips it, loose enough to survive libm differences
#: across platforms.
REL_TOL = 1e-9

CONFIGS = {
    "now": SimulationConfig(
        architecture=Architecture.NOW,
        nodes=4,
        duration=500_000.0,
        sampling_period=20_000.0,
        batch_size=2,
        seed=7,
    ),
    "smp": SimulationConfig(
        architecture=Architecture.SMP,
        nodes=4,
        app_processes_per_node=4,
        daemons=2,
        duration=500_000.0,
        sampling_period=20_000.0,
        batch_size=1,
        seed=7,
    ),
    "mpp": SimulationConfig(
        architecture=Architecture.MPP,
        nodes=4,
        duration=500_000.0,
        sampling_period=20_000.0,
        batch_size=4,
        forwarding=ForwardingTopology.TREE,
        seed=7,
    ),
    # At scale: 64 nodes x ~13 named variate streams, many of which
    # never draw in a quarter second, so stream seeding (batched, with
    # each stream's state derived on its first draw) is pinned stream by
    # stream.
    "now_cf64": SimulationConfig(
        architecture=Architecture.NOW,
        nodes=64,
        network_mode=NetworkMode.CONTENTION_FREE,
        duration=250_000.0,
        seed=7,
    ),
    # Shared Ethernet, two writers on a one-slot-per-writer pipe that
    # fills (application puts block, §4.3.3) and a global barrier every
    # 10 ms of CPU work (Figure 28).
    "now_fifo_barrier": SimulationConfig(
        architecture=Architecture.NOW,
        nodes=4,
        app_processes_per_node=2,
        duration=500_000.0,
        sampling_period=4_000.0,
        pipe_capacity=1,
        barrier_period=10_000.0,
        seed=11,
    ),
    # Adaptive sampling period: the regulator retunes the period every
    # control interval against a 1% overhead budget.
    "now_adaptive": SimulationConfig(
        architecture=Architecture.NOW,
        nodes=4,
        duration=500_000.0,
        sampling_period=5_000.0,
        batch_size=2,
        adaptive=RegulatorConfig(budget=0.01, control_interval=50_000.0),
        seed=13,
    ),
    # BF batching with a flush timer: each daemon's flush loop forwards
    # the partial batch that went stale.
    "now_flushed": SimulationConfig(
        nodes=2,
        batch_size=8,
        batch_flush_timeout=30_000.0,
        duration=2_000_000.0,
    ),
    # The same timer on the SMP, where two daemons share the pooled CPUs
    # with the applications and the main process.
    "smp_flushed": SimulationConfig(
        architecture=Architecture.SMP,
        nodes=4,
        app_processes_per_node=4,
        daemons=2,
        batch_size=4,
        batch_flush_timeout=40_000.0,
        duration=2_000_000.0,
    ),
    # BF with a warmup: the accumulators are snapshotted and the
    # counters reset at t = warmup, ahead of every event at that instant.
    "now_warmup": SimulationConfig(
        architecture=Architecture.NOW,
        nodes=4,
        duration=1_000_000.0,
        warmup=250_000.0,
        sampling_period=10_000.0,
        batch_size=8,
        seed=17,
    ),
}

#: Cells run through the aggregated large-n mode
#: (:func:`~repro.rocc.aggregate.simulate_aggregated`): one detailed
#: node, phantom forwarders into the main process and, under tree
#: forwarding, phantom children into the detailed daemon's merge inbox.
AGGREGATED_CONFIGS = {
    "mpp_tree_aggregated": SimulationConfig(
        architecture=Architecture.MPP,
        nodes=16,
        duration=1_000_000.0,
        sampling_period=10_000.0,
        batch_size=4,
        forwarding=ForwardingTopology.TREE,
        seed=26,
    ),
}


def _encode(value):
    """JSON-safe encoding: NaN → "NaN", tuple dict keys → strings."""
    if isinstance(value, float):
        return "NaN" if math.isnan(value) else value
    if isinstance(value, dict):
        return {_key(k): _encode(v) for k, v in value.items()}
    return value


def _key(k) -> str:
    if isinstance(k, tuple):
        return "/".join(str(getattr(p, "value", p)) for p in k)
    return str(getattr(k, "value", k))


def snapshot_results(results: SimulationResults) -> dict:
    """Every dataclass field of the results, in JSON-safe form."""
    return {
        f.name: _encode(getattr(results, f.name))
        for f in fields(results)
    }


def compare_snapshots(expected: dict, actual: dict) -> list:
    """Field-by-field diff; empty list means identical."""
    problems = []
    for name in sorted(set(expected) | set(actual)):
        if name not in expected:
            problems.append(f"{name}: new field (regenerate the golden)")
            continue
        if name not in actual:
            problems.append(f"{name}: field removed")
            continue
        if not _same(expected[name], actual[name]):
            problems.append(
                f"{name}: expected {expected[name]!r}, got {actual[name]!r}"
            )
    return problems


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def run_golden(name: str) -> SimulationResults:
    """Simulate the golden cell *name* with the mode it is pinned in."""
    if name in AGGREGATED_CONFIGS:
        return simulate_aggregated(AGGREGATED_CONFIGS[name])
    return simulate(CONFIGS[name])


@pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(AGGREGATED_CONFIGS))
def test_golden_master(name: str, request: pytest.FixtureRequest) -> None:
    actual = snapshot_results(run_golden(name))
    path = golden_path(name)
    if request.config.getoption("--update-golden"):
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden snapshot {path.name} regenerated")
    assert path.is_file(), (
        f"missing golden snapshot {path}; generate it with "
        "`python -m pytest tests/golden --update-golden`"
    )
    expected = json.loads(path.read_text())
    problems = compare_snapshots(expected, actual)
    assert not problems, (
        "simulation results drifted from the golden master "
        f"({name}):\n  " + "\n  ".join(problems)
        + "\nIf the change is intentional, regenerate with "
        "`python -m pytest tests/golden --update-golden` and review "
        "the diff."
    )


def _live(kind) -> list:
    return [o for o in gc.get_objects() if type(o) is kind]


@pytest.fixture(scope="module")
def scale_cell_run():
    """The 64-node cell built and run, with the stream names it
    registered and the generators and bit generators the run left
    alive."""
    gc.collect()
    before = _live(np.random.Generator) + _live(np.random.PCG64)
    system = ParadynISSystem(CONFIGS["now_cf64"])
    registered = set(system.streams._pending) | set(system.streams._seeds)
    system.run()
    gc.collect()
    new = {kind: [o for o in _live(kind) if not any(o is b for b in before)]
           for kind in (np.random.Generator, np.random.PCG64)}
    return system, registered, new


def test_scale_golden_covers_lazy_streams(scale_cell_run) -> None:
    """The 64-node cell pins hundreds of lazily seeded streams, some of
    which never draw and so never get a state.  A name that draws
    trades its seed words for a state, so the two tables are disjoint
    and together hold every registered name."""
    system, registered, _ = scale_cell_run
    factory = system.streams
    assert len(registered) >= 800
    assert not factory._pending
    assert factory._states and factory._seeds
    assert not set(factory._states) & set(factory._seeds)
    assert registered <= set(factory._states) | set(factory._seeds)


def test_scale_cell_holds_one_generator_for_its_variate_streams(
        scale_cell_run) -> None:
    """Block streams keep a state each, not a generator each: the run
    leaves one ``Generator``/``PCG64`` pair for all of them alive, plus
    one per name handed out by ``generator()``."""
    system, _, new = scale_cell_run
    factory = system.streams
    assert len(factory._states) >= 400
    assert not set(factory._states) & set(factory._cache)
    generators = new[np.random.Generator]
    assert len(generators) == 1 + len(factory._cache)
    assert any(g is factory._shared for g in generators)
    assert len(new[np.random.PCG64]) == len(generators)


def test_blocking_goldens_exercise_their_paths() -> None:
    """The path cells keep hitting the paths they pin: full-pipe puts
    and barrier rounds, and a regulator that retunes the sampling period
    (so the adaptive cell samples differently from its static twin)."""
    fifo = json.loads(golden_path("now_fifo_barrier").read_text())
    assert fifo["pipe_blocked_puts"] > 0
    assert fifo["barrier_rounds"] > 0
    adaptive = json.loads(golden_path("now_adaptive").read_text())
    static = simulate(CONFIGS["now_adaptive"].with_(adaptive=None))
    assert adaptive["samples_generated"] != static.samples_generated
    # The flush timer forwards partial batches, the warmup discards a
    # transient, and the aggregated tree cell merges phantom children.
    flushed = json.loads(golden_path("now_flushed").read_text())
    assert flushed["samples_received"] < 8 * flushed["batches_received"]
    warmup = json.loads(golden_path("now_warmup").read_text())
    assert warmup["duration"] == CONFIGS["now_warmup"].measured_duration
    aggregated = json.loads(golden_path("mpp_tree_aggregated").read_text())
    assert aggregated["merges_total"] > 0


def test_golden_catches_cost_model_drift(monkeypatch: pytest.MonkeyPatch) -> None:
    """A perturbed cost model must fail the comparison, not pass silently.

    The daemon cost models are built from ``Exponential`` distributions
    via default factories, so a class-level patch (scaling every draw by
    5%) reaches them all; ``sample_block`` delegates to ``sample``, so
    the fast-path kernel is covered too.
    """
    original = Exponential.sample

    def inflated(self, rng, size=None):
        return original(self, rng, size) * 1.05

    path = golden_path("now")
    if not path.is_file():
        pytest.skip("golden snapshot not generated yet")
    expected = json.loads(path.read_text())

    monkeypatch.setattr(Exponential, "sample", inflated)
    drifted = snapshot_results(simulate(CONFIGS["now"]))
    problems = compare_snapshots(expected, drifted)
    assert problems, "5% cost-model drift went undetected by the golden suite"
    # The drift must show up in the overhead metrics the paper reports,
    # not merely in some incidental counter.
    assert any(p.startswith("pd_cpu_time_per_node") for p in problems)


def test_snapshot_roundtrip_is_deterministic() -> None:
    """Two runs of the same seeded cell snapshot identically."""
    a = snapshot_results(simulate(CONFIGS["now"]))
    b = snapshot_results(simulate(CONFIGS["now"]))
    assert compare_snapshots(a, b) == []
