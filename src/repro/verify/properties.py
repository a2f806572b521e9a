"""Property-based verification over random valid configurations.

Hypothesis generates small-but-varied :class:`SimulationConfig`\\ s —
across architectures, batching policies, warmup, and pipe sizes — and
every generated run must satisfy the structural invariants
of :mod:`repro.verify.invariants`.

The strategies deliberately keep runs short (≤ 1 simulated second) so a
property pass stays interactive; the point is breadth of the config
space, not length of any one run.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, seed as hyp_seed, settings, strategies as st

from ..rocc.config import Architecture, ForwardingTopology, SimulationConfig
from ..rocc.system import simulate
from .invariants import audit_results
from .report import Violation

__all__ = [
    "simulation_configs",
    "run_property_checks",
]


@st.composite
def simulation_configs(draw) -> SimulationConfig:
    """A random small-but-valid :class:`SimulationConfig`."""
    arch = draw(st.sampled_from(
        [Architecture.NOW, Architecture.SMP, Architecture.MPP]
    ))
    duration = draw(st.floats(min_value=200_000.0, max_value=1_000_000.0))
    warmup = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=duration * 0.4),
    ))
    batch_size = draw(st.integers(min_value=1, max_value=8))
    kwargs = dict(
        architecture=arch,
        nodes=draw(st.integers(min_value=2, max_value=4)),
        sampling_period=draw(st.floats(min_value=5_000.0, max_value=50_000.0)),
        batch_size=batch_size,
        batch_flush_timeout=draw(st.one_of(
            st.none(), st.floats(min_value=20_000.0, max_value=100_000.0)
        )),
        app_processes_per_node=draw(st.integers(min_value=1, max_value=2)),
        pipe_capacity=draw(st.integers(min_value=4, max_value=64)),
        include_pvmd=draw(st.booleans()),
        include_other=draw(st.booleans()),
        duration=duration,
        warmup=warmup,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    if arch is Architecture.SMP:
        kwargs["daemons"] = draw(st.integers(min_value=1, max_value=2))
        # app_processes_per_node is the SMP total; keep ≥ daemons so
        # every daemon has a writer.
        kwargs["app_processes_per_node"] = draw(
            st.integers(min_value=kwargs["daemons"], max_value=4)
        )
    if arch is Architecture.MPP:
        kwargs["forwarding"] = draw(st.sampled_from(
            [ForwardingTopology.DIRECT, ForwardingTopology.TREE]
        ))
    return SimulationConfig(**kwargs)


def run_property_checks(
    seed: int = 0,
    max_examples: int = 25,
) -> List[Violation]:
    """Run the Hypothesis invariant property programmatically (CLI entry).

    Returns the violations found (the first counterexample); the pytest
    suite in ``tests/verify`` runs the same property with shrinking and
    the counterexample database.
    """
    found: List[Violation] = []

    @hyp_seed(seed)
    @settings(max_examples=max_examples, deadline=None, database=None,
              print_blob=False)
    @given(config=simulation_configs())
    def invariants_hold(config: SimulationConfig) -> None:
        violations = audit_results(simulate(config), config)
        assert not violations, "; ".join(str(v) for v in violations)

    try:
        invariants_hold()
    except Exception as exc:  # counterexample OR a crash mid-run
        first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        found.append(Violation(
            invariant="property.invariants",
            detail=f"{type(exc).__name__}: {first}",
            subject="hypothesis counterexample",
        ))
    return found
