"""Hypothesis properties: random valid configs satisfy every invariant."""

from hypothesis import HealthCheck, given, settings

from repro.experiments.engine import results_equal
from repro.rocc.system import simulate
from repro.verify import audit_results
from repro.verify.properties import run_property_checks, simulation_configs

from ..kernel_reference import run_both

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(config=simulation_configs())
def test_random_configs_satisfy_invariants(config):
    violations = audit_results(simulate(config), config)
    assert not violations, "; ".join(str(v) for v in violations)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=simulation_configs())
def test_random_configs_fastpath_equivalent(config):
    """Random configs are bit-identical on the reference kernel; those
    with a flush timer must reach ``hold``/``timeout`` to count."""
    fast, generic, calls = run_both(lambda: simulate(config))
    if config.batch_flush_timeout is not None:
        assert calls > 0
    assert results_equal(fast, generic)


def test_programmatic_runner_clean():
    assert run_property_checks(seed=1, max_examples=5) == []
