"""Hypothesis properties: random valid configs satisfy every invariant."""

from hypothesis import HealthCheck, given, settings

from repro.rocc.system import simulate
from repro.verify import audit_results, check_fastpath
from repro.verify.properties import run_property_checks, simulation_configs

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
    violations = check_fastpath(config)
    assert not violations, "; ".join(str(v) for v in violations)


def test_programmatic_runner_clean():
    assert run_property_checks(seed=1, max_examples=5,
                               fastpath_examples=2) == []
