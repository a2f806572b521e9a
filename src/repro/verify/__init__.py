"""Invariant, operational-law, and differential verification.

The harness that keeps the simulator honest — see ``python -m
repro.verify --help`` for the command-line battery, or use the pieces
programmatically:

>>> from repro.verify import audit_results
>>> violations = audit_results(results, config)

Three pillars:

* :mod:`repro.verify.invariants` — structural audits every
  :class:`~repro.rocc.metrics.SimulationResults` must pass;
* :mod:`repro.verify.oplaws` — utilization law / Little's law /
  analytic-model cross-checks with tolerance bands;
* :mod:`repro.verify.differential` — flipped-knob re-execution
  (watchdog, worker pool, cell cache, flush no-op, event scheduler
  phases, planner) with field-by-field result diffs.

:mod:`repro.verify.properties` adds Hypothesis-generated random
configurations over all of the above.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Violation": "report",
    "VerificationReport": "report",
    "audit_results": "invariants",
    "applicable": "oplaws",
    "check_operational_laws": "oplaws",
    "check_utilization_law": "oplaws",
    "check_littles_law": "oplaws",
    "check_against_analytic": "oplaws",
    "diff_results": "differential",
    "differential_checks": "differential",
    "check_watchdog": "differential",
    "check_workers": "differential",
    "check_cache": "differential",
    "check_bf_flush_noop": "differential",
    "check_resilient_engine": "differential",
    "check_event_queue": "differential",
})
