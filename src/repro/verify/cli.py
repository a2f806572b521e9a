"""``python -m repro.verify`` — the verification harness entry point.

Runs a battery of simulations across NOW/SMP/MPP operating points and
subjects every result to the three verification pillars:

1. structural invariant audits (:mod:`repro.verify.invariants`),
2. operational-law checks with tolerance bands
   (:mod:`repro.verify.oplaws`),
3. differential re-execution under flipped implementation knobs
   (:mod:`repro.verify.differential`).

``--full`` widens the battery and adds the Hypothesis property sweep
(:mod:`repro.verify.properties`); ``--selftest`` deliberately corrupts
a result to prove the harness can still see: it must detect the
injected conservation violation and exit non-zero naming it (exit 1),
or exit 2 if detection failed — either way the selftest never exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..rocc.config import (
    Architecture,
    ForwardingTopology,
    NetworkMode,
    SimulationConfig,
)
from ..rocc.system import simulate
from .differential import differential_checks
from .invariants import audit_results
from .oplaws import applicable, check_operational_laws
from .report import VerificationReport

__all__ = ["main", "run_verification", "run_selftest"]


def _battery(quick: bool, seed: int) -> List[Tuple[str, SimulationConfig]]:
    """Operating points to verify; labels show up in progress output."""
    dur = 1_500_000.0 if quick else 5_000_000.0
    points = [
        ("now-cf", SimulationConfig(
            nodes=4, duration=dur, seed=seed,
            network_mode=NetworkMode.CONTENTION_FREE,
        )),
        ("now-bf", SimulationConfig(
            nodes=4, batch_size=8, duration=dur, seed=seed,
            network_mode=NetworkMode.CONTENTION_FREE,
        )),
        ("smp", SimulationConfig(
            architecture=Architecture.SMP, nodes=4,
            app_processes_per_node=4, daemons=2,
            duration=dur, seed=seed,
        )),
        ("mpp-tree", SimulationConfig(
            architecture=Architecture.MPP, nodes=4,
            forwarding=ForwardingTopology.TREE,
            duration=dur, seed=seed,
        )),
        # The only point with a warmup: audits sample conservation
        # across the warmup epoch.
        ("now-warmup", SimulationConfig(
            nodes=4, duration=dur, warmup=dur * 0.3, seed=seed,
        )),
    ]
    if not quick:
        points += [
            ("now-bf32", SimulationConfig(
                nodes=8, batch_size=32, duration=dur, seed=seed,
                network_mode=NetworkMode.CONTENTION_FREE,
            )),
            ("mpp-direct", SimulationConfig(
                architecture=Architecture.MPP, nodes=8, duration=dur,
                seed=seed,
            )),
        ]
    return points


#: The config differential checks re-execute (kept small: each check is
#: two full simulations).
def _differential_config(quick: bool, seed: int) -> SimulationConfig:
    return SimulationConfig(
        nodes=2,
        duration=800_000.0 if quick else 2_000_000.0,
        sampling_period=20_000.0,
        seed=seed,
    )


def run_verification(
    quick: bool = True,
    seed: int = 0,
    log: Callable[[str], None] = lambda msg: None,
) -> VerificationReport:
    """Run the full battery; returns the collected report."""
    report = VerificationReport()
    for label, config in _battery(quick, seed):
        t0 = time.perf_counter()
        results = simulate(config)
        report.extend(audit_results(results, config), section="invariants")
        if applicable(config):
            report.extend(
                check_operational_laws(config, results), section="oplaws"
            )
        log(f"  {label}: {time.perf_counter() - t0:.1f}s")

    diff_cfg = _differential_config(quick, seed)
    t0 = time.perf_counter()
    report.extend(
        differential_checks(diff_cfg, include_workers=True),
        section="differential",
        checks=8,
    )
    log(f"  differential: {time.perf_counter() - t0:.1f}s")

    if not quick:
        from .properties import run_property_checks

        t0 = time.perf_counter()
        report.extend(
            run_property_checks(seed=seed),
            section="properties",
            checks=1,
        )
        log(f"  properties: {time.perf_counter() - t0:.1f}s")
    return report


def run_selftest(seed: int = 0, out=sys.stderr) -> int:
    """Prove the harness detects a planted conservation violation.

    Returns the process exit code: 1 when the violation was detected
    (the harness works — and the non-zero exit keeps a mis-wired CI
    step from quietly passing), 2 when it slipped through.
    """
    config = SimulationConfig(nodes=2, duration=500_000.0, seed=seed)
    results = simulate(config)
    broken = dataclasses.replace(
        results, samples_received=results.samples_received
        + results.samples_generated + 1,
    )
    violations = audit_results(broken, config)
    conservation = [
        v for v in violations if v.invariant == "conservation.sample_balance"
    ]
    if conservation:
        print(
            "SELFTEST OK: planted violation detected — "
            f"{conservation[0]}",
            file=out,
        )
        return 1
    print(
        "SELFTEST FAILED: planted conservation violation went undetected "
        f"(found instead: {[str(v) for v in violations]})",
        file=out,
    )
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Invariant, operational-law, and differential "
                    "verification of the ROCC simulator.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="small battery, no property sweep (default)")
    mode.add_argument("--full", action="store_true",
                      help="wide battery plus the Hypothesis properties")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for every generated config")
    parser.add_argument("--selftest", action="store_true",
                        help="plant a conservation violation and prove the "
                             "harness detects it (always exits non-zero)")
    args = parser.parse_args(argv)

    if args.selftest:
        return run_selftest(seed=args.seed)

    quick = not args.full
    print(f"repro.verify: {'quick' if quick else 'full'} battery, "
          f"seed={args.seed}")
    report = run_verification(quick=quick, seed=args.seed, log=print)
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
