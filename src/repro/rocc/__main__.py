"""Command-line ROCC simulation runner.

Usage examples::

    python -m repro.rocc --nodes 8 --period-ms 40 --batch 32
    python -m repro.rocc --arch smp --nodes 16 --apps 32 --daemons 2
    python -m repro.rocc --arch mpp --nodes 64 --tree --aggregated
    python -m repro.rocc --nodes 4 --period-ms 2 --adaptive-budget 0.01
"""

from __future__ import annotations

import argparse
from contextlib import ExitStack
from typing import List, Optional

from ..experiments.engine import CellCache, CellError
from ..experiments.runflags import add_run_flags, engine_from_args
from .adaptive import RegulatorConfig
from .config import Architecture, ForwardingTopology, SimulationConfig
from .metrics import SimulationResults
from .partition import parallel_ineligibility


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.rocc",
        description="Simulate the Paradyn instrumentation system (ROCC model)",
    )
    parser.add_argument("--arch", choices=["now", "smp", "mpp"], default="now")
    parser.add_argument("--nodes", type=int, default=8,
                        help="nodes (NOW/MPP) or CPUs (SMP)")
    parser.add_argument("--apps", type=int, default=1,
                        help="application processes per node (total on SMP)")
    parser.add_argument("--daemons", type=int, default=1,
                        help="Paradyn daemons (SMP only)")
    parser.add_argument("--period-ms", type=float, default=40.0,
                        help="sampling period, milliseconds")
    parser.add_argument("--batch", type=int, default=1,
                        help="batch size (1 = CF policy)")
    parser.add_argument("--tree", action="store_true",
                        help="binary-tree forwarding (MPP)")
    parser.add_argument("--barrier-ms", type=float, default=None,
                        help="barrier period, milliseconds")
    parser.add_argument("--duration-s", type=float, default=5.0,
                        help="simulated duration, seconds")
    parser.add_argument("--warmup-s", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--aggregated", action="store_true",
                        help="use the large-n aggregated mode")
    parser.add_argument("--uninstrumented", action="store_true",
                        help="baseline run without the IS")
    parser.add_argument("--adaptive-budget", type=float, default=None,
                        help="enable overhead regulation at this CPU fraction")
    parser.add_argument("--plan", action="store_true",
                        help="adaptive replication: repeat the run with "
                        "fresh replication substreams until the 90%% CI "
                        "half-widths of the key metrics reach --ci-target "
                        "(or --budget replications), and report means "
                        "with confidence intervals")
    add_run_flags(parser)
    return parser


def config_from_args(args: argparse.Namespace) -> SimulationConfig:
    adaptive = (
        RegulatorConfig(budget=args.adaptive_budget)
        if args.adaptive_budget is not None
        else None
    )
    return SimulationConfig(
        architecture=Architecture(args.arch),
        nodes=args.nodes,
        app_processes_per_node=args.apps,
        daemons=args.daemons,
        sampling_period=args.period_ms * 1000.0,
        batch_size=args.batch,
        forwarding=(
            ForwardingTopology.TREE if args.tree else ForwardingTopology.DIRECT
        ),
        barrier_period=(
            args.barrier_ms * 1000.0 if args.barrier_ms is not None else None
        ),
        duration=args.duration_s * 1e6,
        warmup=args.warmup_s * 1e6,
        instrumented=not args.uninstrumented,
        adaptive=adaptive,
        seed=args.seed,
    )


def format_results(r: SimulationResults) -> str:
    lines = [
        f"configuration : {r.config_summary}",
        f"Pd CPU/node   : {r.pd_cpu_seconds_per_node:.4f} s "
        f"({100 * r.pd_cpu_utilization_per_node:.3f} %)",
        f"main CPU      : {r.main_cpu_seconds:.4f} s "
        f"({100 * r.main_cpu_utilization:.3f} %)",
        f"app CPU/node  : {r.app_cpu_time_per_node / 1e6:.3f} s "
        f"({100 * r.app_cpu_utilization_per_node:.1f} %)",
        f"samples       : {r.samples_received}/{r.samples_generated} delivered",
        f"throughput/Pd : {r.throughput_per_daemon:.1f} samples/s",
    ]
    if r.samples_received:
        lines.append(
            f"latency       : {r.monitoring_latency_forwarding_ms:.3f} ms "
            f"forwarding, {r.monitoring_latency_total_ms:.1f} ms total"
        )
    if r.pipe_blocked_puts:
        lines.append(
            f"pipe blocking : {r.pipe_blocked_puts} puts, "
            f"{r.pipe_blocked_time / 1e3:.1f} ms"
        )
    if r.barrier_rounds:
        lines.append(f"barriers      : {r.barrier_rounds} rounds")
    if r.merges_total:
        lines.append(f"tree merges   : {r.merges_total}")
    return "\n".join(lines)


#: Metrics the --plan mode drives to the precision target and reports.
_PLAN_METRICS = (
    "pd_cpu_time_per_node",
    "main_cpu_time",
    "monitoring_latency_forwarding",
)


def _planned_run(args, config, engine) -> int:
    """--plan path: adaptive replication of the one configuration."""
    from ..planner import (
        ReplicationBudget,
        ReplicationPolicy,
        adaptive_replicate,
        predict,
    )

    cap = args.budget if args.budget is not None else 8
    policy = ReplicationPolicy(
        ci_target=args.ci_target,
        metrics=_PLAN_METRICS,
        min_replications=min(2, cap),
        max_replications=cap,
    )
    budget = ReplicationBudget(total=args.budget)
    res = adaptive_replicate(
        config, policy, budget, aggregated=args.aggregated, engine=engine,
    )
    n = len(res.results)
    print(f"configuration : {res.config_summary}")
    print(f"replications  : {n} (target rel. CI half-width "
          f"{args.ci_target:.2f} at 90%)")
    pred = predict(config)
    for name in _PLAN_METRICS:
        ci = res.mean_ci(name)
        if ci.n == 0:
            print(f"{name:32s}: no finite observations")
            continue
        hw = "inf" if ci.degenerate else f"{ci.half_width:.4g}"
        rel = (
            "-" if not (ci.relative_half_width
                        == ci.relative_half_width)
            else ("inf" if ci.relative_half_width == float("inf")
                  else f"{100 * ci.relative_half_width:.1f}%")
        )
        line = (
            f"{name:32s}: {ci.mean:.6g} ± {hw} µs "
            f"(rel {rel}, n={ci.n})"
        )
        analytic = pred.metrics.get(name)
        if analytic is not None and analytic == analytic:
            line += f" [analytic: {analytic:.6g}]"
        print(line)
    if pred.applicable and pred.saturated:
        print("note: analytic model predicts saturation for this "
              "configuration")
    return 0


def _single_run(args, config, engine) -> int:
    """One cell; with default flags exactly ``simulate(config)`` (or
    ``simulate_aggregated``)."""
    (outcome,) = engine.run_cells([config], aggregated=args.aggregated)
    report = engine.failure_report
    if isinstance(outcome, CellError):
        print(report.format())
        return 1
    print(format_results(outcome))
    if report.retries or report.cell_timeouts:
        print(f"[resilience: {report.summary()}]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.daemons != 1 and args.arch != "smp":
        parser.error("--daemons applies to --arch smp only")
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    from ..obs import (
        export_trace,
        registry,
        summarize,
        trace_path_from_env,
        use_tracing,
    )

    trace_out = args.trace_out or trace_path_from_env()
    with ExitStack() as stack:
        # No memoization surprises for a one-off run: a completed run is
        # only reused when the user opts into a --resume journal.
        engine = stack.enter_context(
            engine_from_args(args, cache=CellCache(enabled=False))
        )
        tracer = stack.enter_context(use_tracing()) if trace_out else None
        run = _planned_run if args.plan else _single_run
        status = run(args, config, engine)
    if engine.stats.lp_fallbacks:
        print(f"[--lp-workers ignored, ran the sequential kernel: "
              f"{parallel_ineligibility(config)}]")
    if args.profile and engine.stats.profile is not None:
        from ..des.profiling import format_profile

        print(format_profile(engine.stats.profile))
    if tracer is not None:
        path = export_trace(tracer, trace_out, registry())
        print(summarize(tracer, registry()))
        print(f"[trace written to {path}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
