"""Command-line trace generator and characterizer.

Usage examples::

    python -m repro.workload generate --benchmark pvmbt --seconds 10 \
        --out trace.csv
    python -m repro.workload characterize trace.csv
    python -m repro.workload characterize trace.csv --fit
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .characterize import fit_requests, summarize
from .nas import benchmark_by_name
from .records import TraceFile, TracingConfig
from .tracing import AIXTraceFacility


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.workload",
        description="Generate and characterize AIX-like occupancy traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a trace to CSV")
    gen.add_argument("--benchmark", default="pvmbt",
                     help="NAS profile: pvmbt or pvmis")
    gen.add_argument("--seconds", type=float, default=10.0)
    gen.add_argument("--nodes", type=int, default=1)
    gen.add_argument("--apps", type=int, default=1)
    gen.add_argument("--period-ms", type=float, default=40.0)
    gen.add_argument("--batch", type=int, default=1)
    gen.add_argument("--main", action="store_true",
                     help="also trace the main Paradyn process")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")

    cha = sub.add_parser("characterize", help="Table 1/2 from a trace CSV")
    cha.add_argument("trace", help="trace CSV produced by 'generate'")
    cha.add_argument("--fit", action="store_true",
                     help="also fit request-length distributions (Table 2)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        facility = AIXTraceFacility(
            benchmark_by_name(args.benchmark),
            TracingConfig(
                duration=args.seconds * 1e6,
                nodes=args.nodes,
                app_processes_per_node=args.apps,
                sampling_period=args.period_ms * 1000.0,
                batch_size=args.batch,
                trace_main_process=args.main,
                seed=args.seed,
            ),
        )
        trace = facility.trace()
        trace.to_csv(args.out)
        print(f"wrote {len(trace)} records ({trace.span() / 1e6:.2f} s) "
              f"to {args.out}")
        return 0

    trace = TraceFile.from_csv(args.trace)
    print(summarize(trace).format())
    if args.fit:
        print()
        for fit in fit_requests(trace):
            d = fit.distribution
            print(f"{fit.process_type.value:16s} {fit.resource.value:8s} "
                  f"-> {fit.family:12s} mean={d.mean:9.1f} std={d.std:9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
