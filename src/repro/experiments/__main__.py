"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table4
    python -m repro.experiments figure17 figure18
    python -m repro.experiments all            # everything, quick mode
    python -m repro.experiments all --full     # paper-scale (slow)
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib.util import find_spec
from typing import List, Optional

from .registry import get, list_experiments
from .runflags import Checked, add_run_flags, engine_from_args, int_at_least


def main(argv: Optional[List[str]] = None) -> int:
    # The only hash this program computes is sha256 (cache keys and
    # checksums), which CPython also builds in.  Blocking the OpenSSL binding
    # keeps libcrypto (3.3 MiB resident) out of the process; ``numpy.random``
    # would load it through secrets -> hmac.  A process that already has
    # ``_hashlib`` (a test runner, say) keeps it, and digests are identical.
    # Some distributions build CPython without its own sha256 (``_sha256``,
    # ``_sha2`` from 3.12); there OpenSSL stays.
    if any(find_spec(m) for m in ("_sha256", "_sha2")):
        sys.modules.setdefault("_hashlib", None)
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce tables/figures from the Paradyn IS paper",
    )
    parser.add_argument(
        "ids",
        nargs="+",
        help="experiment ids (e.g. table4 figure17), 'list', or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at paper scale instead of quick mode",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also save each artifact as <DIR>/<id>.json (+ .txt)",
    )
    parser.add_argument(
        "--workers",
        action=Checked,
        check=int_at_least(1),
        default=None,
        metavar="N",
        help="run simulation cells on N worker processes "
        "(default: $REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed cell cache",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="route table4/table5/table6/figure30 to their planned "
        "variants (planned_now, ...), run under the hybrid "
        "analytic-simulation planner with --ci-target/--budget; other "
        "ids run unplanned, with a note on stderr",
    )
    add_run_flags(parser)
    args = parser.parse_args(argv)

    if args.ids == ["list"]:
        for e in list_experiments():
            print(f"{e.id:10s} {e.title}")
        return 0

    ids = args.ids
    if ids == ["all"]:
        ids = [e.id for e in list_experiments()]

    from contextlib import ExitStack

    from ..obs import (
        export_trace,
        registry,
        summarize,
        trace_path_from_env,
        use_tracing,
    )
    from .engine import CellCache, use_engine

    if args.plan:
        # The classic factorial ids run as their planned variants.
        planned_alias = {
            "table4": "planned_now",
            "table5": "planned_smp",
            "table6": "planned_mpp",
            "figure30": "planned_validation",
        }
        ids = [planned_alias.get(i, i) for i in ids]
    trace_out = args.trace_out or trace_path_from_env()
    engine = engine_from_args(
        args,
        cache=(
            CellCache(enabled=False)
            if (args.no_cache or args.profile or trace_out)
            else None
        ),
        workers=args.workers,
    )
    status = 0
    with ExitStack() as stack:
        stack.enter_context(engine)
        stack.enter_context(use_engine(engine))
        tracer = (
            stack.enter_context(use_tracing()) if trace_out else None
        )
        for id_ in ids:
            try:
                experiment = get(id_)
            except KeyError as exc:
                print(exc, file=sys.stderr)
                status = 2
                continue
            extra = {}
            if experiment.accepts("plan"):
                from ..planner import PlannerConfig, ReplicationPolicy

                extra["plan"] = PlannerConfig(
                    replication=ReplicationPolicy(ci_target=args.ci_target),
                    budget=args.budget,
                )
            elif args.plan:
                print(f"{id_}: no planned variant; --plan ignored",
                      file=sys.stderr)
            t0 = time.time()
            if tracer is not None:
                with tracer.span(id_, cat="experiment"):
                    artifact = experiment.run(quick=not args.full, **extra)
            else:
                artifact = experiment.run(quick=not args.full, **extra)
            elapsed = time.time() - t0
            print(artifact.format())
            if args.out:
                from pathlib import Path

                from .reporting import save_artifact

                path = save_artifact(artifact, Path(args.out) / f"{id_}.json")
                print(f"[saved to {path}]")
            print(f"\n[{id_} completed in {elapsed:.1f}s]\n")
        print(f"[engine: {engine.stats.summary()}]", file=sys.stderr)
        if engine.failure_report:
            print(engine.failure_report.format(), file=sys.stderr)
            status = status or 1
        if args.profile and engine.stats.profile is not None:
            from ..des.profiling import format_profile

            print(format_profile(engine.stats.profile), file=sys.stderr)
        if tracer is not None:
            path = export_trace(tracer, trace_out, registry())
            print(summarize(tracer, registry()), file=sys.stderr)
            print(f"[trace written to {path}]", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
