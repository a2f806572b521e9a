"""End-to-end benchmark of regenerating paper artifacts.

Three ways to run it, from the root of the repository::

    # one workload for a fixed time; the last stdout line is a JSON result
    python benchmarks/e2e/run.py --workload big-cell --seed 1 --seconds 25 --trace 0

    # every workload in interleaved rounds plus one traced pass each
    python benchmarks/e2e/run.py --out results.json [--seed 1] [--rounds 5]

    # compare two full sets with the bounds in BENCHMARK.json
    python benchmarks/e2e/run.py --compare parent.json change.json

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced command.  See
README.md for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import harness as h

#: Fewest set-up samples in a timed run; the run reports their median.
SETUP_REPEATS = 5
#: Whole-run limit of a timed run; commands still running are killed.
RUN_DEADLINE_S = 170.0


def _check_program() -> None:
    """Exit non-zero when the program under test is missing, and make sure
    its bytecode is compiled so that no run pays for that."""
    if not (h.SRC / "repro" / "experiments" / "__main__.py").is_file():
        sys.exit(f"error: {h.SRC}/repro not found; run from a checkout of "
                 "the repository")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(h.SRC)],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def _work_dir(tag: str) -> Path:
    return h.HERE / ".work" / f"{tag}-{os.getpid()}"


def _fmt(stats: Dict[str, float], unit: str) -> str:
    return (f"{stats['median']:10.4f} [{stats['q1']:.4f}, {stats['q3']:.4f}] "
            f"{unit} n={stats['n']}")


# ---------------------------------------------------------------------------
# One workload for --seconds (the timed run)
# ---------------------------------------------------------------------------


class Tally:
    """Commands attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, failures: List[str]) -> None:
        self.attempted += 1
        self.failed += bool(failures)
        self.messages += failures


def timed_run(args) -> int:
    wl = h.workload(args.workload)
    start = time.monotonic()
    work = _work_dir(wl.name)
    runner = h.Runner(wl, work, args.seed, deadline=start + RUN_DEADLINE_S)
    tally = Tally()
    setups: List[float] = []

    def sample_setup() -> None:
        value, bad = runner.setup_sample()
        setups.append(value)
        tally.record(bad)

    try:
        if wl.fill:
            tally.record(runner.prepare())
        ops: List[h.Op] = []
        t0 = time.monotonic()
        while not ops or time.monotonic() - t0 < args.seconds:
            # A set-up sample before each command, so that set-up times
            # and command times sample the same stretches of host speed.
            if not args.trace and not wl.is_cell:
                sample_setup()
            ops.append(runner.op())
            if time.monotonic() - start > RUN_DEADLINE_S:
                ops[-1].failures.append("run deadline reached")
                break
        for i in h.digest_failures(ops):
            ops[i].failures.append("artifact digest differs between commands")
        for op in ops:
            tally.record(op.failures)
        if wl.is_cell:
            setups += [op.setup * op.scale for op in ops]
        while not args.trace and len(setups) < SETUP_REPEATS:
            sample_setup()
        if args.trace:
            layers, bad = h.traced_pass(runner, ops[-1].wall)
            tally.record(bad)
            units = h.per_layer_names()
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in layers.items()}
        else:
            metrics = {
                name: {"value": h.summary(values)["median"],
                       "unit": h.END_TO_END[name][0]}
                for name, values in h.op_metrics(ops, setups).items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {wl.name}: {wl.command(args.seed)}")
    print(f"  {len(ops)} commands in {time.monotonic() - t0:.1f}s, "
          f"counts {h.exact_counts(ops)}")
    if args.trace:
        for name, m in sorted(metrics.items()):
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    else:
        for name, values in h.op_metrics(ops, setups).items():
            print(f"  {name:12s} {_fmt(h.summary(values), metrics[name]['unit'])}"
                  f"  values {[round(v, 4) for v in values]}")
        scales = [op.scale for op in ops]
        print(f"  host_scale   {_fmt(h.summary(scales), 'x')}"
              f"  values {[round(v, 4) for v in scales]}")
    for f in tally.messages:
        print(f"  FAILED: {f}")
    correct = tally.failed == 0 and not any(
        math.isnan(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Every workload in interleaved rounds (the full set)
# ---------------------------------------------------------------------------


def full_set(args) -> int:
    selected = ([h.workload(n) for n in args.only.split(",")] if args.only
                else list(h.WORKLOADS))
    host = h.host_record()
    work = _work_dir("set")
    runners = {wl.name: h.Runner(wl, work / wl.name, args.seed)
               for wl in selected}
    ops: Dict[str, List[h.Op]] = {wl.name: [] for wl in selected}
    setups: Dict[str, List[float]] = {wl.name: [] for wl in selected}
    tallies = {wl.name: Tally() for wl in selected}
    layers: Dict[str, Dict[str, float]] = {}
    t_start = time.monotonic()
    try:
        for wl in selected:
            if wl.fill:
                tallies[wl.name].record(runners[wl.name].prepare())
        # Rounds visit the workloads in turn so a slow period of the host
        # hits all of them rather than one.  The traced command follows the
        # workload's last untraced one, which gives its overhead.
        for r in range(args.rounds):
            for wl in selected:
                runner, tally = runners[wl.name], tallies[wl.name]
                if not wl.is_cell:
                    value, bad = runner.setup_sample()
                    setups[wl.name].append(value)
                    tally.record(bad)
                op = runner.op()
                ops[wl.name].append(op)
                if wl.is_cell:
                    setups[wl.name].append(op.setup * op.scale)
                print(f"[round {r + 1}/{args.rounds}] {wl.name:14s} "
                      f"wall {op.wall:8.3f}s"
                      + (f"  FAILED {op.failures}" if op.failures else ""),
                      file=sys.stderr, flush=True)
                if r == args.rounds - 1:
                    layers[wl.name], bad = h.traced_pass(runner, op.wall)
                    tally.record(bad)
                    print(f"[traced]    {wl.name:14s} overhead "
                          f"{layers[wl.name]['trace.overhead_frac']:+.3f}",
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_after"] = list(os.getloadavg())

    result = {"host": host, "seed": args.seed, "rounds": args.rounds,
              "elapsed_s": time.monotonic() - t_start, "workloads": {}}
    any_failed = False
    for wl in selected:
        wl_ops, tally = ops[wl.name], tallies[wl.name]
        for i in h.digest_failures(wl_ops):
            wl_ops[i].failures.append("artifact digest differs between rounds")
        for op in wl_ops:
            tally.record(op.failures)
        any_failed |= tally.failed > 0
        metrics = {}
        for name, values in h.op_metrics(wl_ops, setups[wl.name]).items():
            unit, better = h.END_TO_END[name]
            metrics[name] = {"unit": unit, "better": better,
                             **h.summary(values), "values": values}
        result["workloads"][wl.name] = {
            "command": wl.command(args.seed),
            "why": wl.why,
            "metrics": metrics,
            "attempted": tally.attempted,
            "failed_frac": tally.failed / tally.attempted,
            "failures": tally.messages,
            "digests": sorted({op.digest for op in wl_ops if op.digest}),
            "counts": h.exact_counts(wl_ops),
            "layers": layers.get(wl.name, {}),
        }
    print_set(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"[results written to {args.out}]")
    return 1 if any_failed else 0


def print_set(result: dict) -> None:
    host = result["host"]
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"python={host['python']} numpy={host['numpy']} "
          f"commit={host['commit']} load {host['loadavg_before'][0]:.2f}"
          f" -> {host['loadavg_after'][0]:.2f}")
    units = h.per_layer_names()
    for name, w in result["workloads"].items():
        print(f"\n== {name}: {w['command']}")
        for metric, s in w["metrics"].items():
            print(f"  {metric:12s} {_fmt(s, s['unit'])}")
        print(f"  failed_frac  {w['failed_frac']:.4f} "
              f"(of {w['attempted']} attempts)")
        for f in w["failures"]:
            print(f"  FAILED: {f}")
        print(f"  counts {w['counts']}  digests {[d[:12] for d in w['digests']]}")
        print("  traced pass (per-layer, non-zero):")
        for metric, value in w["layers"].items():
            if value:
                print(f"    {metric:36s} {value:14.6g} {units[metric]}")


def compare_sets(args) -> int:
    parent = json.loads(Path(args.compare[0]).read_text())
    change = json.loads(Path(args.compare[1]).read_text())
    rows, bad = h.compare(parent, change, h.load_bounds())
    print(f"{'workload':14s} {'metric':12s} {'parent':>12s} {'change':>12s}")
    for row in rows:
        print(row)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1],
    )
    names = [wl.name for wl in h.WORKLOADS]
    parser.add_argument("--workload", choices=names,
                        help="run this workload only, timed")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of a timed run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced pass")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the big-cell workload (default 1)")
    parser.add_argument("--out", help="write a full set's results here")
    parser.add_argument("--rounds", type=int, default=5,
                        help="rounds of a full set (default 5)")
    parser.add_argument("--only", help="comma-separated workloads of a full set")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two full-set result files")
    args = parser.parse_args(argv)
    if args.only and not set(args.only.split(",")) <= set(names):
        parser.error(f"--only takes names from {names}")
    if args.compare:
        return compare_sets(args)
    # Exit through the normal unwinding on SIGTERM, so the running command
    # is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _check_program()
    h.pin_to_one_cpu()
    if args.workload:
        return timed_run(args)
    return full_set(args)


if __name__ == "__main__":
    raise SystemExit(main())
