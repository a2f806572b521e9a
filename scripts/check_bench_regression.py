#!/usr/bin/env python
"""Gate DES benchmark results against the committed baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_des.py -q \
        --benchmark-json results.json
    python scripts/check_bench_regression.py results.json            # absolute
    python scripts/check_bench_regression.py results.json --mode relative
    python scripts/check_bench_regression.py results.json --update   # re-baseline

Two comparison modes against ``BENCH_DES.json``:

``absolute``
    Each benchmark's min time must stay within ``tolerance`` of the
    recorded min.  Meaningful only on the machine that generated the
    baseline (use it locally when hunting a regression).

``relative``
    Each benchmark's min time is first normalized to the timeout-chain
    floor, and the *ratio* is compared.  Machine speed cancels out, so
    this is what CI gates on: it catches one kernel path eroding
    relative to the others (e.g. holds losing their edge over timeouts)
    without flaking on runner speed variance.  A benchmark that records
    its own ``extra_info.floor_ratio`` is gated on that instead: the
    median over its rounds of each round's time over a floor payload
    timed just before it (``benchmarks/test_bench_des.py``).  Two mins
    taken seconds apart move with whichever found the quieter stretch
    of a shared host; back-to-back pairs slow down together.  Its
    baseline entry says ``"per_round": true``, so a result that stops
    recording the ratio is a data error, not a silent switch to the
    ratio of mins.

``--update`` rewrites the ``baseline`` section (and the tolerance
metadata if ``--tolerance`` was given) from the results file, keeping
the history section intact.  A baseline entry with no result (a
benchmark deleted, renamed or not run) fails the check like a
regression.  Exit status: 0 = within tolerance, 1 = regression or
missing benchmark, 2 = usage/data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_DES.json"


def load_baseline(path: Path) -> dict:
    """Load and structurally validate the committed baseline file.

    Raises ``ValueError`` with an actionable message for every way the
    file can be unusable (missing, unparsable, or lacking the ``meta`` /
    ``baseline`` sections), so ``main`` can report it without a
    traceback.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(
            f"cannot read baseline {path}: {exc}; run the benchmarks and "
            f"re-create it with --update"
        ) from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"baseline {path} must be a JSON object")
    for section in ("meta", "baseline"):
        if not isinstance(data.get(section), dict):
            raise ValueError(
                f"baseline {path} is missing its {section!r} section; "
                f"re-create it with --update"
            )
    return data


def load_results(path: Path) -> dict:
    """Map benchmark name -> ``{"min": seconds}``, plus the
    ``floor_ratio`` the benchmark recorded in its ``extra_info`` if
    any, from a --benchmark-json file."""
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read results {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"results {path} is not valid JSON: {exc}") from exc
    out = {}
    try:
        for bench in data.get("benchmarks", []):
            entry = {"min": float(bench["stats"]["min"])}
            extra = bench.get("extra_info") or {}
            if "floor_ratio" in extra:
                entry["floor_ratio"] = float(extra["floor_ratio"])
            out[bench["name"]] = entry
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(
            f"results {path} is not pytest --benchmark-json output: "
            f"bad benchmark entry ({exc!r})"
        ) from exc
    if not out:
        raise ValueError(f"no benchmarks found in {path}")
    return out


def check(
    results: dict,
    baseline: dict,
    mode: str,
    tolerance: float,
) -> list:
    """Return a list of (name, measured, allowed, detail) regressions.

    A baseline entry missing from *results* is returned with
    ``measured`` and ``allowed`` both ``None``.
    """
    normalize_to = baseline["meta"].get("normalize_to")
    entries = baseline["baseline"]
    regressions = []

    if mode == "relative" and normalize_to not in results:
        raise ValueError(
            f"relative mode needs the {normalize_to!r} benchmark in the results"
        )

    for name, entry in entries.items():
        if name not in results:
            detail = "in the baseline but not in the results file"
            print(f"  MISS {name}: {detail}")
            regressions.append((name, None, None, detail))
            continue
        measured = results[name]["min"]
        if mode == "relative":
            if name == normalize_to:
                continue  # the floor is 1.0 by construction
            if entry.get("per_round") and "floor_ratio" not in results[name]:
                raise ValueError(
                    f"the baseline gates {name!r} on per-round ratios, "
                    f"but it recorded no extra_info.floor_ratio"
                )
            measured_ratio = ratio_of(name, results, normalize_to)
            allowed = entry["ratio"] * (1.0 + tolerance)
            ok = measured_ratio <= allowed
            detail = (
                f"ratio {measured_ratio:.3f} vs baseline {entry['ratio']:.3f} "
                f"(allowed {allowed:.3f})"
            )
            value = measured_ratio
        else:
            allowed = entry["min"] * (1.0 + tolerance)
            ok = measured <= allowed
            detail = (
                f"min {measured:.5f}s vs baseline {entry['min']:.5f}s "
                f"(allowed {allowed:.5f}s)"
            )
            value = measured
        status = "ok  " if ok else "FAIL"
        print(f"  {status} {name}: {detail}")
        if not ok:
            regressions.append((name, value, allowed, detail))
    return regressions


def ratio_of(name: str, results: dict, normalize_to: str) -> float:
    """Benchmark *name*'s time relative to the floor: its recorded
    per-round ``floor_ratio`` if it has one, else its min over the
    floor's min."""
    result = results[name]
    if "floor_ratio" in result:
        return result["floor_ratio"]
    return result["min"] / results[normalize_to]["min"]


def update_baseline(baseline_path: Path, baseline: dict, results: dict, tolerance) -> None:
    normalize_to = baseline["meta"].get("normalize_to")
    new = {}
    for name, stats in sorted(results.items()):
        ratio = (ratio_of(name, results, normalize_to)
                 if normalize_to in results and name != normalize_to
                 else 1.0)
        new[name] = {"min": round(stats["min"], 5), "ratio": round(ratio, 3)}
        if "floor_ratio" in stats:
            new[name]["per_round"] = True
    baseline["baseline"] = new
    if tolerance is not None:
        baseline["meta"]["tolerance"] = tolerance
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline updated: {baseline_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="pytest --benchmark-json output")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, help="baseline JSON file"
    )
    parser.add_argument(
        "--mode",
        choices=("absolute", "relative"),
        default="absolute",
        help="compare raw seconds (absolute) or floor-normalized ratios (relative)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional regression (default: baseline meta, 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline section from the results instead of checking",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_baseline(args.baseline)
        results = load_results(args.results)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update:
        update_baseline(args.baseline, baseline, results, args.tolerance)
        return 0

    try:
        tolerance = (
            args.tolerance
            if args.tolerance is not None
            else float(baseline["meta"].get("tolerance", 0.25))
        )
    except (TypeError, ValueError):
        print(
            f"error: baseline {args.baseline} has a non-numeric "
            f"meta.tolerance: {baseline['meta'].get('tolerance')!r}",
            file=sys.stderr,
        )
        return 2
    print(f"checking {len(results)} benchmarks ({args.mode}, tolerance {tolerance:.0%})")
    try:
        regressions = check(results, baseline, args.mode, tolerance)
    except (KeyError, TypeError, ValueError) as exc:
        print(
            f"error: baseline {args.baseline} and results "
            f"{args.results} do not line up: {exc!r}; re-create the "
            f"baseline with --update",
            file=sys.stderr,
        )
        return 2
    if regressions:
        print(f"{len(regressions)} benchmark(s) regressed beyond "
              f"{tolerance:.0%} or missing:")
        for name, value, allowed, detail in regressions:
            if value is None:
                print(f"  {name}: missing ({detail})")
                continue
            over = (value / allowed - 1.0) * 100.0 if allowed else float("inf")
            print(f"  {name}: {over:+.1f}% over the allowed bound ({detail})")
        return 1
    print("all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
