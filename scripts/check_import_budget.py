#!/usr/bin/env python
"""Import budget: load only what a command needs, and never scipy on
the CLI, paper-rerun and planned paths.

Importing ``scipy.stats`` pulls in ``scipy.spatial``, ``sparse``,
``linalg`` and ``optimize``: about 0.7 s and 45 MiB per process.
Importing ``scipy.special`` alone still costs about 0.3 s and 25 MiB,
and the paper-rerun and planned-sweep paths need only ``ndtr``,
``ndtri`` and ``stdtrit(df, 0.95)`` from it, which ``repro.special``
provides without scipy.  Beyond scipy, every package exports its names
lazily and the experiment registry is a table, so start-up loads the
argument parser and the table only.  A one-worker run keeps two
stacks out of memory: the CLI blocks ``_hashlib`` (OpenSSL's hashes,
3.3 MiB of ``libcrypto``; CPython's built-in sha256 gives the same
digests), and the engine imports ``concurrent.futures`` only to build a
worker pool.  Simulating runs compute latency percentiles without
``np.percentile``, whose ``np.unique`` loads ``numpy.ma`` (1.3 MiB).  And
the workload characterization behind Tables 1–3 and Figure 8 is a cached
record, so a warm rerun of those artifacts synthesizes no trace and fits
nothing.  A warm rerun imports no numpy at all (26.8 MiB with the
interpreter, against 13.8 MiB for a bare one): only the code that
draws, fits or simulates loads it, and the allocation of variation is
pure Python.  Nor does it import ``statistics``, which loads
``fractions`` and ``decimal``.  A warm planned rerun screens its design
again and re-reads the confidence intervals of its cached replications,
both pure Python, so it loads no numpy either.  Six checks guard this:

1. **Start-up** — ``import repro.experiments.__main__`` plus
   ``list_experiments()`` loads no scipy and no numpy module, and no
   ``repro`` module outside :data:`STARTUP_MODULES`.
2. **Artifact runs** — a quick ``figure30 --plan`` run and a quick
   ``table2 figure8 figure27 figure30 figure31`` run (the artifacts the
   end-to-end benchmark's ``paper-rerun`` workload regenerates) finish
   without any scipy module or any of :data:`ONE_WORKER_FORBIDDEN`
   loaded; the ``figure30 --plan`` run, which simulates, also without
   ``numpy.ma`` or any of :data:`UNTRACED_FORBIDDEN` (only a traced
   run profiles its kernel).
3. **Warm-cache planned rerun** — the second of two ``figure30 --plan``
   runs on one cache directory loads none of
   :data:`WARM_PLANNED_FORBIDDEN` (the simulator, tracing, fitting,
   numpy, ``statistics``) or :data:`ONE_WORKER_FORBIDDEN`; the planner
   and the analytic models may load.
4. **Warm-cache paper-rerun** — the second of two identical
   ``table2 figure8 figure27 figure30 figure31`` runs on one cache
   directory (every cell a cache hit) loads none of
   :data:`WARM_FORBIDDEN` (no numpy module at all, no ``statistics``)
   or :data:`ONE_WORKER_FORBIDDEN` and no experiment module whose ids
   it did not run.
5. **Warm-cache characterization** — the same for the second of two
   ``table1 table2 table3 figure8`` runs: ``table3``'s validation cell is
   a cache hit and every characterization record is read from the cache,
   so neither the simulator nor the trace synthesizer, the fitting code,
   numpy or ``statistics`` loads.
6. **Source scan** — under ``src/repro``, no ``import scipy.stats``,
   ``from scipy.stats import …`` or ``from scipy import stats``; and no
   ``ndtr``, ``ndtri`` or ``stdtrit`` imported from ``scipy.special``
   except ``stdtrit`` inside ``repro.special.stdtrit`` (its table-miss
   fallback).

Checks 1–5 run in fresh interpreters on one worker
(``REPRO_WORKERS=1``) with an empty temporary ``REPRO_CACHE_DIR``, so
no cell is served from an earlier run's cache (checks 3–5 fill their
own with the first of their two runs).

Exit status 0 = every check passed, 1 = any check failed.

Usage::

    python scripts/check_import_budget.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

SRC = Path(__file__).resolve().parents[1] / "src"

#: The only ``repro`` modules CLI start-up may load.
STARTUP_MODULES = (
    "repro",
    "repro._lazy",
    "repro.experiments",
    "repro.experiments.__main__",
    "repro.experiments.registry",
    "repro.experiments.runflags",
)
#: The artifacts the end-to-end benchmark's ``paper-rerun`` regenerates.
PAPER_RERUN = ("table2", "figure8", "figure27", "figure30", "figure31")
#: The artifacts whose numbers come from the workload characterization.
CHARACTERIZATION = ("table1", "table2", "table3", "figure8")
#: Packages and modules a run served entirely from the cache never needs:
#: the simulator, the planner, the analytic models, the trace
#: synthesizer, fitting and goodness-of-fit code, numpy (only drawing,
#: fitting and simulating use it) and ``statistics``.
WARM_FORBIDDEN = (
    "repro.rocc.system",
    "repro.rocc.aggregate",
    "repro.planner",
    "repro.analytical",
    "repro.workload.tracing",
    "repro.variates.fitting",
    "repro.variates.goodness",
    "numpy",
    "statistics",
)
#: What a warm planned rerun never needs: :data:`WARM_FORBIDDEN` less the
#: planner and the analytic models, which screen the design again
#: whether or not its cells are cached.
WARM_PLANNED_FORBIDDEN = tuple(
    m for m in WARM_FORBIDDEN if m not in ("repro.planner", "repro.analytical")
)
#: The kernel's profiler and event tracers: only a traced run loads them.
UNTRACED_FORBIDDEN = ("repro.des.profiling", "repro.des.tracing")
#: Modules a one-worker CLI run never loads: OpenSSL's hash binding
#: (blocked by the CLI) and the process-pool stack (only a pool needs it).
ONE_WORKER_FORBIDDEN = ("_hashlib", "concurrent.futures", "multiprocessing")

# Runs in the child: the CLI (or only its import), then reports every
# loaded module under the watched prefixes.
PROBE = """
import json, sys
import repro.experiments.__main__ as cli
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv:
    status = cli.main(argv)
else:
    cli.list_experiments()
    status = 0
# A ``None`` entry is a blocked module (the CLI blocks ``_hashlib``), not a
# loaded one.
modules = sorted(m for m, mod in sys.modules.items() if mod is not None
                 and any(m == w or m.startswith(w + ".") for w in watched))
print(json.dumps({"status": status, "modules": modules}))
"""

_failures: List[str] = []


def check(ok: bool, what: str) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        _failures.append(what)


def probe(argv: Sequence[str], watched: Sequence[str], runs: int = 1) -> List[dict]:
    """Run the CLI with *argv* *runs* times, each in a fresh interpreter,
    on one empty cache directory; per run, report the exit status and
    the loaded modules under the *watched* prefixes."""
    results = []
    with tempfile.TemporaryDirectory(prefix="repro-import-budget-") as cache:
        env = dict(os.environ, REPRO_CACHE_DIR=cache, PYTHONHASHSEED="0",
                   REPRO_WORKERS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        for _ in range(runs):
            proc = subprocess.run(
                [sys.executable, "-c", PROBE, json.dumps(list(argv)),
                 json.dumps(list(watched))],
                env=env, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                results.append({"status": proc.returncode,
                                "modules": ["<probe failed>"]})
            else:
                results.append(json.loads(lines[-1]))
    return results


def _under(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def startup_offenders(modules: Iterable[str]) -> List[str]:
    """Loaded *modules* that CLI start-up must not load: any numpy or
    scipy module, and any ``repro`` module outside :data:`STARTUP_MODULES`."""
    return sorted(
        m for m in modules
        if _under(m, ("numpy", "scipy"))
        or (_under(m, ("repro",)) and m not in STARTUP_MODULES)
    )


def runner_modules(ids: Optional[Iterable[str]] = None) -> List[str]:
    """The experiment modules the registry maps *ids* (default: every
    id) to."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.experiments.registry import EXPERIMENTS

    return sorted({
        "repro.experiments." + target.partition(":")[0]
        for id_, _, _, target in EXPERIMENTS if ids is None or id_ in ids
    })


def warm_rerun_offenders(modules: Iterable[str], ran: Sequence[str]) -> List[str]:
    """Loaded *modules* that a warm-cache run of the ids *ran* must not
    load: anything under :data:`WARM_FORBIDDEN`, and the runner modules
    of every id it did not run."""
    unrun = set(runner_modules()) - set(runner_modules(ran))
    return sorted(
        m for m in modules if _under(m, WARM_FORBIDDEN) or _under(m, unrun)
    )


def one_worker_offenders(modules: Iterable[str]) -> List[str]:
    """Loaded *modules* that a one-worker CLI run must not load: anything
    under :data:`ONE_WORKER_FORBIDDEN`."""
    return sorted(m for m in modules if _under(m, ONE_WORKER_FORBIDDEN))


def _imports(path: Path):
    """Yield ``(node, imported names, enclosing function name)`` per import.

    The names are fully qualified: ``from a.b import c`` yields
    ``["a.b", "a.b.c"]``.  The function is ``None`` at module level.
    """
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield child, [a.name for a in child.names], func
            elif isinstance(child, ast.ImportFrom) and child.module:
                yield child, [child.module] + [f"{child.module}.{a.name}"
                                               for a in child.names], func
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), None)


def scipy_stats_imports(root: Path) -> List[str]:
    """``file:line`` of every import of ``scipy.stats`` under *root*."""
    hits = []
    for path in sorted(root.rglob("*.py")):
        for node, names, _ in _imports(path):
            if any(n == "scipy.stats" or n.startswith("scipy.stats.") for n in names):
                hits.append(f"{path.relative_to(root.parent)}:{node.lineno}")
    return hits


PORTED = ("ndtr", "ndtri", "stdtrit")


def ported_special_imports(root: Path) -> List[str]:
    """``file:line`` of every ``scipy.special`` import of a ported function.

    ``ndtr``, ``ndtri`` and ``stdtrit`` come from ``repro.special``; the
    only allowed import is ``stdtrit`` inside ``special.py``'s own
    ``stdtrit`` (the fallback for a ``(df, p)`` outside its table).
    """
    hits = []
    fallback = root / "special.py"
    for path in sorted(root.rglob("*.py")):
        for node, names, func in _imports(path):
            ported = {n.rsplit(".", 1)[1] for n in names
                      if n.startswith("scipy.special.")} & set(PORTED)
            if path == fallback and func == "stdtrit":
                ported.discard("stdtrit")
            if ported:
                hits.append(f"{path.relative_to(root.parent)}:{node.lineno}")
    return hits


def check_one_worker(label: str, modules: Iterable[str]) -> None:
    bad = one_worker_offenders(modules)
    check(not bad, f"{label}no OpenSSL hash or process-pool module loaded "
          f"(offenders: {', '.join(bad) or 'none'})")


def main() -> int:
    print("== start-up: import repro.experiments.__main__ + list_experiments() ==")
    (res,) = probe([], ["repro", "numpy", "scipy"])
    bad = startup_offenders(res["modules"])
    check(res["status"] == 0 and not bad,
          f"no numpy or scipy module and only {len(STARTUP_MODULES)} repro "
          f"modules loaded (offenders: {', '.join(bad) or 'none'})")

    print("== artifact run, then warm-cache rerun: figure30 --plan ==")
    res, warm = probe(["figure30", "--plan"],
                      ["scipy", *WARM_PLANNED_FORBIDDEN, *ONE_WORKER_FORBIDDEN,
                       *UNTRACED_FORBIDDEN],
                      runs=2)
    scipy = [m for m in res["modules"] if _under(m, ("scipy",))]
    check(res["status"] == 0, f"exit status {res['status']}")
    check(not scipy, f"no scipy module loaded (loaded: {', '.join(scipy) or 'none'})")
    masked = [m for m in res["modules"] if _under(m, ("numpy.ma",))]
    check(not masked, "no numpy.ma module loaded "
          f"(loaded: {', '.join(masked) or 'none'})")
    profiling = [m for m in res["modules"] if _under(m, UNTRACED_FORBIDDEN)]
    check(not profiling, "no kernel profiler or event tracer loaded "
          f"(loaded: {', '.join(profiling) or 'none'})")
    check_one_worker("", res["modules"])
    check(warm["status"] == 0, f"warm rerun: exit status {warm['status']}")
    bad = sorted(m for m in warm["modules"]
                 if _under(m, ("scipy", *WARM_PLANNED_FORBIDDEN)))
    check(not bad, "warm rerun: no simulator, tracing, fitting, numpy, "
          f"statistics or scipy module loaded (offenders: {', '.join(bad) or 'none'})")
    check_one_worker("warm rerun: ", warm["modules"])

    for ids in (PAPER_RERUN, CHARACTERIZATION):
        print(f"== artifact run, then warm-cache rerun: {' '.join(ids)} ==")
        cold, warm = probe(ids, ["repro", "scipy", *WARM_FORBIDDEN,
                                 *ONE_WORKER_FORBIDDEN], runs=2)
        for name, res in (("first run", cold), ("warm rerun", warm)):
            scipy = [m for m in res["modules"] if _under(m, ("scipy",))]
            check(res["status"] == 0, f"{name}: exit status {res['status']}")
            check(not scipy, f"{name}: no scipy module loaded "
                  f"(loaded: {', '.join(scipy) or 'none'})")
            check_one_worker(f"{name}: ", res["modules"])
        bad = warm_rerun_offenders(warm["modules"], ids)
        check(not bad, "warm rerun: no simulator, planner, analytical, "
              "tracing, fitting, numpy, statistics or unrun experiment "
              f"module loaded (offenders: {', '.join(bad) or 'none'})")

    print("== source scan: src/repro ==")
    hits = scipy_stats_imports(SRC / "repro")
    check(not hits, f"no scipy.stats import ({', '.join(hits) or 'none found'})")
    hits = ported_special_imports(SRC / "repro")
    check(not hits, f"no {'/'.join(PORTED)} import from scipy.special outside "
          f"the repro.special fallback ({', '.join(hits) or 'none found'})")

    if _failures:
        print(f"\nimport budget FAILED: {len(_failures)} check(s)")
        return 1
    print("\nimport budget ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
