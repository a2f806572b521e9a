#!/usr/bin/env python
"""Import budget: keep scipy off the CLI, paper-rerun and planned paths.

Importing ``scipy.stats`` pulls in ``scipy.spatial``, ``sparse``,
``linalg`` and ``optimize``: about 0.7 s and 45 MiB per process.
Importing ``scipy.special`` alone still costs about 0.3 s and 25 MiB,
and the paper-rerun and planned-sweep paths need only ``ndtr``,
``ndtri`` and ``stdtrit(df, 0.95)`` from it, which ``repro.special``
provides without scipy.  Three checks guard this:

1. **Start-up** — ``import repro.experiments.__main__`` plus
   ``list_experiments()`` loads no scipy module at all.
2. **Artifact runs** — a quick ``figure30 --plan`` run and a quick
   ``table2 figure8 figure27 figure30 figure31`` run (the artifacts the
   end-to-end benchmark's ``paper-rerun`` workload regenerates) finish
   without any scipy module loaded.
3. **Source scan** — under ``src/repro``, no ``import scipy.stats``,
   ``from scipy.stats import …`` or ``from scipy import stats``; and no
   ``ndtr``, ``ndtri`` or ``stdtrit`` imported from ``scipy.special``
   except ``stdtrit`` inside ``repro.special.stdtrit`` (its table-miss
   fallback).

Checks 1 and 2 each run in a fresh interpreter with an empty temporary
``REPRO_CACHE_DIR``, so no cell is served from an earlier run's cache.

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
from typing import List, Sequence

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in the child: the CLI (or only its import), then reports which of
# the watched module prefixes ended up in sys.modules.
PROBE = """
import json, sys
import repro.experiments.__main__ as cli
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv:
    status = cli.main(argv)
else:
    cli.list_experiments()
    status = 0
loaded = [w for w in watched
          if any(m == w or m.startswith(w + ".") for m in sys.modules)]
print(json.dumps({"status": status, "loaded": loaded}))
"""

_failures: List[str] = []


def check(ok: bool, what: str) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        _failures.append(what)


def probe(argv: Sequence[str], watched: Sequence[str]) -> dict:
    """Run the CLI with *argv* in a fresh interpreter; report *watched*."""
    with tempfile.TemporaryDirectory(prefix="repro-import-budget-") as cache:
        env = dict(os.environ, REPRO_CACHE_DIR=cache, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, json.dumps(list(argv)), json.dumps(list(watched))],
            env=env, capture_output=True, text=True, timeout=300,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return {"status": proc.returncode, "loaded": ["<probe failed>"]}
    return json.loads(lines[-1])


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


def main() -> int:
    print("== start-up: import repro.experiments.__main__ + list_experiments() ==")
    res = probe([], ["scipy"])
    check(res["status"] == 0 and not res["loaded"],
          f"no scipy module loaded (loaded: {res['loaded'] or 'none'})")

    for argv in (["figure30", "--plan"],
                 ["table2", "figure8", "figure27", "figure30", "figure31"]):
        print(f"== artifact run: {' '.join(argv)} ==")
        res = probe(argv, ["scipy"])
        check(res["status"] == 0, f"exit status {res['status']}")
        check(not res["loaded"], f"no scipy module loaded (loaded: {res['loaded'] or 'none'})")

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
