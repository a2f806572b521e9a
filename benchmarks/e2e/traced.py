"""Traced pass of the end-to-end benchmark: one command with layer wrappers.

Usage::

    PYTHONPATH=src python benchmarks/e2e/traced.py --spans DIR cli table4 --out OUT
    PYTHONPATH=src python benchmarks/e2e/traced.py --spans DIR cell --seed 1

``cli`` runs ``repro.experiments.__main__.main(argv)``; ``cell`` runs the
single big cell of ``cell.py``.  Before either, every public function in
:data:`TARGETS` is wrapped so that each call records a span (name, start,
end, parent).  Nothing under ``src/`` changes: a wrapper replaces every
binding of its function across the loaded ``repro.*`` modules, including
names copied by ``from ... import``, and methods are replaced on their
class and on every subclass that overrides them.

Spans stay in memory and are appended to ``DIR/spans-<pid>.jsonl`` each
time a top-level span closes.  Forked engine workers inherit the wrappers
(their copy of the recorder is emptied at fork), so they write their own
per-pid files; ``os._exit`` in a pool worker never loses a finished cell.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import re
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(module, qualified name, span name)`` of every wrapped function.  A
#: span name ``X`` becomes the per-layer metrics ``X_s`` (self time) and
#: ``X.calls`` in the benchmark's report.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.rocc.system", "simulate", "rocc.cell"),
    ("repro.rocc.aggregate", "simulate_aggregated", "rocc.cell"),
    ("repro.rocc.system", "ParadynISSystem.__init__", "rocc.build"),
    ("repro.rocc.system", "ParadynISSystem.run", "rocc.run"),
    ("repro.rocc.system", "assemble_results", "rocc.assemble"),
    ("repro.des.core", "Environment.run", "des.run"),
    ("repro.variates.distributions", "Distribution.sample_block",
     "variates.refill"),
    ("repro.variates.fitting", "fit_best", "variates.fit"),
    ("repro.variates.goodness", "ks_statistic", "variates.goodness"),
    ("repro.variates.goodness", "ks_test", "variates.goodness"),
    ("repro.variates.goodness", "anderson_darling", "variates.goodness"),
    ("repro.variates.goodness", "chi_square_test", "variates.goodness"),
    ("repro.workload.characterize", "summarize", "workload.characterize"),
    ("repro.workload.characterize", "fit_requests", "workload.characterize"),
    ("repro.experiments.engine", "ExperimentEngine.run_cells",
     "engine.run_cells"),
    ("repro.experiments.engine", "CellCache.get", "engine.cache_get"),
    ("repro.experiments.engine", "CellCache.put", "engine.cache_put"),
    ("repro.experiments.engine", "config_fingerprint", "engine.fingerprint"),
    ("repro.planner.plan", "run_planned", "planner.run_planned"),
    ("repro.planner.screening", "screen", "planner.screen"),
    ("repro.planner.analytic", "predict", "analytical.predict"),
    ("repro.expdesign.effects", "allocate_variation",
     "expdesign.allocate_variation"),
    ("repro.expdesign.confidence", "mean_confidence_interval",
     "expdesign.ci"),
    ("repro.experiments.reporting", "Table.format", "reporting.format"),
    ("repro.experiments.reporting", "SeriesSet.format", "reporting.format"),
    ("repro.experiments.reporting", "ArtifactGroup.format",
     "reporting.format"),
    ("repro.experiments.reporting", "save_artifact", "reporting.save"),
)

#: Root spans opened by this script around the import and the command.
ROOT_SPANS = ("startup.import", "experiments.cli", "cell.main")

#: Model process classes the kernel profile is grouped into; ``phantom`` is
#: the aggregated large-n mode's stand-in for the n - 1 other nodes.
PROCESS_CLASSES = ("app", "pd", "pvmd", "other", "main", "phantom")

_NODE_PREFIX = re.compile(r"^(node\d+|smp)/")


def process_class(name: str) -> str:
    """Model class of a kernel process name (``node12/app0/main`` -> ``app``).

    Names outside :data:`PROCESS_CLASSES` map to ``unattributed``.
    """
    head = _NODE_PREFIX.sub("", name).split("/", 1)[0].rstrip("0123456789")
    head = {"paradyn-main": "main", "phantom-forwarders": "phantom",
            "phantom-children": "phantom"}.get(head, head)
    return head if head in PROCESS_CLASSES else "unattributed"


class Recorder:
    """In-memory span recorder with per-pid JSONL flushing.

    A span is ``[pid, id, parent id, name, start, end, info]``.  *clock*
    is injectable so tests can drive it with synthetic times.
    """

    def __init__(self, out_dir: Optional[Path] = None,
                 clock: Callable[[], float] = perf_counter):
        self.out_dir = out_dir
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Start empty; also run in a forked child, which must forget the
        parent's spans and open stack."""
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._next_id = 0

    def open(self, name: str) -> list:
        span = [self.pid, self._next_id,
                self._stack[-1] if self._stack else None,
                name, self.clock(), None, None]
        self._next_id += 1
        self._stack.append(span[1])
        return span

    def close(self, span: list, info: Optional[dict] = None) -> None:
        span[5] = self.clock()
        span[6] = info
        self._stack.pop()
        self.spans.append(span)
        if not self._stack:
            self.flush()

    def flush(self) -> None:
        if self.out_dir is None or not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        """Return *fn* recording a span per call.

        *hook*, when given, is called as ``hook(args, kwargs)`` before the
        call and returns a finisher ``finish() -> dict`` run after it; the
        dict is stored on the span.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = hook(args, kwargs) if hook is not None else None
            span = rec.open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
            finally:
                if finish is not None:
                    info = finish()
                rec.close(span, info)
            return result

        return wrapper


def _class_tree(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def install(recorder: Recorder, targets: Sequence[Tuple[str, str, str]],
            hooks: Optional[Dict[str, Callable]] = None,
            prefix: str = "repro") -> Callable[[], None]:
    """Wrap every target; return a function that restores the originals.

    A plain function is rebound in every loaded module named *prefix* or
    ``prefix.*`` that holds it under any name.  A method is replaced on
    its class and on each subclass whose own ``__dict__`` defines it.
    """
    hooks = hooks or {}
    undo: List[Tuple[object, str, object]] = []
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == prefix or n.startswith(prefix + "."))
    ]
    for module_name, qualname, span in targets:
        module = importlib.import_module(module_name)
        owner, _, attr = qualname.rpartition(".")
        hook = hooks.get(span)
        if owner:
            for cls in _class_tree(getattr(module, owner)):
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                setattr(cls, attr, recorder.wrap(span, original, hook))
                undo.append((cls, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(span, original, hook)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))

    def restore() -> None:
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)

    return restore


# ---------------------------------------------------------------------------
# Hooks: extra information recorded on some spans
# ---------------------------------------------------------------------------


def _kernel_hook(args, kwargs):
    """Attach a KernelProfiler for the duration of ``Environment.run``."""
    from repro.des.profiling import KernelProfiler

    env = args[0]
    profiler = KernelProfiler(env, top_n=10**9)
    profiler.attach()

    def finish() -> dict:
        profiler.detach()
        report = profiler.report()
        by_class: Dict[str, float] = {}
        for name, row in report["by_process"].items():
            cls = process_class(name)
            by_class[cls] = by_class.get(cls, 0.0) + row["wall_seconds"]
        # Unowned events and unknown processes: the rest of the total.
        total = sum(row["wall_seconds"] for row in report["by_kind"].values())
        by_class["unattributed"] = total - sum(
            v for k, v in by_class.items() if k != "unattributed")
        queue = report.get("queue", {})
        return {
            "events": report["events"],
            "by_kind": {k: row["wall_seconds"]
                        for k, row in report["by_kind"].items()},
            "by_class": by_class,
            "heap_max": report["heap"]["max"],
            "enqueues": queue.get("enqueues", 0),
            "queue": queue.get("impl", "?"),
        }

    return finish


def _refill_hook(args, kwargs):
    n = args[2] if len(args) > 2 else kwargs.get("n", 0)
    return lambda: {"n": int(n)}


def _engine_hook(args, kwargs):
    """Engine-stats delta of one ``run_cells`` batch."""
    engine = args[0]
    before = engine.stats.copy()

    def finish() -> dict:
        delta = engine.stats.since(before)
        return {
            "wall": delta.wall_time,
            "cell_wall": delta.cell_wall_time,
            "workers": delta.workers,
        }

    return finish


HOOKS = {
    "des.run": _kernel_hook,
    "variates.refill": _refill_hook,
    "engine.run_cells": _engine_hook,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, type=Path,
                        help="directory for the spans-<pid>.jsonl files")
    parser.add_argument("mode", choices=("cli", "cell"))
    parser.add_argument("rest", nargs=argparse.REMAINDER,
                        help="arguments of the traced command")
    args = parser.parse_args(argv)
    args.spans.mkdir(parents=True, exist_ok=True)

    recorder = Recorder(args.spans)
    os.register_at_fork(after_in_child=recorder.reset)
    span = recorder.open("startup.import")
    import repro.experiments.__main__ as cli

    cli.list_experiments()
    recorder.close(span)
    install(recorder, TARGETS, HOOKS)

    if args.mode == "cli":
        span = recorder.open("experiments.cli")
        try:
            return cli.main(args.rest)
        finally:
            recorder.close(span)
    import cell  # this script's directory is sys.path[0]

    span = recorder.open("cell.main")
    try:
        return cell.main(args.rest)
    finally:
        recorder.close(span)


if __name__ == "__main__":
    raise SystemExit(main())
