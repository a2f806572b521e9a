"""Workloads, measurement, output checks, layer accounting and comparison
for the end-to-end benchmark (``run.py`` is the command line).

Every operation is one command in a fresh subprocess, so start-up, imports
and peak memory are what a user of the command sees.  Children get an empty
per-operation ``REPRO_CACHE_DIR`` (``paper-rerun`` shares one cache filled by
an untimed run), ``PYTHONHASHSEED=0`` and no other ``REPRO_*`` variable.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from traced import PROCESS_CLASSES, ROOT_SPANS, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CELL = HERE / "cell.py"
TRACED = HERE / "traced.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Per-command wall-clock limit; a command past it is killed and failed.
COMMAND_TIMEOUT_S = 150.0

_SETUP_SNIPPET = (
    "from repro.experiments.__main__ import list_experiments; "
    "list_experiments()"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI command or the single big cell."""

    name: str
    why: str
    #: Arguments of ``python -m repro.experiments``; empty for the cell.
    argv: Tuple[str, ...] = ()
    #: Run once, untimed, into a shared cache before the timed commands.
    fill: bool = False

    @property
    def is_cell(self) -> bool:
        return not self.argv

    def command(self, seed: int) -> str:
        """The measured command as a user would type it."""
        if self.is_cell:
            return f"python benchmarks/e2e/cell.py --seed {seed}"
        return "python -m repro.experiments " + " ".join(self.argv)


# Each command takes one to two seconds on a calm host, so that a timed run
# holds many and reports their median, which one slow command cannot move,
# and so that the host-speed gauge read just before and after a command
# stands for the whole of it (see the README on host noise).  Every command
# runs on one worker: a process pool on a small shared host measures the
# host's scheduler (see the README).
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "mpp-sweep",
        "MPP node-count sweep on one worker, planner off: kernel, direct and "
        "tree forwarding, the aggregated large-n station",
        ("figure27",),
    ),
    Workload(
        "now-planned",
        "NOW testbed factorial under --plan: the only workload where the "
        "planner, analytic screening and adaptive replication run",
        ("figure30", "--plan"),
    ),
    Workload(
        "paper-rerun",
        "artifacts rerun against a filled cache: imports, cache reads, "
        "fitting, allocation of variation and reporting, no kernel",
        ("table2", "figure8", "figure27", "figure30", "figure31"),
        fill=True,
    ),
    Workload(
        "big-cell",
        "one 1024-node contention-free NOW cell: deepest schedule, most "
        "variate streams, the only workload on the calendar queue",
    ),
)

#: End-to-end metrics: name -> (unit, direction).  Bounds live in
#: BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def workload(name: str) -> Workload:
    for wl in WORKLOADS:
        if wl.name == name:
            return wl
    raise KeyError(f"unknown workload {name!r}; "
                   f"choose from {[w.name for w in WORKLOADS]}")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env(cache_dir: Optional[Path]) -> Dict[str, str]:
    """The environment of every measured command.  BLAS and OpenMP run one
    thread: their idle threads spin on the host's other core, which made
    CPU time exceed wall time in some runs and not in others."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


@dataclass
class Exit:
    """How one child process ended."""

    code: int
    #: ``time.perf_counter()`` at launch and at exit.  On Linux it reads
    #: CLOCK_MONOTONIC, the clock the child's spans use too.
    launch: float
    exit: float
    cpu: float
    rss_mb: float
    timed_out: bool = False

    @property
    def wall(self) -> float:
        return self.exit - self.launch


def run_child(argv: Sequence[str], env: Dict[str, str], log: Path,
              timeout: float = COMMAND_TIMEOUT_S) -> Exit:
    """Run *argv* to completion in its own session; stdout and stderr go to
    ``log.out``/``log.err``.  CPU and peak RSS come from ``os.wait4`` and so
    cover every descendant the child waited for (pool workers).  On timeout
    the whole session is killed."""
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=ROOT, env=env, stdout=out,
                                stderr=err, start_new_session=True)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            _kill_session(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (e.g. SIGTERM turned into SystemExit): take the
            # command's whole session down with us.
            _kill_session(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Reap anything the command left behind in its session.
    _kill_session(proc.pid)
    return Exit(
        code=proc.returncode,
        launch=t0,
        exit=t1,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=killed.is_set(),
    )


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Steps of the host-speed gauge, and the reading that host-adjusted times
#: are scaled to: a typical one on the host the baselines were measured
#: on, where readings ranged 0.05-0.11 s as its speed moved (see README,
#: "Noise").
GAUGE_STEPS = 60_000
GAUGE_NOMINAL_S = 0.07


def pin_to_one_cpu() -> None:
    """Run this process, and every command it starts, on one CPU, so that
    the gauge reads the speed of the CPU the commands run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def host_gauge() -> float:
    """Seconds a fixed piece of interpreter work takes now: pushes and pops
    on a heap of 8192 tuples plus stores into a dict of up to 65536 keys,
    the simulation kernel's event loop in miniature, with a working set of
    a few MiB.  It is the benchmark's code, not the program's, so no change
    to the program moves it."""
    t0 = time.perf_counter()
    heap: List[Tuple[int, int]] = []
    seen: Dict[int, int] = {}
    for i in range(GAUGE_STEPS):
        heapq.heappush(heap, ((i * 7919) % 100003, i))
        if len(heap) > 8192:
            seen[heapq.heappop(heap)[1] & 65535] = i
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _strip_notes(node):
    if isinstance(node, dict):
        return {k: _strip_notes(v) for k, v in node.items() if k != "notes"}
    if isinstance(node, list):
        return [_strip_notes(v) for v in node]
    return node


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every saved artifact JSON, ``notes`` removed (the notes
    carry wall times)."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.json")):
        doc = _strip_notes(json.loads(path.read_text()))
        h.update(path.name.encode())
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def _parts(doc: dict) -> Iterable[dict]:
    yield doc
    for part in doc.get("parts", ()):
        yield from _parts(part)


def _find(doc: dict, title_fragment: str) -> dict:
    for part in _parts(doc):
        if title_fragment in part.get("title", ""):
            return part
    raise KeyError(title_fragment)


def _column(table: dict, header: str) -> list:
    idx = table["headers"].index(header)
    return [row[idx] for row in table["rows"]]


def shape_failures(out_dir: Path) -> List[str]:
    """The paper's shape claims on whichever artifacts *out_dir* holds."""
    failures = []

    def load(artifact_id: str) -> Optional[dict]:
        path = out_dir / f"{artifact_id}.json"
        return json.loads(path.read_text()) if path.exists() else None

    doc = load("planned_validation")
    if doc is not None:
        table = _find(doc, "Planned results")
        pd = {(b, t): v for b, t, v in zip(_column(table, "batch_size"),
                                            _column(table, "sampling_period"),
                                            _column(table, "pd_cpu_time_per_node"))}
        if len(pd) != 4:
            failures.append(f"planned_validation has {len(pd)} cells, not 4")
        elif not all(pd[(b, t)] < 0.4 * pd[(1, t)] for b, t in pd if b != 1):
            failures.append("planned_validation BF Pd CPU not 60% below CF")
    doc = load("figure30")
    if doc is not None:
        cut = _column(_find(doc, "overhead reduction"), "pd_reduction_pct")
        if not all(v > 60 for v in cut):
            failures.append(f"figure30 pd_reduction_pct {cut} not all > 60")
    doc = load("figure27")
    if doc is not None:
        series = _find(doc, "Pd CPU utilization")["series"]
        if not all(t >= d for t, d in zip(series["tree"], series["direct"])):
            failures.append("figure27 tree Pd CPU below direct")
    return failures


_ENGINE_LINE = re.compile(
    r"\[engine: (\d+) cells \((\d+) run, (\d+) cached, (\d+) failed\)"
    r"(?P<rest>[^\]]*)\]"
)


def engine_counts(stderr: str) -> Dict[str, int]:
    """Cell counts from the CLI's ``[engine: ...]`` summary line."""
    m = _ENGINE_LINE.search(stderr)
    if m is None:
        return {}
    counts = {
        "cells": int(m.group(1)),
        "cells_run": int(m.group(2)),
        "cache_hits": int(m.group(3)),
        "cells_failed": int(m.group(4)),
    }
    for key, label in (("cells_pruned", "pruned"),
                       ("replications_saved", "replications saved")):
        found = re.search(rf"(\d+) {label}", m.group("rest"))
        counts[key] = int(found.group(1)) if found else 0
    return counts


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One measured command and what its outputs showed."""

    #: The user-visible time: launch to exit, or ``.run()`` for the cell.
    wall: float = math.nan
    #: The process's ``time.perf_counter()`` at launch and exit.
    launch: float = math.nan
    exit: float = math.nan
    cpu: float = math.nan
    rss_mb: float = math.nan
    setup: float = math.nan
    #: Host-speed factor of the times above (see ``Runner._run``).
    scale: float = 1.0
    digest: str = ""
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


class Runner:
    """Runs one workload's commands inside a private work directory."""

    #: The gauge reading after the last child of any runner; it serves as
    #: the next child's reading before launch.
    _last_gauge: Optional[float] = None

    def __init__(self, wl: Workload, work: Path, seed: int,
                 deadline: Optional[float] = None):
        self.wl = wl
        self.work = work
        self.seed = seed
        #: ``time.monotonic()`` by which every command must have ended.
        self.deadline = deadline
        self._n = 0
        self.fill_digest: Optional[str] = None
        work.mkdir(parents=True, exist_ok=True)

    def _next(self, tag: str) -> Path:
        self._n += 1
        return self.work / f"{tag}{self._n}"

    def _run(self, argv: Sequence[str], cache: Optional[Path],
             log: Path) -> Tuple[Exit, float]:
        """Run one child; returns how it ended and the host-speed scale of
        its times, from gauge readings just before and just after it."""
        timeout = COMMAND_TIMEOUT_S
        if self.deadline is not None:
            timeout = min(timeout, max(1.0, self.deadline - time.monotonic()))
        before = Runner._last_gauge or host_gauge()
        ex = run_child(argv, child_env(cache), log, timeout)
        after = Runner._last_gauge = host_gauge()
        return ex, GAUGE_NOMINAL_S / ((before + after) / 2)

    def prepare(self) -> List[str]:
        """Untimed preparation (the cache fill); returns failures."""
        if not self.wl.fill:
            return []
        op = self._cli(self.work / "fill-cache", traced=None)
        self.fill_digest = op.digest
        return [f"fill: {f}" for f in op.failures]

    def setup_sample(self) -> Tuple[float, List[str]]:
        """One host-adjusted set-up time: a fresh interpreter's CLI import
        plus ``list_experiments()``, or the cell's construction."""
        base = self._next("setup")
        if self.wl.is_cell:
            argv = [sys.executable, str(CELL), "--seed", str(self.seed),
                    "--build-only"]
        else:
            argv = [sys.executable, "-c", _SETUP_SNIPPET]
        ex, scale = self._run(argv, None, base)
        if ex.code != 0:
            return math.nan, ["set-up: " + f for f in _exit_failures(ex)]
        if self.wl.is_cell:
            return _last_json(Path(f"{base}.out"))["build_s"] * scale, []
        return ex.wall * scale, []

    def op(self, traced: Optional[Path] = None) -> Op:
        """One timed command (with layer wrappers when *traced* is a
        spans directory)."""
        if self.wl.is_cell:
            return self._cell(traced)
        cache = (self.work / "fill-cache" if self.wl.fill
                 else self._next("cache"))
        op = self._cli(cache, traced)
        if self.fill_digest is not None and op.digest != self.fill_digest:
            op.failures.append("digest differs from the fill run")
        return op

    def _child_argv(self, traced: Optional[Path], mode: str,
                    args: List[str]) -> List[str]:
        if traced is not None:
            return [sys.executable, str(TRACED), "--spans", str(traced),
                    mode, *args]
        if mode == "cli":
            return [sys.executable, "-m", "repro.experiments", *args]
        return [sys.executable, str(CELL), *args]

    def _cli(self, cache: Path, traced: Optional[Path]) -> Op:
        out = self._next("out")
        base = self._next("log")
        argv = self._child_argv(traced, "cli",
                                [*self.wl.argv, "--out", str(out)])
        ex, scale = self._run(argv, cache, base)
        op = Op(wall=ex.wall, launch=ex.launch, exit=ex.exit, cpu=ex.cpu,
                rss_mb=ex.rss_mb, scale=scale, failures=_exit_failures(ex))
        stderr = Path(f"{base}.err").read_text(errors="replace")
        op.counts = engine_counts(stderr)
        if not op.counts:
            op.failures.append("no [engine: ...] summary on stderr")
        elif op.counts["cells_failed"]:
            op.failures.append(f"{op.counts['cells_failed']} cells failed")
        if ex.code == 0:
            op.digest = artifact_digest(out)
            op.failures += shape_failures(out)
        shutil.rmtree(out, ignore_errors=True)
        if not self.wl.fill:
            shutil.rmtree(cache, ignore_errors=True)
        return op

    def _cell(self, traced: Optional[Path]) -> Op:
        base = self._next("cell")
        argv = self._child_argv(traced, "cell", ["--seed", str(self.seed)])
        ex, scale = self._run(argv, None, base)
        op = Op(launch=ex.launch, exit=ex.exit, cpu=ex.cpu, rss_mb=ex.rss_mb,
                scale=scale, failures=_exit_failures(ex))
        if ex.code == 0:
            rec = _last_json(Path(f"{base}.out"))
            op.wall, op.setup, op.digest = rec["run_s"], rec["build_s"], rec["digest"]
            op.counts = {"events": rec["events"],
                         "samples_received": rec["samples_received"]}
            if rec["samples_received"] <= 0:
                op.failures.append("big cell received no samples")
        return op


def _exit_failures(ex: Exit) -> List[str]:
    if ex.timed_out:
        return [f"killed at its time limit after {ex.wall:.0f}s"]
    return [f"exited {ex.code}"] if ex.code != 0 else []


def _last_json(path: Path) -> dict:
    return json.loads(path.read_text().strip().splitlines()[-1])


def digest_failures(ops: Sequence[Op]) -> List[int]:
    """Indices of operations whose digest differs from the first one."""
    ref = next((op.digest for op in ops if op.digest), "")
    return [i for i, op in enumerate(ops) if op.digest and op.digest != ref]


def exact_counts(ops: Sequence[Op]) -> Dict[str, int]:
    """The counts of the first successful operation (they repeat)."""
    for op in ops:
        if not op.failures and op.counts:
            return dict(op.counts)
    return {}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and n."""
    vals = [v for v in values if not math.isnan(v)]
    if not vals:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    med = statistics.median(vals)
    q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def op_metrics(ops: Sequence[Op], setups: Sequence[float]) -> Dict[str, list]:
    """Per-operation values of every end-to-end metric, times
    host-adjusted.  *setups* are host-adjusted already."""
    return {
        "wall_s": [op.wall * op.scale for op in ops],
        "setup_s": list(setups),
        "cpu_s": [op.cpu * op.scale for op in ops],
        "peak_rss_mb": [op.rss_mb for op in ops],
    }


# ---------------------------------------------------------------------------
# Traced pass: per-layer metrics
# ---------------------------------------------------------------------------

def span_names() -> List[str]:
    """Span names of traced.py; each yields ``<name>_s`` and ``<name>.calls``."""
    names = list(ROOT_SPANS)
    for _, _, span in TARGETS:
        if span not in names:
            names.append(span)
    return names


#: Kernel event kinds reported on their own; the rest add up in ``other``.
KERNEL_KINDS = ("timeout", "cpudone", "transfer", "queuedtransfer",
                "storeget", "storeput")


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric name -> unit."""
    names: Dict[str, str] = {}
    for span in span_names():
        names[f"{span}_s"] = "s"
        names[f"{span}.calls"] = "count"
    names.update({
        "des.events": "count",
        "des.events_per_s": "1/s",
        "des.enqueues": "count",
        "des.heap_max": "count",
        "des.calendar_cells": "count",
        "variates.draws": "count",
        "engine.cells_run": "count",
        "engine.cache_hits": "count",
        "engine.cell_wall_p50_s": "s",
        "engine.cell_wall_ptail_s": "s",
        "engine.worker_utilization": "ratio",
        "engine.parent_overhead_s": "s",
        "planner.cells_pruned": "count",
        "planner.replications_saved": "count",
        "startup.boot_s": "s",
        "startup.shutdown_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.self_sum_frac": "ratio",
    })
    for kind in (*KERNEL_KINDS, "other"):
        names[f"des.kind.{kind}_s"] = "s"
    for cls in (*PROCESS_CLASSES, "unattributed"):
        names[f"rocc.proc.{cls}_s"] = "s"
    return names


def load_spans(spans_dir: Path) -> List[list]:
    spans = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        spans += [json.loads(line) for line in path.read_text().splitlines()
                  if line.strip()]
    return spans


def self_times(spans: Sequence[list]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``: its duration minus
    the durations of its direct children."""
    own = {(s[0], s[1]): s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] is not None:
            own[(s[0], s[2])] -= s[5] - s[4]
    return own


def _outermost(spans: Sequence[list]) -> List[list]:
    """Spans none of whose ancestors has the same name."""
    by_key = {(s[0], s[1]): s for s in spans}
    out = []
    for s in spans:
        parent = by_key.get((s[0], s[2]))
        while parent is not None and parent[3] != s[3]:
            parent = by_key.get((parent[0], parent[2]))
        if parent is None:
            out.append(s)
    return out


def tail_percentile(n: int) -> float:
    """The highest of a fixed ladder of percentiles that leaves at least ten
    samples beyond it (50 when none does)."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100.0) >= 10:
            return p
    return 50.0


def _percentile(values: Sequence[float], p: float) -> float:
    if not values:
        return 0.0
    vals = sorted(values)
    k = (len(vals) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return vals[lo] + (vals[hi] - vals[lo]) * (k - lo)


def layer_metrics(spans: Sequence[list], op: Op,
                  untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced command *op* (see README).

    *untraced_wall* is the workload's untraced ``wall_s``.  The traced
    process's interpreter boot (launch to its first span) and shutdown
    (its last span to exit) are layers of their own, so that together with
    the spans' self times they cover the process from launch to exit."""
    metrics = {name: 0.0 for name in per_layer_names()}
    own = self_times(spans)
    for s in spans:
        metrics[f"{s[3]}_s"] += own[(s[0], s[1])]
    outer = _outermost(spans)
    for s in outer:
        metrics[f"{s[3]}.calls"] += 1
    for s in spans:
        info = s[6] or {}
        if s[3] == "des.run":
            metrics["des.events"] += info["events"]
            metrics["des.enqueues"] += info["enqueues"]
            metrics["des.heap_max"] = max(metrics["des.heap_max"],
                                          info["heap_max"])
            metrics["des.calendar_cells"] += "calendar" in info["queue"]
            for kind, wall in info["by_kind"].items():
                key = kind if kind in KERNEL_KINDS else "other"
                metrics[f"des.kind.{key}_s"] += wall
            for cls in (*PROCESS_CLASSES, "unattributed"):
                metrics[f"rocc.proc.{cls}_s"] += info["by_class"].get(cls, 0.0)
        elif s[3] == "variates.refill":
            metrics["variates.draws"] += info["n"]
    batches = [s[6] for s in outer if s[3] == "engine.run_cells"]
    busy = sum(b["cell_wall"] for b in batches)
    capacity = sum(b["wall"] * b["workers"] for b in batches)
    metrics["engine.worker_utilization"] = busy / capacity if capacity else 0.0
    metrics["engine.parent_overhead_s"] = sum(
        b["wall"] - b["cell_wall"] / b["workers"] for b in batches)
    cells = [s[5] - s[4] for s in outer if s[3] == "rocc.cell"]
    metrics["engine.cell_wall_p50_s"] = _percentile(cells, 50.0)
    metrics["engine.cell_wall_ptail_s"] = _percentile(
        cells, tail_percentile(len(cells)))
    metrics["engine.cells_run"] = op.counts.get("cells_run", 0)
    metrics["engine.cache_hits"] = op.counts.get("cache_hits", 0)
    metrics["planner.cells_pruned"] = op.counts.get("cells_pruned", 0)
    metrics["planner.replications_saved"] = op.counts.get(
        "replications_saved", 0)
    main_pid = next((s[0] for s in spans if s[3] == "startup.import"), None)
    main = [s for s in spans if s[0] == main_pid]
    if main:
        metrics["startup.boot_s"] = min(s[4] for s in main) - op.launch
        metrics["startup.shutdown_s"] = op.exit - max(s[5] for s in main)
    metrics["des.events_per_s"] = (metrics["des.events"] / untraced_wall
                                   if untraced_wall > 0 else 0.0)
    metrics["trace.wall_s"] = op.wall
    metrics["trace.overhead_frac"] = (op.wall / untraced_wall - 1.0
                                      if untraced_wall > 0 else 0.0)
    covered = (sum(own.values()) + metrics["startup.boot_s"]
               + metrics["startup.shutdown_s"])
    metrics["trace.self_sum_frac"] = covered / (op.exit - op.launch)
    return metrics


def traced_pass(runner: Runner, untraced_wall: float) -> Tuple[Dict[str, float], List[str]]:
    """One traced command of *runner*'s workload; returns its per-layer
    metrics and failures.  *untraced_wall* should come from the untraced
    command run just before, so that host drift stays out of the
    overhead."""
    spans_dir = runner.work / "spans"
    op = runner.op(traced=spans_dir)
    spans = load_spans(spans_dir)
    shutil.rmtree(spans_dir, ignore_errors=True)
    metrics = layer_metrics(spans, op, untraced_wall)
    return metrics, [f"traced: {f}" for f in op.failures]


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------


def host_record() -> Dict[str, object]:
    """Core count, CPU model, Python/numpy versions, commit, load average."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Comparison of two result sets
# ---------------------------------------------------------------------------


def load_bounds() -> Dict[str, dict]:
    """End-to-end metric name -> its BENCHMARK.json entry."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """improved / unchanged / regressed / unresolved for one metric."""
    p, c = summary(parent), summary(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c["median"] - p["median"]) / p["median"]
    spread = (p["q3"] - p["q1"]) / p["median"]
    beats_all = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
    if spread > bound and not beats_all:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(parent: dict, change: dict, bounds: Dict[str, dict]) -> Tuple[List[str], bool]:
    """Rows of the comparison and whether it found a regression."""
    rows, bad = [], False
    for name in sorted(set(parent["workloads"]) & set(change["workloads"])):
        pw, cw = parent["workloads"][name], change["workloads"][name]
        for metric, spec in bounds.items():
            pv = pw["metrics"][metric]["values"]
            cv = cw["metrics"][metric]["values"]
            v = verdict(pv, cv, spec["better"], spec["bound"])
            bad |= v == "regressed"
            rows.append(
                f"{name:14s} {metric:12s} {statistics.median(pv):12.4f} "
                f"{statistics.median(cv):12.4f} {spec['unit']:6s} {v}"
            )
        if cw["failed_frac"] > pw["failed_frac"]:
            bad = True
            rows.append(f"{name:14s} failed_frac  {pw['failed_frac']:.4f} -> "
                        f"{cw['failed_frac']:.4f} regressed")
        if pw["digests"] != cw["digests"]:
            rows.append(f"{name:14s} FLAG artifact digests differ")
        if pw["counts"] != cw["counts"]:
            rows.append(f"{name:14s} FLAG exact counts differ: "
                        f"{pw['counts']} vs {cw['counts']}")
        if pw["digests"] == cw["digests"] and pw["counts"] == cw["counts"]:
            rows.append(f"{name:14s} digests and exact counts identical")
    for name in sorted(set(parent["workloads"]) ^ set(change["workloads"])):
        rows.append(f"{name:14s} FLAG present in only one set")
    return rows, bad
