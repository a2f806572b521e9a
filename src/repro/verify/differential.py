"""Differential verification: one config, two execution paths, no diff.

The simulator carries several knobs that change *how* a run executes
but promise not to change *what* it computes:

* the kernel watchdog — ``max_events`` makes the dispatch loop run in
  chunks with a check between them instead of in one unbounded call;
* engine workers — process-pool scheduling vs the serial loop;
* the cell cache — a result loaded from disk vs freshly computed (the
  warm call must simulate nothing);
* a BF flush timeout under batch size 1 — the flush loop can never see
  a non-empty batch, so enabling it must be a no-op;
* the engine's per-cell deadline — a deadline far above what a run
  needs must leave it untouched, and a plain rerun on the same cache
  must serve it exactly (the deadline does not leak into cache keys);
* the event scheduler's two phases — a run served by the calendar queue
  from its first event, and the default run (heap, promoted to the
  calendar at depth 512), vs a run kept on the reference binary heap
  (the schedule key is a total order, so every correct priority queue
  must pop the identical sequence).

Each checker here executes both sides of one such promise and diffs the
:class:`SimulationResults` field by field (NaN == NaN); any difference
is a :class:`~repro.verify.report.Violation` naming the field.
"""

from __future__ import annotations

import tempfile
from dataclasses import fields
from math import inf, isnan
from typing import Iterable, List, Optional, Tuple

from ..experiments.engine import CellCache, ExperimentEngine
from ..rocc.config import SimulationConfig
from ..rocc.metrics import SimulationResults
from ..rocc.system import ParadynISSystem, simulate
from .report import Violation

__all__ = [
    "diff_results",
    "check_watchdog",
    "check_workers",
    "check_cache",
    "check_bf_flush_noop",
    "check_resilient_engine",
    "check_event_queue",
    "check_planner",
    "differential_checks",
]


def diff_results(
    a: SimulationResults,
    b: SimulationResults,
    ignore: Iterable[str] = (),
) -> List[str]:
    """Field-by-field differences between two results (NaN == NaN)."""
    skip = frozenset(ignore)
    diffs: List[str] = []
    for f in fields(a):
        if f.name in skip:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (isnan(x) and isnan(y)):
                continue
        elif x == y:
            continue
        diffs.append(f"{f.name}: {x!r} != {y!r}")
    return diffs


def _subject(config: SimulationConfig) -> str:
    return (
        f"{config.architecture.value} n={config.nodes} "
        f"b={config.batch_size} seed={config.seed}"
    )


def _diff_violation(invariant: str, config: SimulationConfig,
                    diffs: List[str], what: str) -> Violation:
    shown = "; ".join(diffs[:4])
    more = f" (+{len(diffs) - 4} more fields)" if len(diffs) > 4 else ""
    return Violation(
        invariant=invariant,
        detail=f"{what} changed the results: {shown}{more}",
        subject=_subject(config),
    )


def check_watchdog(config: SimulationConfig) -> List[Violation]:
    """Watchdog-armed run vs the unarmed run.

    A ``max_events`` budget far above what the run needs must not change
    anything: the same dispatch loop runs in chunks of events, and only
    the chunk boundaries where the watchdog checks its bounds differ.
    """
    plain = simulate(config)
    watched = simulate(config.with_(max_events=1_000_000_000))
    diffs = diff_results(plain, watched)
    if diffs:
        return [_diff_violation(
            "differential.watchdog", config, diffs,
            "enabling the event-count watchdog",
        )]
    return []


def check_workers(config: SimulationConfig,
                  repetitions: int = 2) -> List[Violation]:
    """Serial engine vs a two-worker process pool: identical cells."""
    reps = [
        config.with_(replication=config.replication + i)
        for i in range(repetitions)
    ]
    no_cache = CellCache(enabled=False)
    with ExperimentEngine(workers=1, cache=no_cache) as serial:
        expected = serial.run_cells(reps)
    with ExperimentEngine(workers=2, cache=no_cache) as pool:
        actual = pool.run_cells(reps)
    out: List[Violation] = []
    for i, (e, a) in enumerate(zip(expected, actual)):
        diffs = diff_results(e, a)
        if diffs:
            out.append(_diff_violation(
                "differential.workers", reps[i], diffs,
                f"running replication {i} on a worker pool",
            ))
    return out


def check_cache(config: SimulationConfig,
                cache_root: Optional[str] = None) -> List[Violation]:
    """Cold compute-and-store vs warm load: the pickle round-trip is
    exact."""
    created = cache_root is None
    root = cache_root or tempfile.mkdtemp(prefix="repro-verify-cache-")
    try:
        cache = CellCache(root=root, enabled=True)
        with ExperimentEngine(workers=1, cache=cache) as engine:
            (cold,) = engine.run_cells([config])
            ran = engine.stats.cells_run
            (warm,) = engine.run_cells([config])
        out: List[Violation] = []
        diffs = diff_results(cold, warm)
        if diffs:
            out.append(_diff_violation(
                "differential.cache", config, diffs,
                "reloading the run from the cell cache",
            ))
        if engine.stats.cells_run != ran:
            out.append(Violation(
                invariant="differential.cache",
                detail=(
                    f"the warm call simulated {engine.stats.cells_run - ran} "
                    "cell(s) instead of serving the cached one"
                ),
                subject=_subject(config),
            ))
        return out
    finally:
        if created:
            import shutil

            shutil.rmtree(root, ignore_errors=True)


def check_bf_flush_noop(config: SimulationConfig) -> List[Violation]:
    """Under CF (batch size 1) a flush timeout must change nothing.

    The collect loop forwards each sample in the same step that batches
    it, so the flush loop never observes a partial batch; its only
    footprint is extra timer events, which must not perturb the model.
    """
    cf = simulate(config.with_(batch_size=1, batch_flush_timeout=None))
    bf1 = simulate(config.with_(batch_size=1, batch_flush_timeout=50_000.0))
    diffs = diff_results(cf, bf1)
    if diffs:
        return [_diff_violation(
            "differential.bf_flush_noop", config, diffs,
            "a flush timeout under batch size 1",
        )]
    return []


def check_resilient_engine(
    config: SimulationConfig, repetitions: int = 2
) -> List[Violation]:
    """The engine's defaults vs the engine with a per-cell deadline.

    The deadline (set far above what the run needs) arms the kernel
    watchdog *around* the simulation; a healthy run must come out
    bit-identical, and a run with the engine's defaults on the same
    cache must serve every cell from it unchanged — the deadline the
    armed engine ships to its cells must not change their cache keys.
    Together with ``check_watchdog`` this licenses the engine's core
    assumption: a cell computes the same results under a deadline or
    none, so a rerun resumes a sweep on the cache it left.
    """
    reps = [
        config.with_(replication=config.replication + i)
        for i in range(repetitions)
    ]
    no_cache = CellCache(enabled=False)
    with ExperimentEngine(workers=1, cache=no_cache) as plain:
        expected = plain.run_cells(reps)
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        cache = CellCache(root=tmp, enabled=True)
        with ExperimentEngine(
            workers=1, cache=cache, cell_timeout=3600.0,
        ) as armed:
            actual = armed.run_cells(reps)
        with ExperimentEngine(workers=1, cache=cache) as resumed:
            replayed = resumed.run_cells(reps)
    out: List[Violation] = []
    for label, outcomes in (("the armed engine", actual),
                            ("a rerun from its cache", replayed)):
        for i, (e, a) in enumerate(zip(expected, outcomes)):
            diffs = diff_results(e, a)
            if diffs:
                out.append(_diff_violation(
                    "differential.resilience", reps[i], diffs,
                    f"running replication {i} on {label}",
                ))
    if resumed.stats.cells_run:
        out.append(Violation(
            invariant="differential.resilience",
            detail=(
                f"{resumed.stats.cells_run} cells re-run on a rerun from "
                "the armed engine's cache: the deadline changed their keys"
            ),
            subject=_subject(config),
        ))
    return out


def _run_with_promotion(
    config: SimulationConfig, promote_at: Optional[float] = None,
) -> Tuple[SimulationResults, str]:
    """One sequential run whose scheduler promotes at depth *promote_at*.

    The scheduler reads ``queues._PROMOTE_AT`` when the environment is
    built, so pinning it around construction selects a heap-only
    (``inf``) or a calendar-from-the-first-push (``1``) run; ``None``
    keeps the default.  Returns the results and the implementation that
    served the end of the run.
    """
    from ..des import queues

    old = queues._PROMOTE_AT
    if promote_at is not None:
        queues._PROMOTE_AT = promote_at
    try:
        system = ParadynISSystem(config)
    finally:
        queues._PROMOTE_AT = old
    return system.run(), system.env.scheduler.stats()["impl"]


def check_event_queue(config: SimulationConfig) -> List[Violation]:
    """The scheduler's heap and calendar phases are interchangeable.

    The kernel's schedule entry is ``(time, priority, seq, event)`` with
    a monotone unique ``seq``, so the comparison key is a *total* order
    and any correct priority queue must pop entries in exactly the same
    sequence.  This check runs the configuration on the heap alone (the
    reference), on the calendar queue from the first push, and under
    the default policy, and requires bit-identical results.  The forced
    run must end on the calendar: small configurations never reach the
    promotion depth, so without it the check would compare the heap
    with itself.

    The heap/calendar pair is repeated under an armed watchdog, whose
    chunked dispatch re-reads the serving ``pop`` at every chunk
    boundary.
    """
    out: List[Violation] = []

    def compare(cfg: SimulationConfig, ref: SimulationResults,
                promote_at: Optional[float], what: str) -> None:
        alt, impl = _run_with_promotion(cfg, promote_at)
        diffs = diff_results(ref, alt)
        if diffs:
            out.append(_diff_violation(
                "differential.event_queue", cfg, diffs, f"{what} vs the heap",
            ))
        if promote_at == 1 and impl != "auto(calendar)":
            out.append(Violation(
                invariant="differential.event_queue",
                detail=f"{what} ended on {impl}: the calendar went unchecked",
                subject=_subject(cfg),
            ))

    ref, _ = _run_with_promotion(config, inf)
    compare(config, ref, 1, "the calendar queue from the first push")
    compare(config, ref, None, "the default scheduler")

    watched = config.with_(max_events=1_000_000_000)
    ref, _ = _run_with_promotion(watched, inf)
    compare(watched, ref, 1, "the calendar queue under the watchdog")
    return out


def check_planner(config: SimulationConfig,
                  repetitions: int = 2) -> List[Violation]:
    """Planned runs simulate cells bit-identically to unplanned runs.

    The experiment planner (:mod:`repro.planner`) promises that the
    cells it *does* simulate are exactly the cells a fixed-r run would
    have produced — same configs, same seeds, same replication
    numbering — so pruning only ever removes information, never skews
    it.  This check builds a small 2^2 design around *config* (sampling
    period ×1/×8, batch size 1/8), runs it planned and unplanned on
    cache-less engines, and diffs every replication of every cell the
    planner simulated against the unplanned run's.  It also asserts
    that pruned cells are reported as tagged surrogates, never as
    simulation output.
    """
    from ..expdesign.factorial import Factor, FactorialDesign
    from ..experiments.runners import run_design
    from ..experiments.engine import use_engine
    from ..planner import run_planned

    design = FactorialDesign([
        Factor("sampling_period", config.sampling_period,
               config.sampling_period * 8, "B"),
        Factor("batch_size", 1, 8, "C"),
    ])

    def make(run) -> SimulationConfig:
        return config.with_(
            sampling_period=run["sampling_period"],
            batch_size=int(run["batch_size"]),
        )

    no_cache = CellCache(enabled=False)
    with ExperimentEngine(workers=1, cache=no_cache) as plain:
        with use_engine(plain):
            unplanned = run_design(design, make, repetitions=repetitions)
    with ExperimentEngine(workers=1, cache=no_cache) as engine:
        with use_engine(engine):
            planned = run_planned(design, make, repetitions=repetitions)

    out: List[Violation] = []
    for cell in planned.cells:
        if cell.source == "surrogate":
            if cell.results is not None:
                out.append(Violation(
                    invariant="differential.planner",
                    detail=(
                        f"pruned cell {cell.index} carries simulation "
                        "results"
                    ),
                    subject=_subject(config),
                ))
            if "surrogate" not in cell.tag:
                out.append(Violation(
                    invariant="differential.planner",
                    detail=(
                        f"pruned cell {cell.index} is not tagged as a "
                        f"surrogate (tag: {cell.tag!r})"
                    ),
                    subject=_subject(config),
                ))
            continue
        expected = unplanned[cell.index].results
        actual = cell.results.results
        for r, (e, a) in enumerate(zip(expected, actual)):
            diffs = diff_results(e, a)
            if diffs:
                out.append(_diff_violation(
                    "differential.planner", config, diffs,
                    f"planned cell {cell.index} replication {r}",
                ))
        if len(actual) < min(repetitions, len(expected)):
            out.append(Violation(
                invariant="differential.planner",
                detail=(
                    f"planned cell {cell.index} ran {len(actual)} "
                    f"replications, unplanned ran {len(expected)}"
                ),
                subject=_subject(config),
            ))
    return out


def differential_checks(
    config: SimulationConfig,
    include_workers: bool = True,
) -> List[Violation]:
    """Every differential check for one configuration."""
    out: List[Violation] = []
    out.extend(check_watchdog(config))
    out.extend(check_cache(config))
    out.extend(check_bf_flush_noop(config))
    out.extend(check_resilient_engine(config))
    out.extend(check_event_queue(config))
    out.extend(check_planner(config))
    if include_workers:
        out.extend(check_workers(config))
    return out
