"""Differential verification: one config, two execution paths, no diff.

The simulator carries several knobs that change *how* a run executes
but promise not to change *what* it computes:

* the kernel watchdog — ``max_events`` forces the ``step()`` loop
  instead of the inlined ``_run_inner``;
* engine workers — process-pool scheduling vs the serial loop;
* the cell cache — a result loaded from disk vs freshly computed;
* a BF flush timeout under batch size 1 — the flush loop can never see
  a non-empty batch, so enabling it must be a no-op;
* the engine's failure machinery — armed retries, a generous per-cell
  deadline and a run journal around a run that needs none of them
  must leave it untouched, and a journal resume must replay it exactly;
* the event scheduler's two phases — a run served by the calendar queue
  from its first event, and the default run (heap, promoted to the
  calendar at depth 512), vs a run kept on the reference binary heap
  (the schedule key is a total order, so every correct priority queue
  must pop the identical sequence);
* ``REPRO_DES_PARALLEL`` / ``lp_workers`` — the partitioned parallel
  kernel vs the sequential kernel (bit-identical up to a handful of
  re-associated float sums), including its sequential fallback on
  ineligible configurations.

Each checker here executes both sides of one such promise and diffs the
:class:`SimulationResults` field by field (NaN == NaN); any difference
is a :class:`~repro.verify.report.Violation` naming the field.
"""

from __future__ import annotations

import tempfile
from dataclasses import fields
from math import inf, isnan
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from ..experiments.engine import CellCache, ExperimentEngine
from ..rocc.config import (
    Architecture,
    ForwardingTopology,
    NetworkMode,
    SimulationConfig,
)
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
    "check_parallel_kernel",
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
    """Watchdog-instrumented ``step()`` loop vs the inlined run loop.

    A ``max_events`` budget far above what the run needs must not change
    anything — only the dispatch loop differs.
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
            (warm,) = engine.run_cells([config])
        diffs = diff_results(cold, warm)
        if diffs:
            return [_diff_violation(
                "differential.cache", config, diffs,
                "reloading the run from the cell cache",
            )]
        return []
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
    """The engine's defaults vs the engine with its failure machinery on.

    Retries, the per-cell deadline (set far above what the run needs),
    the run journal and the attempt accounting wrap *around* the
    simulation; a healthy run must come out bit-identical, and a second
    run on the same journal must serve every cell from it unchanged.
    Together with ``check_watchdog`` this licenses the engine's core
    assumption: re-executing a cell under a deadline yields the same
    results as the first try.
    """
    from ..experiments.resilience import RetryPolicy

    reps = [
        config.with_(replication=config.replication + i)
        for i in range(repetitions)
    ]
    no_cache = CellCache(enabled=False)
    with ExperimentEngine(workers=1, cache=no_cache) as plain:
        expected = plain.run_cells(reps)
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        journal = Path(tmp) / "run.jsonl"
        armed = dict(workers=1, cache=no_cache, journal=journal,
                     retry=RetryPolicy(max_attempts=3), cell_timeout=3600.0)
        with ExperimentEngine(**armed) as resilient:
            actual = resilient.run_cells(reps)
        with ExperimentEngine(**armed) as resumed:
            replayed = resumed.run_cells(reps)
    out: List[Violation] = []
    for label, outcomes in (("the armed engine", actual),
                            ("a journal resume", replayed)):
        for i, (e, a) in enumerate(zip(expected, outcomes)):
            diffs = diff_results(e, a)
            if diffs:
                out.append(_diff_violation(
                    "differential.resilience", reps[i], diffs,
                    f"running replication {i} on {label}",
                ))
    stats = resilient.stats
    if stats.retries or stats.cell_timeouts or resumed.stats.cells_run:
        out.append(Violation(
            invariant="differential.resilience",
            detail=(
                "a healthy run consumed resilience machinery: "
                f"{stats.retries} retries, {stats.cell_timeouts} deadline "
                f"breaches, {resumed.stats.cells_run} cells re-run on resume"
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

    The heap/calendar pair is repeated under the watchdog ``step()``
    loop, which dequeues through the scheduler rather than the cached
    ``pop`` of the plain run loop.
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


#: Result fields the parallel kernel may differ on in the last ulp:
#: their sequential values accumulate floats across all nodes in one
#: global completion-time order, while a partitioned run adds per-LP
#: partial sums — float addition does not associate.  Everything else
#: must be bit-identical (per-node busy times are keyed by node, and
#: latency tallies live wholly on the main LP).
_PARALLEL_ULP_FIELDS = (
    "network_utilization",
    "pd_network_utilization",
    "pipe_blocked_time",
)

_PARALLEL_REL_TOL = 1e-9


def check_parallel_kernel(config: SimulationConfig) -> List[Violation]:
    """The partitioned parallel kernel reproduces the sequential kernel.

    Eligible configurations (contention-free network, direct
    forwarding, no global couplers) run under K ∈ {2, 4} LP workers and
    must match the sequential results bit-for-bit, except for the few
    re-associated float sums in :data:`_PARALLEL_ULP_FIELDS`, which get
    a 1e-9 relative tolerance.  Ineligible configurations (tree
    forwarding, barriers) must fall back to the sequential kernel and
    therefore match *exactly*.
    """
    from ..rocc.partition import parallel_ineligibility

    out: List[Violation] = []

    def compare(cfg: SimulationConfig, k: int, what: str,
                exact: bool) -> None:
        seq = simulate(cfg)
        par = simulate(cfg, lp_workers=k)
        ignore = ("observability",) if exact else (
            ("observability",) + _PARALLEL_ULP_FIELDS
        )
        diffs = diff_results(seq, par, ignore=ignore)
        if not exact:
            for f in _PARALLEL_ULP_FIELDS:
                a, b = getattr(seq, f), getattr(par, f)
                if a == b:
                    continue
                scale = max(abs(a), abs(b))
                if scale == 0.0 or abs(a - b) / scale > _PARALLEL_REL_TOL:
                    diffs.append(f"{f}: {a!r} !~ {b!r} (rel tol 1e-9)")
        if diffs:
            out.append(_diff_violation(
                "differential.parallel_kernel", cfg, diffs, what,
            ))

    if parallel_ineligibility(config) is None:
        for k in (2, 4):
            compare(config, k, f"running on {k} LP workers", exact=False)
    else:
        compare(config, 2, "the sequential fallback", exact=True)
        # If only the network model blocks partitioning (the shared-
        # Ethernet NOW default), flip to contention-free so every
        # battery run still exercises the real parallel path.
        cf = config.with_(network_mode=NetworkMode.CONTENTION_FREE)
        if parallel_ineligibility(cf) is None:
            for k in (2, 4):
                compare(cf, k,
                        f"running the CF variant on {k} LP workers",
                        exact=False)

    # Ineligible variants must take the sequential fallback untouched.
    barriered = config.with_(barrier_period=10_000.0)
    compare(barriered, 4, "the barrier fallback", exact=True)
    if config.nodes > 1 and config.architecture is Architecture.MPP:
        treed = config.with_(forwarding=ForwardingTopology.TREE)
        compare(treed, 4, "the tree-forwarding fallback", exact=True)
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
    out.extend(check_parallel_kernel(config))
    out.extend(check_planner(config))
    if include_workers:
        out.extend(check_workers(config))
    return out
