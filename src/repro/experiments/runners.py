"""Shared utilities for experiment runners: sweeps, repetitions, means.

The paper runs every cell of a design r times and reports means within
90 % confidence intervals; :func:`replicate` does the same, reusing the
simulator with distinct replication substreams so repetitions are
independent but comparisons across factor levels share random numbers
(common random numbers, the variance-reduction the factorial design
relies on).

All cells are submitted through the ambient
:class:`~repro.experiments.engine.ExperimentEngine` (see
:func:`~repro.experiments.engine.use_engine`): :func:`sweep` and
:func:`run_design` flatten every ``(value, replication)`` pair into one
batch so a multi-worker engine can overlap all of them, and finished
cells are memoized in the engine's content-addressed cache, the moment
each finishes, so rerunning an interrupted sweep runs only the rest.

When the ambient engine is given a deadline, the same batch gets it
per cell — no runner changes needed.  A cell runs once per run: under
``strict=False`` a failed cell arrives here as a :class:`CellError`
artifact, so sweeps return partial :class:`MeanResults` — the numeric
means skip the lost replications and the failures ride along in
``errors`` — and the engine's ``failure_report`` lists them.
Rerunning on the cache simulates only the lost cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..expdesign.factorial import FactorialDesign
from ..rocc.config import SimulationConfig
from ..rocc.metrics import SimulationResults
from .engine import CellError, ExperimentEngine, current_engine

__all__ = [
    "CellError",
    "MeanResults",
    "mean",
    "replicate",
    "metric_series",
    "sweep",
    "run_design",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of the floats *values*, bit for bit what
    ``statistics.mean`` returns, without importing ``statistics`` (and
    its ``fractions`` and ``decimal``).

    Every finite float is exactly ``p / 2**e`` (``as_integer_ratio``):
    the numerators are summed exactly over the largest denominator, and
    one ``int / int`` division, which Python rounds correctly, gives the
    mean.  As in ``statistics.mean``, any NaN or infinity makes the
    result the sum of the non-finite values over ``n``, and an empty
    input raises ``ValueError``.
    """
    n = len(values)
    if n == 0:
        raise ValueError("mean requires at least one data point")
    special = [v for v in values if not math.isfinite(v)]
    if special:
        return sum(special) / n
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return sum(p * (den // d) for p, d in ratios) / (den * n)


#: SimulationResults fields averaged by :func:`replicate`.
_NUMERIC_FIELDS = [
    "pd_cpu_time_per_node",
    "main_cpu_time",
    "pvmd_cpu_time_per_node",
    "other_cpu_time_per_node",
    "app_cpu_time_per_node",
    "node0_pd_cpu_time",
    "node0_app_cpu_time",
    "pd_cpu_utilization_per_node",
    "app_cpu_utilization_per_node",
    "main_cpu_utilization",
    "is_cpu_utilization_per_node",
    "network_utilization",
    "pd_network_utilization",
    "monitoring_latency_forwarding",
    "monitoring_latency_total",
    "throughput_per_daemon",
    "received_throughput",
    "forward_calls_per_node",
    "pipe_blocked_time",
    "barrier_wait_time",
]


@dataclass
class MeanResults:
    """Replication means of a run, plus the raw per-rep results.

    Results are immutable post-construction, so numeric means computed
    by ``__getattr__`` are memoized onto the instance: the first read of
    e.g. ``pd_cpu_time_per_node`` averages the replications, subsequent
    reads are plain attribute lookups (reporting code touches the same
    handful of metrics hundreds of times per artifact).
    """

    results: List[SimulationResults]
    #: Replications that crashed (only populated by an engine built
    #: with ``strict=False``).
    errors: List[CellError] = field(default_factory=list)

    def __getattr__(self, name: str):
        # Average numeric metrics; fall back to the first repetition for
        # everything else (config_summary, counters).  Unknown names must
        # raise AttributeError — never IndexError or recursion — so that
        # hasattr(), copy, and pickling behave.
        if name.startswith("_") or name in ("results", "errors"):
            # Dunder/protocol probes (__getstate__, __deepcopy__, ...)
            # and dataclass fields that genuinely are missing must not
            # be forwarded to the repetition results.
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        reps = object.__getattribute__(self, "results")
        if name in _NUMERIC_FIELDS:
            vals = [getattr(r, name) for r in reps]
            vals = [v for v in vals if v == v]  # drop NaN
            value = mean(vals) if vals else float("nan")
            # Memoize: results never change after construction, so the
            # instance attribute shadows __getattr__ from now on.
            object.__setattr__(self, name, value)
            return value
        if not reps:
            raise AttributeError(
                f"{type(self).__name__!r} has no successful repetitions to "
                f"read {name!r} from (all replications failed?)"
            )
        try:
            return getattr(reps[0], name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    def raw(self, name: str) -> List[float]:
        """Per-repetition values of one metric."""
        return [getattr(r, name) for r in self.results]

    def mean_ci(self, name: str, level: float = 0.90):
        """t-based CI of one metric over the successful replications.

        Failed replications (``errors``) never contribute — they hold no
        results — and non-finite per-rep values are excluded the same way
        the plain means drop NaN.  Fewer than two finite observations
        yield a *degenerate* interval (infinite half-width) rather than
        an error — a CI from one point is uninformative, not zero-width.
        """
        from ..expdesign.confidence import mean_confidence_interval

        return mean_confidence_interval(self.raw(name), level=level)

    # Derived conveniences mirroring SimulationResults.
    @property
    def pd_cpu_seconds_per_node(self) -> float:
        return self.pd_cpu_time_per_node / 1e6

    @property
    def main_cpu_seconds(self) -> float:
        return self.main_cpu_time / 1e6

    @property
    def is_cpu_seconds_per_node(self) -> float:
        return (self.pd_cpu_time_per_node + self.main_cpu_time / self.nodes) / 1e6

    @property
    def monitoring_latency_forwarding_ms(self) -> float:
        return self.monitoring_latency_forwarding / 1e3

    @property
    def monitoring_latency_total_ms(self) -> float:
        return self.monitoring_latency_total / 1e3


def _rep_configs(config: SimulationConfig, repetitions: int) -> List[SimulationConfig]:
    return [
        config.with_(replication=config.replication + i)
        for i in range(repetitions)
    ]


def _gather(outcomes: Sequence) -> MeanResults:
    results = [o for o in outcomes if isinstance(o, SimulationResults)]
    errors = [o for o in outcomes if isinstance(o, CellError)]
    return MeanResults(results, errors)


def replicate(
    config: SimulationConfig,
    repetitions: int = 3,
    aggregated: bool = False,
    engine: Optional[ExperimentEngine] = None,
) -> MeanResults:
    """Run *repetitions* independent replications of *config*.

    Cells go through *engine* (default: the ambient engine), which may
    run them in parallel and serve repeats from its cell cache.  An
    engine built with ``strict=False`` captures a crashing replication
    (including a watchdog-aborted one) as a :class:`CellError` instead
    of propagating it, so long factorial sweeps survive one bad cell.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    engine = engine or current_engine()
    outcomes = engine.run_cells(
        _rep_configs(config, repetitions), aggregated=aggregated
    )
    return _gather(outcomes)


def _run_grouped(
    engine: ExperimentEngine,
    groups: Sequence[List[SimulationConfig]],
    aggregated: bool,
) -> List[MeanResults]:
    """Run several cell groups as one flat engine batch, then regroup."""
    flat = [config for configs in groups for config in configs]
    outcomes = engine.run_cells(flat, aggregated=aggregated)
    cells: List[MeanResults] = []
    start = 0
    for configs in groups:
        cells.append(_gather(outcomes[start:start + len(configs)]))
        start += len(configs)
    return cells


def sweep(
    base: SimulationConfig,
    parameter: str,
    values: Sequence,
    repetitions: int = 3,
    aggregated: bool = False,
    engine: Optional[ExperimentEngine] = None,
    **extra,
) -> List[MeanResults]:
    """Replicate *base* once per value of *parameter*.

    Every ``(value, replication)`` cell of the sweep is submitted to the
    engine as one batch, so a multi-worker engine overlaps the whole
    sweep.  An invalid value raises ``ValueError`` before any cell is
    submitted.  On an engine built with ``strict=False`` every cell
    completes (possibly with an empty ``results`` list and the failure
    recorded in ``errors``), so a sweep returns one :class:`MeanResults`
    per value.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    valid = {f.name for f in fields(SimulationConfig)}
    if parameter not in valid:
        raise ValueError(f"unknown config parameter {parameter!r}")
    unknown = sorted(set(extra) - valid)
    if unknown:
        raise ValueError(
            f"unknown config parameter(s) in extras: {', '.join(map(repr, unknown))}"
        )
    engine = engine or current_engine()
    groups = [
        _rep_configs(base.with_(**{parameter: v}, **extra), repetitions)
        for v in values
    ]
    return _run_grouped(engine, groups, aggregated)


def run_design(
    design: FactorialDesign,
    make_config: Callable[[Dict[str, Any]], SimulationConfig],
    repetitions: int = 3,
    aggregated: bool = False,
    engine: Optional[ExperimentEngine] = None,
) -> List[MeanResults]:
    """Run a full 2^k·r factorial design through the engine.

    *make_config* maps one run's ``{factor name: value}`` dict to a
    :class:`SimulationConfig`.  All ``2^k × repetitions`` cells are
    submitted as a single batch (maximal overlap on a parallel engine);
    the returned list holds one :class:`MeanResults` per run, in the
    design's standard (Yates) order.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    engine = engine or current_engine()
    groups = [
        _rep_configs(cfg, repetitions) for cfg in design.configs(make_config)
    ]
    return _run_grouped(engine, groups, aggregated)


def metric_series(
    runs: Sequence[MeanResults], metric: str
) -> List[float]:
    """Extract one metric across a sweep."""
    return [getattr(r, metric) for r in runs]
