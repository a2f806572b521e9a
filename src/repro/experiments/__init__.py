"""``repro.experiments`` — per-table / per-figure reproduction harness.

Every evaluation artifact of the paper has a registered runner:

>>> from repro.experiments import run, list_experiments
>>> for e in list_experiments():
...     print(e.id, "-", e.title)          # doctest: +SKIP
>>> print(run("table3").format())          # doctest: +SKIP

Or from the command line::

    python -m repro.experiments list
    python -m repro.experiments figure17
    python -m repro.experiments all --full

Cells (one simulation per ``(config, replication)`` pair) are scheduled
by an :class:`~repro.experiments.engine.ExperimentEngine` — parallel
across processes when ``workers > 1`` (or ``REPRO_WORKERS`` is set) and
memoized on disk by a content-addressed cell cache; retries, per-cell
deadlines and a resumable run journal are opt-in engine parameters:

>>> from repro.experiments import ExperimentEngine, use_engine, sweep
>>> with use_engine(ExperimentEngine(workers=4)) as eng:   # doctest: +SKIP
...     cells = sweep(cfg, "nodes", [2, 4, 8, 16])
...     print(eng.stats.summary())
"""

from .engine import (
    CellCache,
    CellError,
    EngineStats,
    ExperimentEngine,
    config_fingerprint,
    current_engine,
    results_equal,
    use_engine,
)
from .registry import Experiment, get, list_experiments, run
from .reporting import (
    ArtifactGroup,
    SeriesSet,
    Table,
    engine_stats_table,
    failure_report_table,
)
from .resilience import FailureReport, RetryPolicy, RunJournal
from .runners import MeanResults, metric_series, replicate, run_design, sweep

__all__ = [
    "run",
    "get",
    "list_experiments",
    "Experiment",
    "Table",
    "SeriesSet",
    "ArtifactGroup",
    "replicate",
    "sweep",
    "run_design",
    "metric_series",
    "MeanResults",
    "CellError",
    "ExperimentEngine",
    "RetryPolicy",
    "RunJournal",
    "FailureReport",
    "EngineStats",
    "CellCache",
    "config_fingerprint",
    "results_equal",
    "current_engine",
    "use_engine",
    "engine_stats_table",
    "failure_report_table",
]
