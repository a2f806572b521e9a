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
memoized on disk by a content-addressed cell cache, from which a rerun
resumes an interrupted sweep or one that lost cells; a per-cell
deadline is an opt-in engine parameter:

>>> from repro.experiments import ExperimentEngine, use_engine, sweep
>>> with use_engine(ExperimentEngine(workers=4)) as eng:   # doctest: +SKIP
...     cells = sweep(cfg, "nodes", [2, 4, 8, 16])
...     print(eng.stats.summary())
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "run": "registry",
    "get": "registry",
    "list_experiments": "registry",
    "Experiment": "registry",
    "Table": "reporting",
    "SeriesSet": "reporting",
    "ArtifactGroup": "reporting",
    "replicate": "runners",
    "sweep": "runners",
    "run_design": "runners",
    "metric_series": "runners",
    "MeanResults": "runners",
    "CellError": "engine",
    "ExperimentEngine": "engine",
    "EngineStats": "engine",
    "CellCache": "engine",
    "config_fingerprint": "engine",
    "results_equal": "engine",
    "current_engine": "engine",
    "use_engine": "engine",
})
