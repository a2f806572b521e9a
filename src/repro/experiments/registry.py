"""Registry mapping paper artifacts (table/figure ids) to runners.

Each evaluation artifact of the paper is reproduced by a runner keyed
by its id (``table1`` ... ``figure31``).  :data:`EXPERIMENTS` is the
one table of ids, titles, paper references and ``"module:function"``
runner names: listing or looking up an id imports no runner module, and
a runner's module is imported when the runner is first used.  Runners
accept a ``quick`` flag: ``quick=True`` (the default, used by tests and
the benchmark suite) uses shortened simulated durations and fewer
repetitions; ``quick=False`` runs at paper scale.

Usage::

    from repro.experiments import run, list_experiments

    artifact = run("figure17")
    print(artifact.format())
"""

from __future__ import annotations

import os
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Union

if TYPE_CHECKING:
    from .engine import ExperimentEngine
    from .reporting import Artifact

__all__ = ["Experiment", "EXPERIMENTS", "get", "run", "list_experiments", "REGISTRY"]

#: ``(id, title, paper reference, "module:function")`` of every artifact;
#: the module is relative to :mod:`repro.experiments`.
EXPERIMENTS = (
    ("table1", "Table 1 — occupancy statistics of NAS pvmbt on an SP-2 (synthetic)",
     "Table 1", "workload_exp:table1"),
    ("table2", "Table 2 — fitted ROCC model parameters per process class",
     "Table 2", "workload_exp:table2"),
    ("table3", "Table 3 — model validation: measured vs simulated CPU times",
     "Table 3", "workload_exp:table3"),
    ("figure8", "Figure 8 — histograms, candidate pdfs, and Q-Q plots for the "
     "application's CPU and network request lengths",
     "Figure 8", "workload_exp:figure8"),
    ("figure9", "Figure 9 — analytic NOW metrics vs node count and sampling period",
     "Figure 9", "analytical_exp:figure9"),
    ("figure10", "Figure 10 — analytic NOW metrics vs batch size",
     "Figure 10", "analytical_exp:figure10"),
    ("figure12", "Figure 12 — analytic SMP metrics vs sampling period, 1–4 daemons",
     "Figure 12", "analytical_exp:figure12"),
    ("figure13", "Figure 13 — analytic SMP metrics vs application processes, 1–4 daemons",
     "Figure 13", "analytical_exp:figure13"),
    ("figure14", "Figure 14 — analytic MPP metrics vs sampling period, direct vs tree",
     "Figure 14", "analytical_exp:figure14"),
    ("figure15", "Figure 15 — analytic MPP metrics vs node count, direct vs tree",
     "Figure 15", "analytical_exp:figure15"),
    ("table4", "Table 4 — NOW 2^4 factorial simulation results",
     "Table 4", "now_exp:table4"),
    ("figure16", "Figure 16 — NOW allocation of variation (the paper's PCA)",
     "Figure 16", "now_exp:figure16"),
    ("figure17", "Figure 17 — NOW local detail: Pd CPU time and forwarding throughput",
     "Figure 17", "now_exp:figure17"),
    ("figure18", "Figure 18 — NOW global detail: metrics vs node count and period",
     "Figure 18", "now_exp:figure18"),
    ("figure19", "Figure 19 — NOW batch-size sweep ('what should the batch size be?')",
     "Figure 19", "now_exp:figure19"),
    ("table5", "Table 5 — SMP 2^4 factorial simulation results",
     "Table 5", "smp_exp:table5"),
    ("figure20", "Figure 20 — SMP allocation of variation",
     "Figure 20", "smp_exp:figure20"),
    ("figure21", "Figure 21 — SMP daemon throughput vs CPU count, 1–4 daemons",
     "Figure 21", "smp_exp:figure21"),
    ("figure22", "Figure 22 — SMP metrics vs node (CPU) count, 1–4 daemons",
     "Figure 22", "smp_exp:figure22"),
    ("figure23", "Figure 23 — SMP metrics vs sampling period, 1–4 daemons",
     "Figure 23", "smp_exp:figure23"),
    ("figure24", "Figure 24 — SMP metrics vs application-process count, 1–4 daemons",
     "Figure 24", "smp_exp:figure24"),
    ("table6", "Table 6 — MPP 2^4 factorial simulation results",
     "Table 6", "mpp_exp:table6"),
    ("figure25", "Figure 25 — MPP allocation of variation",
     "Figure 25", "mpp_exp:figure25"),
    ("figure26", "Figure 26 — MPP metrics vs sampling period at n=256 (aggregated)",
     "Figure 26", "mpp_exp:figure26"),
    ("figure27", "Figure 27 — MPP metrics vs node count, direct vs tree forwarding",
     "Figure 27", "mpp_exp:figure27"),
    ("figure28", "Figure 28 — effect of barrier-operation frequency",
     "Figure 28", "mpp_exp:figure28"),
    ("figure30", "Figure 30 + Table 7 — measured CF vs BF overhead, two sampling periods",
     "Figure 30 / Table 7", "validation:figure30"),
    ("figure31", "Figure 31 + Table 8 — application-independence of the BF gain",
     "Figure 31 / Table 8", "validation:figure31"),
    ("planned_now", "Planned NOW factorial — analytic screening + adaptive replication",
     "Table 4 (planned)", "planned_exp:planned_now"),
    ("planned_smp", "Planned SMP factorial — analytic screening + adaptive replication",
     "Table 5 (planned)", "planned_exp:planned_smp"),
    ("planned_mpp", "Planned MPP factorial — analytic screening + adaptive replication",
     "Table 6 (planned)", "planned_exp:planned_mpp"),
    ("planned_validation",
     "Planned testbed factorial — analytic screening + adaptive replication",
     "Figure 30 (planned)", "planned_exp:planned_validation"),
    ("extra_adaptive", "Extension — adaptive IS management holding an overhead budget",
     "§6 discussion (dynamic cost model outlook)", "extras:extra_adaptive"),
    ("extra_perturbation",
     "Extension — instrumentation perturbation across operating points",
     "§1 motivation (10–50 % degradation range)", "extras:extra_perturbation"),
    ("extra_crossvalidation",
     "Extension — operational analysis vs simulation, point by point",
     "§3 (accuracy of the back-of-the-envelope model)",
     "crossval:extra_crossvalidation"),
    ("open_workload", "Open-workload class × node count factorial (beyond the paper)",
     "ROADMAP (open workloads)", "open_workload_exp:open_workload"),
    ("summary", "Reproduction scorecard — every paper claim and its status",
     "whole paper", "summary:summary"),
)


class Experiment:
    """One reproducible paper artifact.

    *runner* is the runner itself or its ``"module:function"`` name
    (module relative to :mod:`repro.experiments`); a name is imported
    on the first use of :attr:`runner`.
    """

    def __init__(self, id: str, title: str, paper_ref: str,
                 runner: Union[Callable[..., "Artifact"], str]):
        self.id = id
        self.title = title
        self.paper_ref = paper_ref
        self._runner = runner

    def __repr__(self) -> str:
        return f"Experiment({self.id!r}, {self.title!r})"

    @property
    def runner(self) -> Callable[..., "Artifact"]:
        """The runner function, importing its module on first access."""
        if isinstance(self._runner, str):
            module, _, name = self._runner.partition(":")
            try:
                self._runner = getattr(
                    import_module(f"{__package__}.{module}"), name
                )
            except Exception as exc:
                raise ImportError(
                    f"experiment {self.id!r}: cannot load its runner "
                    f"{self._runner!r}: {exc}"
                ) from exc
        return self._runner

    @property
    def description(self) -> str:
        """First line of the runner's docstring."""
        return (self.runner.__doc__ or "").strip().split("\n")[0]

    def accepts(self, name: str) -> bool:
        """Whether the runner takes keyword argument *name*."""
        import inspect

        try:
            sig = inspect.signature(self.runner)
        except (TypeError, ValueError):  # builtins / C callables
            return True
        params = sig.parameters.values()
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
            return True
        return any(
            p.name == name
            and p.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
            for p in params
        )

    def _check_kwargs(self, kwargs: Dict) -> None:
        """Fail fast on kwargs the runner does not take.

        Without this, an unknown keyword surfaces as a bare
        ``TypeError`` from deep inside the runner (often only after
        cells already simulated); here it names the experiment and its
        actual signature instead.
        """
        unknown = [k for k in kwargs if not self.accepts(k)]
        if unknown:
            import inspect

            try:
                sig = str(inspect.signature(self.runner))
            except (TypeError, ValueError):  # pragma: no cover
                sig = "(...)"
            raise TypeError(
                f"experiment {self.id!r} got unexpected keyword argument(s) "
                f"{', '.join(sorted(unknown))}; its runner signature is "
                f"{self.runner.__name__}{sig}"
            )

    def run(
        self,
        quick: Optional[bool] = None,
        engine: Optional[ExperimentEngine] = None,
        workers: Optional[int] = None,
        **kwargs,
    ) -> Artifact:
        """Run the experiment, scheduling its cells on an engine.

        *engine* (or a fresh ``ExperimentEngine(workers=workers)`` when
        only *workers* is given) becomes ambient for the runner, so
        every ``replicate``/``sweep``/``run_design`` inside fans out
        through it; the engine-activity delta for this run is appended
        to the artifact's notes.
        """
        from .engine import ExperimentEngine, current_engine, use_engine
        from .reporting import engine_stats_note

        self._check_kwargs(kwargs)
        if quick is None:
            quick = os.environ.get("REPRO_FULL", "") != "1"
        if engine is None:
            engine = (
                ExperimentEngine(workers=workers)
                if workers is not None else current_engine()
            )
        before = engine.stats.copy()
        with use_engine(engine):
            artifact = self.runner(quick=quick, **kwargs)
        delta = engine.stats.since(before)
        if delta.cells_submitted and hasattr(artifact, "notes"):
            artifact.notes.append(engine_stats_note(delta))
        return artifact


def _index(experiments: Iterable[Experiment]) -> Dict[str, Experiment]:
    """Key *experiments* by id; an id may appear only once."""
    index: Dict[str, Experiment] = {}
    for e in experiments:
        if e.id in index:
            raise ValueError(f"experiment {e.id!r} is listed twice")
        index[e.id] = e
    return index


REGISTRY: Dict[str, Experiment] = _index(Experiment(*row) for row in EXPERIMENTS)


def get(id: str) -> Experiment:
    """Look up an experiment by id."""
    try:
        return REGISTRY[id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {id!r}; available: {sorted(REGISTRY)}"
        ) from None


def run(id: str, quick: Optional[bool] = None, **kwargs) -> Artifact:
    """Run the experiment reproducing paper artifact *id*."""
    return get(id).run(quick=quick, **kwargs)


def list_experiments() -> List[Experiment]:
    """All experiments, sorted by id."""
    return [REGISTRY[k] for k in sorted(REGISTRY)]
