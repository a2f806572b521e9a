"""Workload characterization pipeline: traces → Table 1 → Table 2.

Given a trace (real or synthetic), this module computes

* the per-process-class occupancy statistics of **Table 1**
  (:func:`summarize`), and
* fitted request-length distributions of **Table 2**
  (:func:`fit_requests`), using the Law & Kelton MLEs with a
  BIC-based parsimony rule so the nested exponential family wins over
  Weibull when the data are exponential (as the paper concludes for
  network requests), and
* a ready-to-simulate :class:`~repro.workload.parameters.WorkloadParameters`
  (:func:`build_parameters`).

:func:`characterization` runs the whole pipeline for one tracing session
and returns every number Tables 1–3 and Figure 8 report as plain data,
which the experiment layer stores in its cell cache.  The fitting and
goodness-of-fit modules load when a fit runs, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..variates.distributions import Distribution
from .nas import BenchmarkProfile
from .parameters import WorkloadParameters
from .records import ProcessType, ResourceKind, TraceFile, TracingConfig

if TYPE_CHECKING:
    from ..variates.fitting import FitResult

__all__ = [
    "OccupancyStats",
    "SummaryTable",
    "summarize",
    "RequestFit",
    "fit_requests",
    "build_parameters",
    "characterization",
]

#: Free parameters per family, for the BIC parsimony rule.
_N_PARAMS = {"exponential": 1, "weibull": 2, "lognormal": 2}


@dataclass
class OccupancyStats:
    """One cell group of Table 1: moments of request lengths."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def from_data(cls, data: Sequence[float]) -> "OccupancyStats":
        arr = np.asarray(data, dtype=float)
        if arr.size == 0:
            return cls(0, math.nan, math.nan, math.nan, math.nan)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            minimum=float(arr.min()),
            maximum=float(arr.max()),
        )


@dataclass
class SummaryTable:
    """Table 1 analogue: per process class, CPU and network stats."""

    cpu: Dict[ProcessType, OccupancyStats]
    network: Dict[ProcessType, OccupancyStats]

    def row(self, ptype: ProcessType) -> Tuple[OccupancyStats, OccupancyStats]:
        return self.cpu[ptype], self.network[ptype]

    def format(self) -> str:
        """Render in the layout of Table 1 (values in µs)."""
        lines = [
            f"{'Process Type':22s} {'CPU mean':>9s} {'std':>9s} {'min':>7s} "
            f"{'max':>9s} | {'Net mean':>9s} {'std':>8s} {'min':>6s} {'max':>8s}"
        ]
        for ptype in ProcessType:
            c = self.cpu.get(ptype)
            n = self.network.get(ptype)
            if c is None and n is None:
                continue

            def fmt(s: Optional[OccupancyStats]) -> List[str]:
                if s is None or s.count == 0:
                    return ["-"] * 4
                return [
                    f"{s.mean:.0f}",
                    f"{s.std:.0f}",
                    f"{s.minimum:.0f}",
                    f"{s.maximum:.0f}",
                ]

            cf, nf = fmt(c), fmt(n)
            lines.append(
                f"{ptype.value:22s} {cf[0]:>9s} {cf[1]:>9s} {cf[2]:>7s} "
                f"{cf[3]:>9s} | {nf[0]:>9s} {nf[1]:>8s} {nf[2]:>6s} {nf[3]:>8s}"
            )
        return "\n".join(lines)


def summarize(trace: TraceFile) -> SummaryTable:
    """Compute the Table-1 summary statistics from a trace."""
    cpu: Dict[ProcessType, OccupancyStats] = {}
    net: Dict[ProcessType, OccupancyStats] = {}
    for ptype in ProcessType:
        cpu_data = trace.durations(process_type=ptype, resource=ResourceKind.CPU)
        net_data = trace.durations(process_type=ptype, resource=ResourceKind.NETWORK)
        if cpu_data:
            cpu[ptype] = OccupancyStats.from_data(cpu_data)
        if net_data:
            net[ptype] = OccupancyStats.from_data(net_data)
    return SummaryTable(cpu=cpu, network=net)


@dataclass
class RequestFit:
    """Chosen distribution for one (process class, resource) pair."""

    process_type: ProcessType
    resource: ResourceKind
    family: str
    distribution: Distribution
    candidates: List[FitResult]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RequestFit({self.process_type.value}/{self.resource.value}: "
            f"{self.family} {self.distribution!r})"
        )


def _bic(result: FitResult, n: int) -> float:
    return _N_PARAMS[result.family] * math.log(n) - 2.0 * result.loglik


def _select(data: Sequence[float]) -> Tuple[str, Distribution, List[FitResult]]:
    """Fit the Figure-8 candidates and pick by BIC (parsimony-aware)."""
    from ..variates.fitting import fit_best

    _, results = fit_best(data)
    n = len(data)
    best = min(results, key=lambda r: _bic(r, n))
    return best.family, best.distribution, results


def fit_requests(trace: TraceFile) -> List[RequestFit]:
    """Fit request-length distributions per (class, resource) — Table 2."""
    fits: List[RequestFit] = []
    for ptype in ProcessType:
        for resource in (ResourceKind.CPU, ResourceKind.NETWORK):
            data = trace.durations(process_type=ptype, resource=resource)
            if len(data) < 10:
                continue
            family, dist, candidates = _select(data)
            fits.append(
                RequestFit(
                    process_type=ptype,
                    resource=resource,
                    family=family,
                    distribution=dist,
                    candidates=candidates,
                )
            )
    return fits


def build_parameters(trace: TraceFile) -> WorkloadParameters:
    """Construct ROCC simulation parameters from a trace.

    Mirrors §2.4 of the paper: distribution fits for request lengths;
    classes missing from the trace keep their Table-2 defaults.
    """
    fits = {(f.process_type, f.resource): f.distribution for f in fit_requests(trace)}
    params = WorkloadParameters()

    def get(ptype: ProcessType, res: ResourceKind, default: Distribution) -> Distribution:
        return fits.get((ptype, res), default)

    params.app_cpu = get(ProcessType.APPLICATION, ResourceKind.CPU, params.app_cpu)
    params.app_network = get(
        ProcessType.APPLICATION, ResourceKind.NETWORK, params.app_network
    )
    params.pd_cpu = get(ProcessType.PARADYN_DAEMON, ResourceKind.CPU, params.pd_cpu)
    params.pd_network = get(
        ProcessType.PARADYN_DAEMON, ResourceKind.NETWORK, params.pd_network
    )
    params.pvmd_cpu = get(ProcessType.PVM_DAEMON, ResourceKind.CPU, params.pvmd_cpu)
    params.pvmd_network = get(
        ProcessType.PVM_DAEMON, ResourceKind.NETWORK, params.pvmd_network
    )
    params.other_cpu = get(ProcessType.OTHER, ResourceKind.CPU, params.other_cpu)
    params.other_network = get(
        ProcessType.OTHER, ResourceKind.NETWORK, params.other_network
    )
    params.main_cpu = get(ProcessType.PARADYN_MAIN, ResourceKind.CPU, params.main_cpu)
    params.main_network = get(
        ProcessType.PARADYN_MAIN, ResourceKind.NETWORK, params.main_network
    )
    params.pdm_cpu = params.pd_cpu
    return params


def characterization(
    config: TracingConfig, benchmark: BenchmarkProfile
) -> Dict[str, Any]:
    """Trace *benchmark* under *config* and characterize the trace.

    Returns plain data (dicts, lists, strings and numbers) so that the
    record pickles into the cell cache and reads back without loading
    the tracing, fitting or goodness-of-fit code:

    * ``summary`` — Table 1: ``{process: {resource: OccupancyStats
      fields}}`` for every (class, resource) pair the trace holds;
    * ``busy`` — ``{process: {resource: total occupancy, µs}}``, the
      "measurement" of Table 3;
    * ``fits`` — Table 2 rows ``[process, resource, family, mean, std]``;
    * ``figure8`` — ``{resource: panel}`` for the application's requests.
      A panel holds the candidate fits as rows ``[family, loglik, ks,
      mean, std]`` by descending log-likelihood, the likelihood winner
      ``best``, the histogram's bin ``centers`` and ``observed``
      densities, each candidate's pdf at the centers (``pdfs``), and the
      Q-Q ``linearity``, ``tail_deviation`` and ``n`` against ``best``.
    """
    from .tracing import AIXTraceFacility

    trace = AIXTraceFacility(benchmark, config).trace()
    summary = summarize(trace)
    record: Dict[str, Any] = {"summary": {}, "busy": {}, "fits": [], "figure8": {}}
    for ptype in ProcessType:
        for resource, stats in ((ResourceKind.CPU, summary.cpu),
                                (ResourceKind.NETWORK, summary.network)):
            if ptype in stats:
                record["summary"].setdefault(ptype.value, {})[
                    resource.value] = asdict(stats[ptype])
            record["busy"].setdefault(ptype.value, {})[resource.value] = (
                float(trace.busy_time(process_type=ptype, resource=resource))
            )
    for fit in fit_requests(trace):
        record["fits"].append([
            fit.process_type.value, fit.resource.value, fit.family,
            float(fit.distribution.mean), float(fit.distribution.std),
        ])
        if fit.process_type is ProcessType.APPLICATION:
            data = trace.durations(process_type=fit.process_type,
                                   resource=fit.resource)
            record["figure8"][fit.resource.value] = _figure8_panel(
                data, fit.candidates)
    return record


def _figure8_panel(data: Sequence[float],
                   candidates: List["FitResult"]) -> Dict[str, Any]:
    """Figure 8's numbers for one request class (see :func:`characterization`)."""
    from ..variates.goodness import histogram_series, qq_series

    best = max(candidates, key=lambda r: r.loglik)
    hist = histogram_series(
        data, {r.family: r.distribution for r in candidates}, n_bins=24
    )
    centers = (hist.edges[:-1] + hist.edges[1:]) / 2.0
    qq = qq_series(data, best.distribution)
    return {
        "candidates": [
            [r.family, float(r.loglik), float(r.ks_statistic),
             float(r.distribution.mean), float(r.distribution.std)]
            for r in sorted(candidates, key=lambda r: -r.loglik)
        ],
        "best": best.family,
        "centers": [float(c) for c in centers],
        "observed": [float(f) for f in hist.frequencies],
        "pdfs": {
            fam: [float(v) for v in np.interp(centers, hist.pdf_x, curve)]
            for fam, curve in hist.pdf_curves.items()
        },
        "linearity": qq.linearity(),
        "tail_deviation": qq.max_tail_deviation(),
        "n": len(data),
    }
