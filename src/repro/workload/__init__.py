"""``repro.workload`` — traces, NAS profiles, characterization (§2.3).

This package is the measurement substrate: an AIX-like synthetic trace
facility, generative models of the NAS ``pvmbt``/``pvmis`` workloads,
and the Table-1/Table-2 characterization pipeline.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ProcessType": "records",
    "ResourceKind": "records",
    "TraceRecord": "records",
    "TraceFile": "records",
    "AIXTraceFacility": "tracing",
    "TracingConfig": "records",
    "BenchmarkProfile": "nas",
    "ProcessProfile": "nas",
    "PVMBT": "nas",
    "PVMIS": "nas",
    "benchmark_by_name": "nas",
    "WorkloadParameters": "parameters",
    "PAPER_PARAMETERS": "parameters",
    "CPU_QUANTUM_US": "parameters",
    "TYPICAL_SAMPLING_PERIOD_US": "parameters",
    "summarize": "characterize",
    "SummaryTable": "characterize",
    "OccupancyStats": "characterize",
    "fit_requests": "characterize",
    "RequestFit": "characterize",
    "build_parameters": "characterize",
    "characterization": "characterize",
})
