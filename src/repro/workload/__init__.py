"""``repro.workload`` — traces, NAS profiles, characterization (§2.3).

This package is the measurement substrate: an AIX-like synthetic trace
facility, generative models of the NAS ``pvmbt``/``pvmis`` workloads,
the Table-1/Table-2 characterization pipeline, and the process state
machines of Figures 6 and 7.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ProcessType": "records",
    "ResourceKind": "records",
    "TraceRecord": "records",
    "TraceFile": "records",
    "AIXTraceFacility": "tracing",
    "TracingConfig": "tracing",
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
    "build_empirical_parameters": "characterize",
    "DetailedState": "process_model",
    "SimpleState": "process_model",
    "DETAILED_TRANSITIONS": "process_model",
    "ProcessStateMachine": "process_model",
    "simplify": "process_model",
    "legal_sequence": "process_model",
})
