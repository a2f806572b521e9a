"""Observability for the reproduction's own runs (spans, metrics, export).

See :mod:`repro.obs.spans` for the tracing model, :mod:`repro.obs.metrics`
for the process-wide metrics registry, and :mod:`repro.obs.export` for the
JSONL / Chrome ``trace_event`` / terminal exporters.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "SIM": "spans",
    "WALL": "spans",
    "CounterSample": "spans",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "Span": "spans",
    "SpanBatch": "spans",
    "Tracer": "spans",
    "chrome_trace": "export",
    "current_tracer": "spans",
    "diff_snapshots": "metrics",
    "export_trace": "export",
    "maybe_span": "spans",
    "registry": "metrics",
    "sim_track_pid": "spans",
    "timed": "metrics",
    "summarize": "export",
    "trace_events": "export",
    "trace_path_from_env": "spans",
    "tracing_enabled": "spans",
    "use_tracing": "spans",
    "validate_trace_events": "export",
    "wall_now_us": "spans",
    "write_chrome_trace": "export",
    "write_jsonl": "export",
})
