"""Observability: tracing spans, metrics and pluggable event sinks.

A zero-dependency substrate for *seeing* what the quantization pipeline does
while it runs — the convergence behaviour and compression ratios the paper
headlines (Figure 2, Tables II/VII) as live, per-layer measurements instead
of end-to-end numbers.

Quickstart::

    from repro import obs

    with obs.recording(obs.JsonlSink("run.jsonl")):
        quantize_model(model, workers=4)          # instrumented internally

    # later / elsewhere
    print(obs.profile_trace("run.jsonl"))         # per-layer summary table

Instrumented code emits through the module-level helpers — :func:`span`,
:func:`counter`, :func:`gauge`, :func:`histogram`, :func:`trace_event` —
which are no-ops (one truth test) until a sink or scope is installed, and
never perturb results: quantized output is bit-identical with tracing on or
off, at any worker count.  See DESIGN.md §5c for the event schema and the
sink contract.
"""

from repro.obs.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    TraceFormatError,
    canonical_event,
    canonical_events,
    read_trace,
    scan_trace_file,
    validate_event,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramStats,
    MetricsSnapshot,
    SpanStats,
)
from repro.obs.profile import layer_rows, layer_table, profile_trace, summarize
from repro.obs.recorder import (
    Span,
    capture_context,
    counter,
    gauge,
    histogram,
    install,
    installed_sinks,
    recording,
    recording_active,
    scope,
    span,
    trace_event,
    uninstall,
    use_context,
)
from repro.obs.sinks import JsonlSink, MemorySink, Sink, SnapshotSink, SummarySink

__all__ = [
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "TraceFormatError",
    "canonical_event",
    "canonical_events",
    "read_trace",
    "scan_trace_file",
    "validate_event",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "MetricsSnapshot",
    "SpanStats",
    "layer_rows",
    "layer_table",
    "profile_trace",
    "summarize",
    "Span",
    "capture_context",
    "counter",
    "gauge",
    "histogram",
    "install",
    "installed_sinks",
    "recording",
    "recording_active",
    "scope",
    "span",
    "trace_event",
    "uninstall",
    "use_context",
    "JsonlSink",
    "MemorySink",
    "Sink",
    "SnapshotSink",
    "SummarySink",
]
