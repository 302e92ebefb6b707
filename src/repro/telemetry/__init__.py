"""Unified telemetry: metrics registry, spans, exporters, run reports.

The package sits below every instrumented layer (sim, net, core, energy,
multicast, orchestrator, serve, obs) and imports none of them —
subsystems hand it plain values and duck-typed stats objects.

It owns the pieces simulation and service tracing share: the one span
type and record format (:class:`Span`), the one bounded ring
(:class:`SpanBuffer`), the sim-clock :class:`SpanTracer`, the one JSONL
codec (:func:`write_jsonl` / :func:`read_jsonl`) and the one Perfetto
exporter (:func:`write_perfetto_json`).  A sim trace is dumped with
``write_jsonl(path, (s.as_record() for s in team.telemetry.tracer))``
and read back by ``repro trace`` like a serve trace.
"""

from repro.telemetry.collect import (
    DEFAULT_MAX_SPANS,
    Telemetry,
    collect_team_snapshot,
)
from repro.telemetry.export import (
    JsonlRecords,
    append_jsonl,
    perfetto_trace_events,
    prometheus_text,
    read_jsonl,
    write_jsonl,
    write_perfetto_json,
)
from repro.telemetry.registry import (
    COUNT_EDGES,
    DISTANCE_EDGES_M,
    DURATION_EDGES_S,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    global_registry,
    set_global_registry,
)
from repro.telemetry.report import render_report
from repro.telemetry.snapshot import (
    LAST_METRICS,
    MAX_METRICS,
    TelemetrySnapshot,
    merge_snapshots,
)
from repro.telemetry.spans import (
    Span,
    SpanBuffer,
    SpanRecordError,
    SpanTracer,
)

__all__ = [
    "Telemetry",
    "collect_team_snapshot",
    "DEFAULT_MAX_SPANS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "global_registry",
    "set_global_registry",
    "DURATION_EDGES_S",
    "DISTANCE_EDGES_M",
    "COUNT_EDGES",
    "Span",
    "SpanBuffer",
    "SpanRecordError",
    "SpanTracer",
    "TelemetrySnapshot",
    "merge_snapshots",
    "MAX_METRICS",
    "LAST_METRICS",
    "JsonlRecords",
    "append_jsonl",
    "write_jsonl",
    "read_jsonl",
    "prometheus_text",
    "perfetto_trace_events",
    "write_perfetto_json",
    "render_report",
]
