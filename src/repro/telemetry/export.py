"""Exporters: the one JSONL codec, Prometheus text and Perfetto JSON.

- :func:`write_jsonl` / :func:`append_jsonl` / :func:`read_jsonl` — the
  line-per-record stream every JSONL file in the project uses: sweep
  telemetry, trace dumps (:meth:`~repro.telemetry.spans.Span.as_record`
  lines), the serve ops log, replay logs and the chaos journal.  Keys
  are sorted so diffs are stable.
- :func:`prometheus_text` — the ``# TYPE``-annotated exposition format,
  for scraping a dump into existing dashboards.
- :func:`perfetto_trace_events` / :func:`write_perfetto_json` — spans of
  either clock as a Chrome/Perfetto ``trace_event`` document.
- the human-readable run report lives in
  :mod:`repro.telemetry.report` (it needs rendering policy, not just
  serialization).
"""

from __future__ import annotations

import json
import re
from typing import IO, Any, Dict, Iterable, List, Mapping, Tuple, Union

from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import Span

__all__ = [
    "JsonlRecords",
    "append_jsonl",
    "write_jsonl",
    "read_jsonl",
    "prometheus_text",
    "perfetto_trace_events",
    "write_perfetto_json",
]

_INVALID_PROM_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _dump(record: Mapping) -> str:
    return json.dumps(record, sort_keys=True, default=str)


def append_jsonl(handle: IO[str], records: Iterable[Mapping]) -> int:
    """Write ``records`` as JSON lines to an open handle; returns the
    record count."""
    n = 0
    for record in records:
        handle.write(_dump(record) + "\n")
        n += 1
    return n


def write_jsonl(path, records: Iterable[Mapping], mode: str = "w") -> int:
    """Write (or with ``mode='a'`` append) JSON lines to ``path``."""
    with open(path, mode, encoding="utf-8") as handle:
        return append_jsonl(handle, records)


class JsonlRecords(list):
    """:func:`read_jsonl`'s records, plus :attr:`skipped`: how many
    non-blank lines were not a JSON object and were left out."""

    skipped = 0


def read_jsonl(path) -> JsonlRecords:
    """Parse a JSONL file, skipping blank and corrupt lines (best effort —
    a half-written tail line must not take a report down with it).
    Readers that must not lose data check ``.skipped``."""
    out = JsonlRecords()
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except (ValueError, RecursionError):  # not JSON, not text
                record = None
            if isinstance(record, dict):
                out.append(record)
            else:
                out.skipped += 1
    return out


def _prom_name(name: str, prefix: str) -> str:
    return _INVALID_PROM_CHARS.sub("_", prefix + name)


def _prom_type(name: str) -> str:
    """Classify a flattened metric name for the ``# TYPE`` annotation."""
    if name.endswith(("_p50", "_p90", "_fraction", "_depth", "_rate")):
        return "gauge"
    if name.startswith(("run_", "sim_max")):
        return "gauge"
    return "counter"


def prometheus_text(
    source: Union[TelemetrySnapshot, MetricsRegistry, Mapping[str, float]],
    prefix: str = "repro_",
) -> str:
    """Render metrics in the Prometheus exposition format.

    Accepts a snapshot, a registry (whose histograms keep their bucket
    counts and are rendered with ``le`` labels) or any flat mapping.
    """
    lines: List[str] = []
    histograms: List[Histogram] = []
    if isinstance(source, MetricsRegistry):
        metrics = source.metrics()
        histograms = list(source._histograms.values())
        hist_flat_suffixes = ("_count", "_sum", "_p50", "_p90")
        hist_names = {h.name for h in histograms}
        metrics = {
            name: value
            for name, value in metrics.items()
            if not (
                name.endswith(hist_flat_suffixes)
                and name.rsplit("_", 1)[0] in hist_names
            )
        }
    elif isinstance(source, TelemetrySnapshot):
        metrics = dict(source.sorted_items())
    else:
        metrics = dict(sorted(source.items()))

    for name, value in metrics.items():
        prom = _prom_name(name, prefix)
        lines.append("# TYPE %s %s" % (prom, _prom_type(name)))
        lines.append("%s %s" % (prom, repr(float(value))))
    for histogram in sorted(histograms, key=lambda h: h.name):
        prom = _prom_name(histogram.name, prefix)
        lines.append("# TYPE %s histogram" % prom)
        cumulative = 0
        for edge, count in zip(histogram.edges, histogram.bucket_counts):
            cumulative += count
            lines.append('%s_bucket{le="%s"} %d' % (prom, edge, cumulative))
        lines.append('%s_bucket{le="+Inf"} %d' % (prom, histogram.count))
        lines.append("%s_sum %s" % (prom, repr(histogram.sum)))
        lines.append("%s_count %d" % (prom, histogram.count))
    return "\n".join(lines) + ("\n" if lines else "")



#: The Perfetto process (pid, name) each span clock renders under.
_PERFETTO_PROCESSES = {"sim": (1, "repro.sim"), "wall": (2, "repro.serve")}


def perfetto_trace_events(spans: Iterable[Span]) -> Dict[str, Any]:
    """Spans → a Chrome/Perfetto ``trace_event`` document.

    Each closed span becomes one complete event (``"ph": "X"``,
    microsecond timestamps).  Sim spans get a track per node under a
    ``repro.sim`` process, so each robot's beacon rounds line up; wall
    spans get a track per trace under ``repro.serve``, so concurrent
    requests stack instead of overlapping.  Open spans (truncated by
    ring eviction, or still running) are skipped.
    """
    events: List[Dict[str, Any]] = []
    tracks: Dict[Tuple[str, str], int] = {}
    for span in spans:
        if span.end_s is None:
            continue
        args = dict(span.attrs)
        args["span"] = span.span_id
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        if span.clock == "sim":
            label = "node %s" % span.node
            if span.node is not None:
                args["node"] = span.node
        else:
            label = "trace %s" % span.trace_id
            args["trace"] = span.trace_id
        tid = tracks.setdefault((span.clock, label), len(tracks) + 1)
        start_us = span.start_s * 1e6
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": start_us,
            "dur": max(0.0, span.end_s * 1e6 - start_us),
            "pid": _PERFETTO_PROCESSES[span.clock][0],
            "tid": tid,
            "cat": span.clock,
            "args": args,
        })
    # Metadata events name each process and label each track.
    metadata: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": name}}
        for clock, (pid, name) in _PERFETTO_PROCESSES.items()
        if any(track_clock == clock for track_clock, _ in tracks)
    ]
    for (clock, label), tid in tracks.items():
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": _PERFETTO_PROCESSES[clock][0],
            "tid": tid,
            "args": {"name": label},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_perfetto_json(path, spans: Iterable[Span]) -> int:
    """Write the Perfetto document; returns the non-metadata event count."""
    document = perfetto_trace_events(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return sum(1 for event in document["traceEvents"] if event["ph"] == "X")
