"""Per-hop latency attribution over recorded trace spans.

Turns a flat list of spans (:class:`~repro.telemetry.spans.Span`) — sim
or wall clock, live or parsed back from trace JSONL with
:meth:`~repro.telemetry.spans.Span.from_record` — into the two views the
``repro trace`` CLI prints:

- :func:`hop_table` / :func:`render_summary` — per-hop count, total,
  mean, p50/p99 and share-of-request-time, answering "where does the
  latency go?" across a whole recording.
- :func:`slowest_traces` / :func:`render_slowest` — the N slowest
  requests with their per-hop breakdown, answering "what happened to
  *that* request?".

For a sim trace the "hops" are span names (``beacon_round``,
``beacon_rx``, ``channel.rx``); it has no ``request`` roots, so its
shares read 0 and ``slowest`` finds nothing to rank.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.analysis.stats import percentile
from repro.telemetry.spans import Span

__all__ = [
    "hop_table",
    "slowest_traces",
    "render_summary",
    "render_slowest",
]

#: Root span name — everything else is a hop beneath it.
ROOT = "request"


def _durations_by_name(spans: Iterable[Span]) -> Dict[str, List[float]]:
    byname: Dict[str, List[float]] = {}
    for span in spans:
        if span.end_s is not None:
            byname.setdefault(span.name, []).append(
                max(0.0, span.duration_s)
            )
    return byname


def hop_table(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Per-hop aggregate rows, root first then hops by total time.

    Each row: ``name, count, total_ms, mean_ms, p50_ms, p99_ms,
    share`` — ``share`` being the hop's total as a fraction of the
    total root-span time (the root's own share is 1.0).
    """
    byname = _durations_by_name(spans)
    root_total = sum(byname.get(ROOT, []))
    rows: List[Dict[str, Any]] = []
    for name, durations in byname.items():
        total = sum(durations)
        rows.append({
            "name": name,
            "count": len(durations),
            "total_ms": total * 1e3,
            "mean_ms": total / len(durations) * 1e3,
            "p50_ms": percentile(durations, 50.0) * 1e3,
            "p99_ms": percentile(durations, 99.0) * 1e3,
            "share": (total / root_total) if root_total > 0 else 0.0,
        })
    rows.sort(key=lambda row: (row["name"] != ROOT, -row["total_ms"]))
    return rows


def slowest_traces(spans: Iterable[Span], n: int = 10) -> List[Dict[str, Any]]:
    """The ``n`` slowest requests, each with a per-hop breakdown.

    Each entry: ``trace, duration_ms, attrs`` (the root span's attrs —
    op/tenant/rid/error) and ``hops`` mapping hop name → total ms
    inside that trace.
    """
    roots: Dict[str, Dict[str, Any]] = {}
    hops: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span.end_s is None:
            continue
        trace_id = span.trace_id
        duration_ms = max(0.0, span.duration_s) * 1e3
        if span.name == ROOT:
            roots[trace_id] = {
                "trace": trace_id,
                "duration_ms": duration_ms,
                "attrs": dict(span.attrs),
            }
        else:
            bucket = hops.setdefault(trace_id, {})
            bucket[span.name] = bucket.get(span.name, 0.0) + duration_ms
    entries = sorted(
        roots.values(), key=lambda entry: -entry["duration_ms"]
    )[:n]
    for entry in entries:
        entry["hops"] = hops.get(entry["trace"], {})
    return entries


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_summary(spans: List[Span]) -> str:
    """The ``repro trace summarize`` view."""
    rows = hop_table(spans)
    if not rows:
        return "no closed spans recorded"
    n_traces = len({span.trace_id for span in spans if span.clock == "wall"})
    n_nodes = len({span.node for span in spans if span.clock == "sim"})
    body = _format_table(
        ["hop", "count", "total ms", "mean ms", "p50 ms", "p99 ms", "share"],
        [
            [
                row["name"],
                str(row["count"]),
                "%.2f" % row["total_ms"],
                "%.3f" % row["mean_ms"],
                "%.3f" % row["p50_ms"],
                "%.3f" % row["p99_ms"],
                "%.1f%%" % (row["share"] * 100.0),
            ]
            for row in rows
        ],
    )
    return "%d spans across %d traces and %d nodes\n\n%s" % (
        len(spans), n_traces, n_nodes, body,
    )


def render_slowest(spans: List[Span], n: int = 10) -> str:
    """The ``repro trace slowest`` view."""
    entries = slowest_traces(spans, n=n)
    if not entries:
        return "no closed spans recorded"
    lines: List[str] = []
    for rank, entry in enumerate(entries, start=1):
        attrs = entry["attrs"]
        descriptor = " ".join(
            "%s=%s" % (key, attrs[key])
            for key in ("op", "tenant", "rid", "error")
            if key in attrs
        )
        lines.append(
            "%2d. %s  %.3f ms  %s"
            % (rank, entry["trace"], entry["duration_ms"], descriptor)
        )
        for hop, hop_ms in sorted(
            entry["hops"].items(), key=lambda item: -item[1]
        ):
            lines.append("      %-18s %8.3f ms" % (hop, hop_ms))
    return "\n".join(lines)
