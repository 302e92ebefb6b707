"""Parent-linked spans, their one record format and their one ring.

A :class:`Span` is a named interval with a parent link.  The same type
serves both clocks the project traces on:

- ``clock="sim"`` — simulation seconds, recorded by :class:`SpanTracer`
  (a beacon round owning its per-node receive events, channel frames).
  These spans carry a ``node`` and no trace id.
- ``clock="wall"`` — offsets on a relative wall clock, recorded per
  served request by :class:`~repro.obs.trace.ActiveTrace`.  These carry
  a ``trace`` id and no node.

:meth:`Span.as_record` / :meth:`Span.from_record` are the one record
format: the trace-JSONL line that ``repro trace`` reads back, whichever
clock wrote it.  A point event is a span whose end equals its start.

:class:`SpanBuffer` is the one bounded ring: the sim tracer, the request
tracer and the ops log all keep their records in one, evicting the
oldest first and tallying what they evicted, so a long soak or service
degrades to a sliding window instead of exhausting RAM.

Recording is passive: a span is one small object appended to a ring —
it never schedules events or reads RNG, and sim timestamps are the
values the caller passes in, so tracing cannot perturb a run (the
telemetry on/off byte-identity tests hold this line).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = ["CLOCKS", "Span", "SpanBuffer", "SpanRecordError", "SpanTracer"]

#: The two time bases a span can live on.
CLOCKS = ("sim", "wall")


class SpanRecordError(ValueError):
    """A JSON record that is not a span record."""


def _reject(record: Any, reason: str) -> SpanRecordError:
    text = repr(record)
    if len(text) > 80:
        text = text[:77] + "..."
    return SpanRecordError("not a span record (%s): %s" % (reason, text))


def _seconds(record: Dict[str, Any], key: str) -> float:
    value = record[key]
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise _reject(record, "%s must be a number" % key)


class Span:
    """One named interval (or point event) on a simulation or wall clock.

    ``start_s`` / ``end_s`` are simulation seconds for ``clock="sim"``
    and relative wall-clock offsets (a shared process origin, never
    absolute timestamps) for ``clock="wall"``.  ``end_s`` is ``None``
    while the span is open.
    """

    __slots__ = ("clock", "trace_id", "span_id", "parent_id", "name",
                 "node", "start_s", "end_s", "attrs")

    def __init__(
        self,
        span_id: int,
        name: str,
        start_s: float,
        *,
        node: Optional[int] = None,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
        clock: str = "sim",
    ) -> None:
        self.clock = clock
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attrs = attrs if attrs is not None else {}

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Length on the span's clock (0.0 for point events / open spans)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def as_record(self) -> Dict[str, Any]:
        """The JSON-serializable trace-JSONL line."""
        return {
            "clock": self.clock,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": self.attrs,
        }

    @classmethod
    def from_record(cls, record: Any) -> "Span":
        """Parse one :meth:`as_record` dict (e.g. a line read back from
        trace JSONL).  A record without ``clock`` is a wall span, the only
        kind written before sim traces could be exported.

        Raises:
            SpanRecordError: naming the record, if it is not a JSON object
                or a field is missing or of the wrong type.
        """
        if not isinstance(record, dict):
            raise _reject(record, "not a JSON object")
        for key in ("span", "name", "start_s", "end_s"):
            if key not in record:
                raise _reject(record, "missing %r" % key)
        clock = record.get("clock", "wall")
        if clock not in CLOCKS:
            raise _reject(record, "clock must be one of %r" % (CLOCKS,))
        if not isinstance(record["name"], str):
            raise _reject(record, "name must be a string")
        if not isinstance(record.get("trace"), (str, type(None))):
            raise _reject(record, "trace must be a string or null")
        if not isinstance(record["span"], int):
            raise _reject(record, "span must be an integer")
        for key in ("parent", "node"):
            if not isinstance(record.get(key), (int, type(None))):
                raise _reject(record, "%s must be an integer or null" % key)
        attrs = record.get("attrs")
        if not isinstance(attrs, (dict, type(None))):
            raise _reject(record, "attrs must be an object or null")
        span = cls(
            record["span"],
            record["name"],
            _seconds(record, "start_s"),
            node=record.get("node"),
            parent_id=record.get("parent"),
            attrs=attrs,
            trace_id=record.get("trace"),
            clock=clock,
        )
        if record["end_s"] is not None:
            span.end_s = _seconds(record, "end_s")
        return span

    def __repr__(self) -> str:
        return "Span(%s %s#%d %s node=%s [%r, %r])" % (
            self.clock, self.trace_id, self.span_id, self.name, self.node,
            self.start_s, self.end_s,
        )


class SpanBuffer:
    """Bounded FIFO ring with an eviction tally.

    Args:
        max_spans: capacity; when full, each append evicts the oldest
            entry and bumps :attr:`dropped`.  ``None`` is unbounded.

    Eviction can split a trace (its earliest spans fall out first), so
    consumers treat a trace with no root span as truncated.  The serve
    stack owns its buffers from one asyncio loop, so no locking is
    needed.
    """

    __slots__ = ("_items", "dropped")

    def __init__(self, max_spans: Optional[int]) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError(
                "max_spans must be >= 1 or None, got %r" % max_spans
            )
        self._items: deque = deque(maxlen=max_spans)
        self.dropped = 0

    @property
    def max_spans(self) -> Optional[int]:
        return self._items.maxlen

    def append(self, item) -> None:
        if len(self._items) == self._items.maxlen:
            self.dropped += 1
        self._items.append(item)

    def extend(self, items: Iterable) -> None:
        for item in items:
            self.append(item)

    def clear(self) -> None:
        """Drop every entry; :attr:`dropped` keeps its tally."""
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)


class SpanTracer:
    """Records sim-clock spans into a :class:`SpanBuffer`.

    Args:
        max_records: keep only the most recent ``max_records`` spans,
            counting evictions in :attr:`dropped_count`.  ``None`` keeps
            everything (tests, short runs).
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        self.buffer = SpanBuffer(max_records)
        self._ids = itertools.count(1)

    @property
    def max_records(self) -> Optional[int]:
        return self.buffer.max_spans

    @property
    def dropped_count(self) -> int:
        """Spans evicted from the ring since construction."""
        return self.buffer.dropped

    def start_span(
        self,
        name: str,
        t: float,
        node: Optional[int] = None,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at simulation time ``t``; close it with
        :meth:`end_span`."""
        span = Span(
            next(self._ids),
            name,
            float(t),
            node=node,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs or None,
        )
        self.buffer.append(span)
        return span

    def end_span(self, span: Span, t: float) -> None:
        """Close ``span`` at simulation time ``t``.

        Raises:
            ValueError: if ``t`` precedes the span's start (spans live on
                a monotonic simulation clock).
        """
        if t < span.start_s:
            raise ValueError(
                "span %r cannot end at t=%r before its start" % (span, t)
            )
        span.end_s = float(t)

    def event(
        self,
        t: float,
        name: str,
        node: Optional[int] = None,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record a point event (a zero-duration, already-closed span)."""
        span = self.start_span(name, t, node, parent, **attrs)
        span.end_s = span.start_s
        return span

    # -- introspection -------------------------------------------------------

    def records(self, name: Optional[str] = None) -> List[Span]:
        """Recorded spans in order, optionally filtered by name."""
        if name is None:
            return list(self.buffer)
        return [s for s in self.buffer if s.name == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.buffer if s.name == name)

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span`` (parent-link navigation)."""
        return [s for s in self.buffer if s.parent_id == span.span_id]

    def clear(self) -> None:
        """Drop all records (the drop counter keeps its tally)."""
        self.buffer.clear()

    def __len__(self) -> int:
        return len(self.buffer)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.buffer)
