"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTracer` replaces public functions *at class (or module)
level* with timing wrappers for the duration of a ``with`` block and
puts the originals back on exit.  Nothing under ``src/`` knows it is
being traced: the wrappers sit where the program looks the functions
up, so a later change that moves or renames one of them shows up as a
failed patch, not as a silently missing layer.

Each wrapped call becomes one span ``(id, name, start, end, parent)``
kept in memory (up to ``_MAX_SPANS``; the rest are only aggregated) and
written out by :meth:`LayerTracer.write_jsonl` when the benchmark ends.
Per name the tracer aggregates call count, total time and *self* time:
a span's duration minus the part of it covered by its wrapped child
spans.  The spans of one thread nest strictly, because every wrapped
function is synchronous; a call that re-enters a name already open
(a wrapped method calling another wrapped alias of itself) counts its
time once, under the outermost span.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer"]

_clock = time.perf_counter

#: Spans kept in memory; later spans still count toward the aggregates
#: (:attr:`LayerTracer.dropped` says how many were not kept).
_MAX_SPANS = 200_000


class LayerTracer:
    """Class-level timing wrappers with span recording."""

    def __init__(self) -> None:
        # Kept spans as flat columns (no per-span objects for the
        # garbage collector to walk): id, name index, start, end, parent.
        self._names: Dict[str, int] = {}
        self._columns = (array("q"), array("i"), array("d"), array("d"), array("q"))
        self.dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        # Open spans, innermost last:
        # [span id, name, start, child time, parent id].
        self._stack: List[list] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, make: Callable[[object], object]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by
        ``make(original)`` until :meth:`restore`."""
        if attr not in vars(owner):
            raise AttributeError(
                "%r defines no %r of its own to wrap" % (owner, attr)
            )
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod, property)):
            raise TypeError("only plain functions can be wrapped: %s" % attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(
        self,
        owner,
        attr: str,
        name: Optional[str],
        classify: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``classify(*args, **kwargs)``, when given, picks the span name
        per call instead (``None`` = do not time this call).
        """
        enter, leave = self._enter, self._exit

        def make(original):
            if classify is None:
                def traced(*args, **kwargs):
                    enter(name)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        leave()
            else:
                def traced(*args, **kwargs):
                    span = classify(*args, **kwargs)
                    if span is None:
                        return original(*args, **kwargs)
                    enter(span)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        leave()

            traced.__wrapped__ = original
            return traced

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        span_id = self._next_id
        self._next_id += 1
        self._open[name] += 1
        self._stack.append([span_id, name, _clock(), 0.0, parent])

    def _exit(self) -> None:
        end = _clock()
        span_id, name, start, child_s, parent = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        self.self_s[name] += duration - child_s
        if not self._open[name]:
            self.calls[name] += 1
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][3] += duration
        ids, names, starts, ends, parents = self._columns
        if len(ids) < _MAX_SPANS:
            ids.append(span_id)
            index = self._names.get(name)
            if index is None:
                index = self._names[name] = len(self._names)
            names.append(index)
            starts.append(start)
            ends.append(end)
            parents.append(parent)
        else:
            self.dropped += 1

    @property
    def kept(self) -> int:
        return len(self._columns[0])

    @property
    def spans(self) -> List[Tuple[int, str, float, float, int]]:
        """Kept spans as ``(id, name, start, end, parent id)``; the
        parent of a root span is -1."""
        names = {index: name for name, index in self._names.items()}
        ids, indices, starts, ends, parents = self._columns
        return [
            (ids[k], names[indices[k]], starts[k], ends[k], parents[k])
            for k in range(len(ids))
        ]

    def write_jsonl(self, path: str) -> int:
        """Write the kept spans, one JSON object per line; returns the
        number written."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")
        return len(spans)
