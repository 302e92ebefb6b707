"""Helpers shared by the benchmark's workloads: statistics, output
digests, memory, and the per-run result record."""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import statistics
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "DIGESTS_PATH",
    "METRIC_NAME",
    "RunResult",
    "load_digests",
    "median",
    "peak_rss_mb",
    "percentile",
    "science_digest",
    "science_payload",
]

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

#: What a metric name may contain.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def science_payload(result) -> tuple:
    """Everything a figure can read from a run, in byte-comparable form
    (the same tuple the repository's kernel-equality tests compare)."""
    return (
        result.errors.tobytes(),
        result.measured_ids,
        result.fixes,
        sorted(result.per_node_energy_j.items()),
        repr(result.channel_stats),
        repr(result.multicast_stats),
        result.total_energy_j(),
    )


def science_digest(result) -> str:
    """SHA-256 of :func:`science_payload`; ``repr`` round-trips floats
    exactly, so equal digests mean byte-equal payloads."""
    return hashlib.sha256(
        repr(science_payload(result)).encode("utf-8")
    ).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    """Pinned digests: workload -> scenario seed (as a string) -> hex."""
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class RunResult:
    """One benchmark run: operation counts plus named metrics.

    ``metrics`` maps a name to ``(value, unit)``; ``notes`` are extra
    human-readable lines printed above the result record.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, tuple] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        if not METRIC_NAME.match(name):
            raise ValueError("bad metric name: %r" % name)
        self.metrics[name] = (float(value), unit)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def record(self) -> Dict[str, object]:
        """The JSON object printed as the run's last line."""
        return {
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
