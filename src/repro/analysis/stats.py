"""Small-sample statistics helpers: Student-t intervals and tests, and
the one sample percentile the benchmarks and trace views report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with its two-sided confidence interval.

    Attributes:
        mean: sample mean.
        low: lower bound of the interval.
        high: upper bound of the interval.
        confidence: the confidence level (e.g. 0.95).
        n: sample count.
    """

    mean: float
    low: float
    high: float
    confidence: float
    n: int

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return "%.2f +/- %.2f (%.0f%%, n=%d)" % (
            self.mean,
            self.half_width,
            self.confidence * 100.0,
            self.n,
        )


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    Raises:
        ValueError: with fewer than two samples (no variance estimate).
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size < 2:
        raise ValueError(
            "need at least 2 samples for an interval, got %d" % values.size
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1), got %r" % confidence)
    # Deferred: SciPy takes about a second to import, which callers of
    # percentile() (the serve process, `repro trace`) should not pay.
    from scipy import stats

    mean = float(values.mean())
    sem = float(stats.sem(values))
    # repro: noqa[REP004] sem is exactly 0.0 only for identical samples
    if sem == 0.0:
        return ConfidenceInterval(mean, mean, mean, confidence, values.size)
    half = float(
        sem * stats.t.ppf((1.0 + confidence) / 2.0, values.size - 1)
    )
    return ConfidenceInterval(
        mean, mean - half, mean + half, confidence, values.size
    )


def welch_t_test(
    a: Sequence[float], b: Sequence[float]
) -> Tuple[float, float]:
    """Welch's t-test for a difference of means.

    Returns:
        ``(t_statistic, p_value)`` — small p means the two scenarios'
        metrics genuinely differ rather than being seed noise.
    """
    from scipy import stats

    a_values = np.asarray(list(a), dtype=float)
    b_values = np.asarray(list(b), dtype=float)
    if a_values.size < 2 or b_values.size < 2:
        raise ValueError("need at least 2 samples per group")
    t_stat, p_value = stats.ttest_ind(a_values, b_values, equal_var=False)
    return float(t_stat), float(p_value)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples``, interpolating
    linearly between the two nearest order statistics (NumPy's default
    ``linear`` method).

    Raises:
        ValueError: on an empty sample or ``q`` outside [0, 100].
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100], got %r" % q)
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
