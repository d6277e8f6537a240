"""Statistical helpers used by the experiment harness.

The paper aggregates per-benchmark speedups with a harmonic mean (the
``harMean`` bars of Figures 4-5); this module provides that plus the
speedup convention the figures plot and the confidence intervals the
causal profiler reports.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean of positive values.

    Raises ``ValueError`` on empty input or non-positive entries (a
    harmonic mean of ratios is only meaningful for positive ratios).
    """
    values = list(values)
    if not values:
        raise ValueError("harmonic mean of empty sequence")
    for v in values:
        if v <= 0:
            raise ValueError(f"harmonic mean needs positive values, got {v}")
    return len(values) / sum(1.0 / v for v in values)


def speedup_percent(baseline_time: float, new_time: float) -> float:
    """Wall-clock speedup as the paper plots it (positive = faster).

    A bar of +5% means the new configuration ran the same work in
    ``baseline/1.05`` of the time.
    """
    if new_time <= 0:
        raise ValueError("non-positive execution time")
    return 100.0 * (baseline_time / new_time - 1.0)


def harmonic_mean_speedup(speedups_percent: Iterable[float]) -> float:
    """Aggregate per-benchmark speedups the way the paper's harMean does.

    Speedup percentages are converted to time ratios, averaged
    harmonically, and converted back.
    """
    ratios = [1.0 + s / 100.0 for s in speedups_percent]
    return 100.0 * (harmonic_mean(ratios) - 1.0)


def median(values: Sequence[float]) -> float:
    """Median (no statistics-module dependency for the hot path)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# Confidence intervals (causal-profiler reporting)
#
# Multi-seed causal experiments report every predicted speedup with a
# t-based confidence interval and flag cells whose *relative* CI width
# makes the headline number misleading (the RCIW criterion of the
# microbenchmark-rigor literature).  No scipy: the two-sided 95% t-table
# is inlined for the small sample counts a seed grid produces.
# ---------------------------------------------------------------------------

#: Two-sided 95% Student-t critical values by degrees of freedom.  Seed
#: grids are small (2-10 runs); beyond df=30 the normal value is used.
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
_Z_CRITICAL_95 = 1.960


class ConfidenceInterval(NamedTuple):
    """A mean with its two-sided 95% confidence bounds."""

    mean: float
    low: float
    high: float
    n: int


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on empty input."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def sample_stddev(values: Sequence[float]) -> float:
    """Unbiased (n-1) sample standard deviation; needs at least two values."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("sample stddev needs at least two values")
    centre = sum(values) / len(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values)
                     / (len(values) - 1))


def confidence_interval(values: Sequence[float]) -> ConfidenceInterval:
    """Two-sided 95% t-interval for the mean of ``values``.

    A single observation carries no variance information, so ``n == 1``
    yields infinite bounds (maximally uncertain) rather than a
    deceptively tight zero-width interval -- downstream RCIW checks then
    flag the cell as noisy instead of trusting it.
    """
    values = list(values)
    if not values:
        raise ValueError("confidence interval of empty sequence")
    centre = sum(values) / len(values)
    n = len(values)
    if n == 1:
        return ConfidenceInterval(centre, -math.inf, math.inf, 1)
    t = _T_CRITICAL_95.get(n - 1, _Z_CRITICAL_95)
    half = t * sample_stddev(values) / math.sqrt(n)
    return ConfidenceInterval(centre, centre - half, centre + half, n)


def relative_ci_width(values: Sequence[float]) -> float:
    """Relative CI width: (high - low) / |mean|, the RCIW noise metric.

    Edge cases are defined so downstream flagging stays monotone:
    identical samples have zero width and return ``0.0`` (perfectly
    stable even around a zero mean), while any nonzero width around a
    zero mean -- or a single-sample interval -- returns ``inf`` (the
    headline number cannot be trusted at all).
    """
    interval = confidence_interval(values)
    width = interval.high - interval.low
    if width == 0.0:
        return 0.0
    if not math.isfinite(width) or interval.mean == 0.0:
        return math.inf
    return width / abs(interval.mean)
