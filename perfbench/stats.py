"""Order statistics and the parent-versus-change decision rule."""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def rel_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(parent, change, better: str, bound: float) -> tuple:
    """Judge one (workload, metric) from paired runs of both commits.

    The choosing-metrics rule: a gain needs the change to win at least
    nine tenths of the pairs (ties count for neither side) *and* medians
    further apart than the parent's interquartile distance.  A change
    whose median is worse than the parent's by more than ``bound`` (a
    share of the parent median) regressed.  When the parent's own spread
    exceeds the bound the comparison is unresolved, unless every change
    run beats (or loses to) every parent run.

    Returns ``(verdict, wins, pairs)``.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if rel_spread(parent) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "improved", wins, len(pairs)
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return "regressed", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1 and gain > 0:
        return "improved", wins, len(pairs)
    if -gain > bound * abs(p_med):
        return "regressed", wins, len(pairs)
    return "unchanged", wins, len(pairs)
