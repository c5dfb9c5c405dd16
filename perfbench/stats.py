"""Percentiles that state their sample count, and run-to-run spread.

A percentile is reported only when at least ``MIN_TAIL`` samples lie
beyond it: p50 needs 20 samples, p90 needs 100 and p99 needs 1000.  A
tail percentile read from fewer samples is one or two unlucky requests,
not a property of the system.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_TAIL", "percentile", "summarize", "quartiles"]

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL = 10


def percentile(values, pct: float) -> "float | None":
    """The ``pct``-th percentile (linear interpolation between ranks).

    Returns None when fewer than :data:`MIN_TAIL` samples lie beyond it,
    i.e. when ``len(values) * (1 - pct / 100) < MIN_TAIL``.
    """
    if not 0 < pct < 100:
        raise ValueError("pct must lie strictly between 0 and 100")
    n = len(values)
    if n * (1.0 - pct / 100.0) < MIN_TAIL - 1e-9:
        return None
    ordered = sorted(values)
    rank = (n - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def summarize(values, pcts=(50, 90, 99)) -> dict:
    """``{"n": N, "p50": v|None, ...}``: every percentile next to its count."""
    out: dict = {"n": len(values)}
    for pct in pcts:
        out[f"p{pct:g}"] = percentile(values, pct)
    return out


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
