"""Percentile summaries for the benchmark's latency samples."""

from __future__ import annotations

import numpy as np

# The tail is the highest of these percentiles with at least MIN_BEYOND
# samples above it, so the reported tail rests on at least that many samples.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(n):
    """Highest ladder percentile leaving MIN_BEYOND samples beyond it, else 50."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return 50.0


def summary(samples):
    """10th percentile, median and tail of a sample list: dict with values, percentile and count."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        return {"n": 0, "p10": float("nan"), "p50": float("nan"), "tail": float("nan"),
                "tail_pct": None}
    p = tail_percentile(x.size)
    return {"n": int(x.size), "p10": float(np.percentile(x, 10.0)),
            "p50": float(np.percentile(x, 50.0)),
            "tail": float(np.percentile(x, p)), "tail_pct": p}


def median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))
