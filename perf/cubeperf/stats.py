"""Raw-sample statistics, and what they were measured on.

Every timed number comes from a list of ``perf_counter`` differences, not
from ``repro.load.LatencyHistogram``: that histogram is log-bucketed with
factor-2 resolution, far too coarse to resolve a 10% bound.
"""

from __future__ import annotations

import os
import platform
import statistics
from typing import Dict, Sequence

import numpy as np
import scipy


def environment() -> Dict[str, object]:
    """What a number was measured on; the load average flags a noisy box."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "load_1min": os.getloadavg()[0],
    }


def percentile_ms(seconds: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of latencies given in seconds, in ms."""
    return float(np.percentile(seconds, q)) * 1e3


def p50_us(seconds: Sequence[float]) -> float:
    """Median of latencies given in seconds, in microseconds."""
    return float(np.median(seconds)) * 1e6


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one statistic's per-round values."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {"value": median, "median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
