"""Telemetry primitives: one registry, one latency histogram, one size book.

A leaf module — it imports nothing above :mod:`repro.utils` — shared by
the serving front-end, the refit coordinator and the workload replay
runner:

* :class:`LatencyHistogram` — log-spaced latency buckets (one histogram
  covers microsecond cache hits and multi-second refreshes), mergeable
  across replay workers without locks, with labelled sub-histograms;
* :class:`SizeDistribution` — exact per-value counts for small integer
  observations (such as batch sizes), so a size question has a precise
  answer, not a bucketed estimate;
* :class:`MetricsRegistry` — thread-safe **counters** (monotone totals),
  **gauges** (last-written values), per-stage latency histograms and size
  distributions behind one lock, because the front-end records from
  every submitter thread.

:meth:`MetricsRegistry.export_text` renders everything in the
Prometheus text exposition format (``# TYPE`` comments, cumulative
``_bucket{le="..."}`` histogram series), so a scrape endpoint only has to
serve the string.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.utils.errors import ConfigurationError
from repro.utils.timing import format_duration

#: Lower edge of the first latency bucket (1 microsecond).
_BUCKET_FLOOR = 1e-6
#: Geometric bucket growth factor; 40 buckets span 1us .. ~18min.
_BUCKET_FACTOR = 2.0
_NUM_BUCKETS = 40


class LatencyHistogram:
    """Log-spaced latency histogram with exact count/sum/min/max.

    Buckets grow geometrically from one microsecond, so one histogram
    covers cache-hit lookups and multi-second refreshes alike; quantile
    estimates are conservative upper bucket edges (see :meth:`quantile`).
    Instances are cheap and *not* thread-safe by design: each replay
    worker records into its own set and the runner :meth:`merge`\\ s them
    afterwards, which keeps the measurement itself off the hot path's
    lock profile.

    A histogram can carry labelled **sub-histograms** (per-tenant latency
    books): :meth:`record` with a ``label`` counts the sample once in the
    aggregate and once in that label's child, and :meth:`merge` folds
    children recursively.  The aggregate is
    always the top-level counts alone — children are a *breakdown* of
    it, never an addition to it, so summing a report's aggregate with
    its children would double-count and the accessors keep them apart.
    """

    def __init__(self) -> None:
        self._counts = [0] * (_NUM_BUCKETS + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        self._children: Dict[str, "LatencyHistogram"] = {}

    def record(self, seconds: float, label: Optional[str] = None) -> None:
        if seconds < 0.0:
            raise ConfigurationError(
                f"latency must be non-negative, got {seconds}"
            )
        self._observe(seconds)
        if label is not None:
            self._ensure_child(label)._observe(seconds)

    def _observe(self, seconds: float) -> None:
        """Count one sample into this histogram's own buckets only."""
        bucket = 0
        edge = _BUCKET_FLOOR
        while bucket < _NUM_BUCKETS and seconds >= edge:
            bucket += 1
            edge *= _BUCKET_FACTOR
        self._counts[bucket] += 1
        self.count += 1
        self.total_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)

    def _ensure_child(self, label: str) -> "LatencyHistogram":
        child = self._children.get(label)
        if child is None:
            child = self._children[label] = LatencyHistogram()
        return child

    def _fold(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s own buckets (not its children) into ours."""
        for bucket, count in enumerate(other._counts):
            self._counts[bucket] += count
        self.count += other.count
        self.total_seconds += other.total_seconds
        self.min_seconds = min(self.min_seconds, other.min_seconds)
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram.

        ``other``'s aggregate goes into our aggregate exactly once; its
        children merge into our same-named children, so per-label counts
        stay a partition of the aggregate across any merge tree (the
        per-worker → per-run merge in the replay runner).
        """
        self._fold(other)
        for name, child in other._children.items():
            self._ensure_child(name)._fold(child)

    def children(self) -> Dict[str, "LatencyHistogram"]:
        """All labelled sub-histograms (a shallow copy of the mapping)."""
        return dict(self._children)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def bucket_upper_bounds(self) -> List[float]:
        """Exclusive upper edge of every bucket; the last is ``+inf``.

        Public so exporters (the serving metrics registry's
        Prometheus-style text format) can render the histogram without
        reaching into the private counts.
        """
        return [
            _BUCKET_FLOOR * (_BUCKET_FACTOR**bucket)
            for bucket in range(_NUM_BUCKETS)
        ] + [float("inf")]

    def bucket_counts(self) -> List[int]:
        """Per-bucket sample counts, aligned with :meth:`bucket_upper_bounds`."""
        return list(self._counts)

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket containing the ``q``-quantile sample.

        A deliberately *conservative* estimate: with factor-2 buckets the
        true quantile may be up to one bucket factor (2x) below the
        returned edge, never above it — the safe direction for latency
        reporting and gating.  Clamped to the observed ``max_seconds`` so
        the estimate never exceeds a latency that actually happened.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for bucket, count in enumerate(self._counts):
            seen += count
            if seen >= target and count:
                upper = _BUCKET_FLOOR * (_BUCKET_FACTOR**bucket)
                return min(upper, self.max_seconds)
        return self.max_seconds

    def summary(self) -> str:
        """One line: count, mean, p50/p99, min/max."""
        if self.count == 0:
            return "no samples"
        return (
            f"n={self.count} mean={format_duration(self.mean_seconds)} "
            f"p50={format_duration(self.quantile(0.5))} "
            f"p99={format_duration(self.quantile(0.99))} "
            f"min={format_duration(self.min_seconds)} "
            f"max={format_duration(self.max_seconds)}"
        )


class SizeDistribution:
    """Exact counts of small non-negative integer observations.

    Batch sizes are tiny integers, so instead of log-bucketing them the
    distribution keeps one exact count per observed value — mean, max and
    quantiles are then exact, and the export lists every observed size.
    Not thread-safe on its own; the owning registry serializes access.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    def record(self, value: int) -> None:
        if value < 0:
            raise ConfigurationError(f"size must be >= 0, got {value}")
        value = int(value)
        self._counts[value] = self._counts.get(value, 0) + 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> int:
        return max(self._counts) if self._counts else 0

    def quantile(self, q: float) -> int:
        """The smallest observed value covering the ``q``-quantile."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0
        target = q * self.count
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= target:
                return value
        return self.max

    def counts(self) -> Dict[int, int]:
        """A copy of the per-value counts (export + assertions)."""
        return dict(self._counts)


def _metric_name(prefix: str, name: str) -> str:
    """Prometheus-legal metric name: dots and dashes become underscores."""
    cleaned = name.replace(".", "_").replace("-", "_").replace(" ", "_")
    return f"{prefix}_{cleaned}" if prefix else cleaned


class MetricsRegistry:
    """Thread-safe counters, gauges, latency histograms and distributions.

    All mutation goes through one lock: the front-end records from many
    submitter threads, and a scrape
    (:meth:`export_text` / :meth:`snapshot`) must see an internally
    consistent view (a completed request is never counted in ``completed``
    while missing from its latency histogram's ``count``).
    """

    def __init__(self, prefix: str = "repro_serve") -> None:
        self._prefix = prefix
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._latencies: Dict[str, LatencyHistogram] = {}
        self._sizes: Dict[str, SizeDistribution] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at zero)."""
        if amount < 0:
            raise ConfigurationError(
                f"counters are monotone; cannot add {amount} to {name!r}"
            )
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe_latency(self, name: str, seconds: float) -> None:
        """Record one latency sample into the histogram ``name``."""
        with self._lock:
            histogram = self._latencies.get(name)
            if histogram is None:
                histogram = self._latencies[name] = LatencyHistogram()
            histogram.record(seconds)

    def observe_size(self, name: str, value: int) -> None:
        """Record one integer sample into the distribution ``name``."""
        with self._lock:
            distribution = self._sizes.get(name)
            if distribution is None:
                distribution = self._sizes[name] = SizeDistribution()
            distribution.record(value)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def latency(self, name: str) -> LatencyHistogram:
        """A merged *copy* of the histogram ``name`` (empty if unknown).

        A copy, so callers can quantile/summarize it without racing the
        recording threads.
        """
        with self._lock:
            merged = LatencyHistogram()
            histogram = self._latencies.get(name)
            if histogram is not None:
                merged.merge(histogram)
            return merged

    def size_distribution(self, name: str) -> SizeDistribution:
        """A copy of the distribution ``name`` (empty if unknown)."""
        with self._lock:
            copied = SizeDistribution()
            distribution = self._sizes.get(name)
            if distribution is not None:
                for value, count in distribution.counts().items():
                    copied._counts[value] = count
                copied.count = distribution.count
                copied.total = distribution.total
            return copied

    def snapshot(self) -> Dict[str, object]:
        """One consistent plain-dict view (reports, workload summaries)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "latencies": {
                    name: histogram.summary()
                    for name, histogram in sorted(self._latencies.items())
                },
                "sizes": {
                    name: {
                        "count": distribution.count,
                        "mean": distribution.mean,
                        "max": distribution.max,
                    }
                    for name, distribution in sorted(self._sizes.items())
                },
            }

    # ------------------------------------------------------------------ #
    # Prometheus-style text export
    # ------------------------------------------------------------------ #
    def export_text(self) -> str:
        """Render every metric in the Prometheus text exposition format.

        Counters export as ``<name>_total``, gauges as-is, latency
        histograms as cumulative ``_bucket{le="..."}`` series plus
        ``_sum``/``_count`` (bucket edges are this library's exclusive
        upper edges, rendered as Prometheus's inclusive ``le`` — the
        one-sample-on-the-edge difference is irrelevant at scrape
        granularity), and size distributions as exact-value buckets.
        """
        with self._lock:
            lines: List[str] = []
            for name in sorted(self._counters):
                metric = _metric_name(self._prefix, name) + "_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {self._counters[name]}")
            for name in sorted(self._gauges):
                metric = _metric_name(self._prefix, name)
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {self._gauges[name]:g}")
            for name in sorted(self._latencies):
                histogram = self._latencies[name]
                metric = _metric_name(self._prefix, name) + "_seconds"
                lines.append(f"# TYPE {metric} histogram")
                cumulative = 0
                for upper, count in zip(
                    histogram.bucket_upper_bounds(),
                    histogram.bucket_counts(),
                ):
                    cumulative += count
                    edge = "+Inf" if upper == float("inf") else f"{upper:g}"
                    lines.append(
                        f'{metric}_bucket{{le="{edge}"}} {cumulative}'
                    )
                lines.append(f"{metric}_sum {histogram.total_seconds:g}")
                lines.append(f"{metric}_count {histogram.count}")
            for name in sorted(self._sizes):
                distribution = self._sizes[name]
                metric = _metric_name(self._prefix, name)
                lines.append(f"# TYPE {metric} histogram")
                counts = distribution.counts()
                cumulative = 0
                for value in sorted(counts):
                    cumulative += counts[value]
                    lines.append(
                        f'{metric}_bucket{{le="{value}"}} {cumulative}'
                    )
                lines.append(
                    f'{metric}_bucket{{le="+Inf"}} {distribution.count}'
                )
                lines.append(f"{metric}_sum {distribution.total}")
                lines.append(f"{metric}_count {distribution.count}")
            return "\n".join(lines) + "\n"
