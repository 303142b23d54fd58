"""Serving front-end: micro-batching, admission control, live metrics.

The online engines answer *batches* ~20x faster per query than single
calls, but production traffic is concurrent single queries.  This package
is the layer in between:

* :mod:`repro.serve.frontend` — :class:`BatchingFrontend` coalesces
  concurrent ``submit(tags, top_k)`` calls under a micro-batch window
  into single epoch-consistent ``snapshot_rank_batch`` reads,
  deduplicating identical in-flight queries and resolving one future per
  caller;
* :mod:`repro.serve.admission` — :class:`AdmissionController` bounds the
  in-flight queue and sheds overflow with typed :class:`Overloaded`
  errors instead of unbounded queueing;
* :mod:`repro.utils.metrics` — :class:`MetricsRegistry` (re-exported
  here) records per-stage latency histograms, batch-size distributions,
  queue depth and shed/error counters, and exports them in the Prometheus
  text format.
"""

from repro.serve.admission import AdmissionController, Overloaded
from repro.serve.frontend import (
    BatchingFrontend,
    FrontendClosed,
    FrontendConfig,
    QueryResponse,
)
from repro.utils.metrics import MetricsRegistry, SizeDistribution

__all__ = [
    "AdmissionController",
    "Overloaded",
    "BatchingFrontend",
    "FrontendClosed",
    "FrontendConfig",
    "QueryResponse",
    "MetricsRegistry",
    "SizeDistribution",
]
