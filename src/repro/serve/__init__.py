"""Serving front-end: admission control, in-flight dedup, live metrics.

Production traffic is concurrent single queries.  This package is the
layer between those callers and a ranking engine:

* :mod:`repro.serve.frontend` — :class:`BatchingFrontend` scores each
  ``submit(tags, top_k)`` in the submitting thread with one
  epoch-consistent ``snapshot_rank_batch`` read, serving repeats from an
  epoch-keyed cache and letting identical in-flight queries share one
  read;
* :mod:`repro.serve.admission` — :class:`AdmissionController` bounds the
  in-flight queue and sheds overflow with typed :class:`Overloaded`
  errors instead of unbounded queueing;
* :mod:`repro.utils.metrics` — :class:`MetricsRegistry` (re-exported
  here) records per-stage latency histograms, queue depth and
  submitted/coalesced/shed/error counters, and exports them in the
  Prometheus text format.
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
