"""Evaluation: the NDCG harness behind Figure 4 and Tables V-VI.

* :mod:`repro.eval.ndcg` — graded-relevance ranking metrics (NDCG@N, Eq. 24)
  plus precision/recall helpers.
* :mod:`repro.eval.harness` — runs a set of rankers over a dataset + query
  workload, recording ranking quality and offline/online wall-clock times.
* :mod:`repro.eval.reporting` — plain-text table and series rendering used
  by the experiment drivers to print paper-style output.
* :mod:`repro.eval.sharding` — a re-export of
  :func:`repro.search.vsm.rankings_match` kept for the ``perf/`` oracle.

Serving parity and serving latency are not measured here: the tests that
drive each serving layer hold its parity checks, and ``perf/`` is the one
benchmark.  This package imports nothing from the front-end, the load
replays or the process pool, and reads no clock of its own.
"""

from repro.eval.ndcg import (
    dcg_at,
    ideal_dcg,
    ndcg_at,
    ndcg_curve,
    mean_ndcg_at,
    precision_at,
    average_precision,
)
from repro.eval.harness import (
    RankingEvaluation,
    MethodEvaluation,
    RankingExperiment,
)
from repro.eval.reporting import format_table, format_series, format_float

__all__ = [
    "dcg_at",
    "ideal_dcg",
    "ndcg_at",
    "ndcg_curve",
    "mean_ndcg_at",
    "precision_at",
    "average_precision",
    "RankingEvaluation",
    "MethodEvaluation",
    "RankingExperiment",
    "format_table",
    "format_series",
    "format_float",
]
