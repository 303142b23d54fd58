"""Evaluation metrics, experiment harness and report rendering.

* :mod:`repro.eval.ndcg` — graded-relevance ranking metrics (NDCG@N, Eq. 24)
  plus precision/recall helpers.
* :mod:`repro.eval.harness` — runs a set of rankers over a dataset + query
  workload, recording ranking quality and offline/online wall-clock times.
* :mod:`repro.eval.reporting` — plain-text table and series rendering used
  by the experiment drivers to print paper-style output.
* :mod:`repro.eval.incremental` — replay of folksonomy delta streams
  against a serving index (the streaming-update workload).
* :mod:`repro.eval.shardpool` — parity + throughput sweep of the
  process-per-shard pool (N is a save layout and a pool size) against the
  one-space engine: multi-core fan-out, cold-start cost, degraded reads
  rejected.
* :mod:`repro.eval.sharding` — re-exports the tie-aware comparator
  :func:`rankings_match`.
* :mod:`repro.eval.workload` — workload replay sweep: concurrent replay
  throughput at increasing worker counts, parity with the serial golden
  enforced.
* :mod:`repro.eval.serve` — batch-window sweep of the micro-batching
  serving front-end, parity with direct ``rank_batch`` enforced.
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
from repro.eval.incremental import (
    DeltaReplayReport,
    DeltaReplayStep,
    replay_deltas,
)
from repro.eval.serve import frontend_sweep
from repro.eval.sharding import rankings_match
from repro.eval.shardpool import pool_sweep
from repro.eval.workload import workload_sweep

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
    "DeltaReplayReport",
    "DeltaReplayStep",
    "replay_deltas",
    "rankings_match",
    "pool_sweep",
    "workload_sweep",
    "frontend_sweep",
]
