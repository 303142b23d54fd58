"""Evaluation harness for the process-per-shard serving pool.

The pool's contract is *parity at parallel speed*: each worker
interpreter scores one shard of an N-shard save with no shared GIL, and
the heap-merged fan-out must reproduce the one-space engine's rankings.
:func:`pool_sweep` checks both halves in one pass: it times a
``rank_batch`` workload on the engine and on process pools of increasing
shard counts (saving each layout to disk first, since workers load from
the manifest), verifies every pooled ranking against the engine's with
the shared tie-aware comparator
(:func:`~repro.search.vsm.mismatched_probes`), asserts every fan-out was
complete (no degraded reads), and records per-worker cold-start load
time so mmap-vs-eager open cost shows up in the same report.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.search.shardpool import ShardPoolConfig, ShardProcessPool
from repro.search.vsm import mismatched_probes
from repro.utils.errors import ConfigurationError


def pool_sweep(
    engine,
    queries: Sequence[Sequence[str]],
    shard_counts: Sequence[int] = (1, 2, 4),
    top_k: Optional[int] = 10,
    repeats: int = 3,
    mmap: bool = True,
    directory: Optional[Union[str, Path]] = None,
    config: Optional[ShardPoolConfig] = None,
) -> List[Dict[str, object]]:
    """Time and parity-check process pools against a monolithic engine.

    For each shard count, saves ``engine`` in that many shards
    (``mmap_ready=mmap``) under ``directory`` (a temporary directory by
    default), opens a :class:`ShardProcessPool` over it, times
    ``rank_batch`` over ``queries`` (best of ``repeats``) and verifies
    every ranking.  The first returned row is the monolithic baseline
    (``Shards == 0``); pool rows carry the speedup relative to it plus the
    worst per-worker cold-start time.  Raises on any parity violation or
    degraded fan-out — a fast wrong (or partial) answer is not a result.
    """
    if not queries:
        raise ConfigurationError("pool_sweep needs a non-empty workload")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")

    def best_of(rank: Callable[[], list]) -> Tuple[float, list]:
        seconds = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            results = rank()
            seconds = min(seconds, time.perf_counter() - started)
        return seconds, results

    def row(
        num_shards: int, label: str, seconds: float, cold_start: float
    ) -> Dict[str, object]:
        return {
            "Shards": num_shards,
            "Engine": label,
            "Seconds": round(seconds, 6),
            "Queries/s": round(len(queries) / seconds, 1),
            "Speedup": round(baseline_seconds / seconds, 2),
            "Cold-start s": round(cold_start, 6),
        }

    baseline_seconds, want = best_of(
        lambda: engine.rank_batch(queries, top_k=top_k)
    )
    rows = [row(0, "monolithic", baseline_seconds, 0.0)]
    with tempfile.TemporaryDirectory() as default_dir:
        base_dir = Path(directory) if directory is not None else Path(default_dir)
        for num_shards in shard_counts:
            label = f"{num_shards}-process pool"
            save_dir = base_dir / f"pool-{num_shards}"
            engine.save(save_dir, mmap_ready=mmap, num_shards=num_shards)
            with ShardProcessPool(save_dir, config) as pool:

                def rank() -> list:
                    outcome = pool.rank_batch_detailed(queries, top_k=top_k)
                    if not outcome.complete:
                        raise ConfigurationError(
                            f"{label} fan-out degraded: {outcome.failures}"
                        )
                    return outcome.results

                seconds, got = best_of(rank)
                cold_start = max(pool.worker_load_seconds())
            if mismatched_probes(got, want, truncated=top_k is not None):
                raise ConfigurationError(
                    f"{label} rankings diverged from the monolithic engine"
                )
            rows.append(row(num_shards, label, seconds, cold_start))
    return rows
