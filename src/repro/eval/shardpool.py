"""Evaluation harness for the process-per-shard serving pool.

The pool's contract mirrors the sharded engine's — *parity at parallel
speed* — but across process boundaries: each worker interpreter scores
one shard with no shared GIL, so the fan-out speedup is real on
multi-core machines, where the in-process N-shard engine only loops.
:func:`pool_sweep` checks both halves in one pass: it times a
``rank_batch`` workload on the monolithic engine and on process pools of
increasing shard counts (saving each sharded layout to disk first, since
workers load from the manifest), verifies every pooled ranking against
the monolithic one with the shared tie-aware comparator
(:func:`~repro.search.vsm.mismatched_probes`), asserts every fan-out was
complete (no degraded reads), and records per-worker cold-start load
time so mmap-vs-eager open cost shows up in the same report.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.eval.sharding import _fanout_sweep
from repro.search.engine import SearchEngine
from repro.search.shardpool import ShardPoolConfig, ShardProcessPool
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

    For each shard count, partitions ``engine``, saves the sharded
    layout (``mmap_ready=mmap``) under ``directory`` (a temporary
    directory by default), opens a :class:`ShardProcessPool` over it,
    times ``rank_batch`` over ``queries`` (best of ``repeats``) and
    verifies every ranking.  The first returned row is the monolithic
    baseline (``Shards == 0``); pool rows carry the speedup relative to
    it plus the worst per-worker cold-start time.  Raises on any parity
    violation or degraded fan-out — a fast wrong (or partial) answer is
    not a result.
    """
    cold_starts = [0.0]  # the baseline row's
    with tempfile.TemporaryDirectory() as default_dir:
        base_dir = Path(directory) if directory is not None else Path(default_dir)

        @contextmanager
        def contender(num_shards: int):
            save_dir = base_dir / f"pool-{num_shards}"
            with SearchEngine.from_engine(
                engine, num_shards=num_shards, cache_entries=None
            ) as sharded:
                sharded.save(save_dir, mmap_ready=mmap)
            with ShardProcessPool(save_dir, config) as pool:

                def rank() -> list:
                    outcome = pool.rank_batch_detailed(queries, top_k=top_k)
                    if not outcome.complete:
                        raise ConfigurationError(
                            f"{num_shards}-shard pool fan-out degraded: "
                            f"{outcome.failures}"
                        )
                    return outcome.results

                yield f"{num_shards}-process pool", rank
                cold_starts.append(max(pool.worker_load_seconds()))

        rows = _fanout_sweep(
            "pool_sweep", engine, queries, shard_counts, top_k, repeats, contender
        )
    for row, cold_start in zip(rows, cold_starts):
        row["Cold-start s"] = round(cold_start, 6)
    return rows
