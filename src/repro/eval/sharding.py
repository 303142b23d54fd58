"""Evaluation harness for the sharded serving architecture.

The sharded engine's contract is *parity*: per-shard scoring plus
heap-merge must reproduce the monolithic rankings exactly (the parallel
reader is the process pool, :mod:`repro.eval.shardpool`).
:func:`sharding_sweep` checks parity and records the cost in one pass —
it times a ``rank_batch`` workload on the monolithic engine and
on sharded engines of increasing shard counts, verifies every sharded
ranking against the monolithic one, and returns report rows for
:func:`repro.eval.reporting.format_table`.

:func:`rankings_match`, the tie-aware comparator, lives next to
``RankedResult`` in :mod:`repro.search.vsm` and stays importable from here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.search.engine import SearchEngine
from repro.search.vsm import mismatched_probes, rankings_match
from repro.utils.errors import ConfigurationError

__all__ = ["rankings_match", "sharding_sweep"]


def _fanout_sweep(
    sweep: str,
    engine,
    queries: Sequence[Sequence[str]],
    shard_counts: Sequence[int],
    top_k: Optional[int],
    repeats: int,
    contender: Callable[[int], ContextManager[Tuple[str, Callable[[], list]]]],
) -> List[Dict[str, object]]:
    """Time ``engine`` and one contender per shard count; enforce parity.

    ``contender(num_shards)`` is a context manager yielding ``(label,
    rank)``: the row's engine label and a zero-argument callable ranking
    ``queries``.  Both sides are timed best-of-``repeats``; a contender
    whose rankings diverge from the baseline's raises.
    """
    if not queries:
        raise ConfigurationError(f"{sweep} needs a non-empty workload")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")

    def best_of(rank: Callable[[], list]) -> Tuple[float, list]:
        seconds = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            results = rank()
            seconds = min(seconds, time.perf_counter() - started)
        return seconds, results

    def row(num_shards: int, label: str, seconds: float) -> Dict[str, object]:
        return {
            "Shards": num_shards,
            "Engine": label,
            "Seconds": round(seconds, 6),
            "Queries/s": round(len(queries) / seconds, 1),
            "Speedup": round(baseline_seconds / seconds, 2),
        }

    baseline_seconds, want = best_of(
        lambda: engine.rank_batch(queries, top_k=top_k)
    )
    rows = [row(0, "monolithic", baseline_seconds)]
    for num_shards in shard_counts:
        with contender(num_shards) as (label, rank):
            seconds, got = best_of(rank)
        if mismatched_probes(got, want, truncated=top_k is not None):
            raise ConfigurationError(
                f"{label} rankings diverged from the monolithic engine"
            )
        rows.append(row(num_shards, label, seconds))
    return rows


def sharding_sweep(
    engine,
    queries: Sequence[Sequence[str]],
    shard_counts: Sequence[int] = (1, 2, 4),
    top_k: Optional[int] = 10,
    repeats: int = 3,
    cache_entries: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Time and parity-check sharded engines against a monolithic one.

    For each shard count, partitions ``engine`` (via
    :meth:`SearchEngine.from_engine`), times ``rank_batch`` over
    ``queries`` (best of ``repeats``) and verifies every ranking with
    :func:`~repro.search.vsm.mismatched_probes`.  The first returned row
    is the monolithic baseline (``Shards == 0``); sharded rows carry the
    speedup relative to it.  ``cache_entries`` sizes the sharded engines'
    query cache (default disabled, so the sweep times actual scoring).
    Raises on any parity violation — a fast wrong answer is not a result.
    """

    @contextmanager
    def contender(num_shards: int):
        with SearchEngine.from_engine(
            engine, num_shards=num_shards, cache_entries=cache_entries
        ) as sharded:
            yield (
                f"{num_shards}-shard fan-out",
                lambda: sharded.rank_batch(queries, top_k=top_k),
            )

    return _fanout_sweep(
        "sharding_sweep", engine, queries, shard_counts, top_k, repeats, contender
    )
