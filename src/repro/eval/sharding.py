"""Evaluation harness for the sharded serving architecture.

The sharded engine's contract is *parity at parallel speed*: fan-out plus
heap-merge must reproduce the monolithic rankings exactly while spreading
the matmul work over cores.  :func:`sharding_sweep` checks both halves in
one pass — it times a ``rank_batch`` workload on the monolithic engine and
on sharded engines of increasing shard counts, verifies every sharded
ranking against the monolithic one, and returns report rows for
:func:`repro.eval.reporting.format_table`.

:func:`rankings_match` is the tie-aware comparator shared with the
benchmark gate: scores must agree position by position within ``tol``, and
resources must agree except *within* a group of scores tied at ``tol``,
where summation-order noise between scoring backends may legally permute
the deterministic tie-break (and a top-k cut may change the boundary
group's membership).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.search.engine import SearchEngine
from repro.search.vsm import RankedResult
from repro.utils.errors import ConfigurationError


def rankings_match(
    got: Sequence[RankedResult],
    want: Sequence[RankedResult],
    tol: float = 1e-9,
    truncated: bool = False,
) -> bool:
    """Whether two ranked lists agree to ``tol`` (tie groups may permute)."""
    if len(got) != len(want):
        return False
    position = 0
    while position < len(want):
        group_end = position
        while (
            group_end + 1 < len(want)
            and abs(want[group_end + 1].score - want[position].score) <= tol
        ):
            group_end += 1
        for got_result, want_result in zip(
            got[position : group_end + 1], want[position : group_end + 1]
        ):
            if abs(got_result.score - want_result.score) > tol:
                return False
        boundary = truncated and group_end + 1 == len(want)
        if not boundary:
            got_members = {r.resource for r in got[position : group_end + 1]}
            want_members = {r.resource for r in want[position : group_end + 1]}
            if got_members != want_members:
                return False
        position = group_end + 1
    return True


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
    :func:`rankings_match`.  The first returned row is the monolithic
    baseline (``Shards == 0``); sharded rows carry the speedup relative to
    it.  ``cache_entries`` sizes the sharded engines' query cache (default
    disabled, so the sweep times actual scoring).  Raises on any parity
    violation — a fast wrong answer is not a result.
    """
    if not queries:
        raise ConfigurationError("sharding_sweep needs a non-empty workload")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")

    baseline_seconds = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        want = engine.rank_batch(queries, top_k=top_k)
        baseline_seconds = min(
            baseline_seconds, time.perf_counter() - started
        )
    rows: List[Dict[str, object]] = [
        {
            "Shards": 0,
            "Engine": "monolithic",
            "Seconds": round(baseline_seconds, 6),
            "Queries/s": round(len(queries) / baseline_seconds, 1),
            "Speedup": 1.0,
        }
    ]
    for num_shards in shard_counts:
        sharded = SearchEngine.from_engine(
            engine, num_shards=num_shards, cache_entries=cache_entries
        )
        try:
            seconds = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                got = sharded.rank_batch(queries, top_k=top_k)
                seconds = min(seconds, time.perf_counter() - started)
            for got_results, want_results in zip(got, want):
                if not rankings_match(
                    got_results,
                    want_results,
                    truncated=top_k is not None,
                ):
                    raise ConfigurationError(
                        f"{num_shards}-shard rankings diverged from the "
                        "monolithic engine"
                    )
        finally:
            sharded.close()
        rows.append(
            {
                "Shards": num_shards,
                "Engine": f"{num_shards}-shard fan-out",
                "Seconds": round(seconds, 6),
                "Queries/s": round(len(queries) / seconds, 1),
                "Speedup": round(baseline_seconds / seconds, 2),
            }
        )
    return rows
