"""Process-pool fan-out throughput and cold-start cost.

``test_bench_sharding.py`` records what in-process sharding costs —
scipy's sparse matmul holds the GIL, so an N-shard engine scores its
shards one after another and is *slower* than the monolith.  The process
pool is the parallel reader, and this file measures it:

* **Fan-out vs the one-shard engine.** A 4-shard
  :class:`ShardProcessPool` (one worker interpreter per shard, no shared
  GIL) ranks the same workload as the one-shard engine; the sweep runs
  end to end, every pooled ranking is verified against the engine to
  1e-9, and every fan-out must be complete (a degraded read fails the
  bench).  The speedup is recorded, not asserted: it is a property of
  the core count and of pipe IPC (0.10x on a 2-core box), and
  ``compare_baseline.py`` against ``baseline.json`` is its only judge.
* **mmap opens are cheap.** Workers memory-map the ``mmap_ready`` save
  layout instead of decompressing ``.npz`` archives into RAM; the bench
  records worker cold-start (array open) time for mmap vs eager loads
  into ``BENCH_results.json``.  Absolute seconds are machine-dependent,
  so they are recorded for trend-watching rather than anchored in
  ``baseline.json`` (the comparator would gate every slower runner red).
"""

from __future__ import annotations

import os

from conftest import record_metric, record_report
from repro.eval.reporting import format_table
from repro.eval.shardpool import pool_sweep
from repro.search.engine import SearchEngine
from repro.search.shardpool import ShardProcessPool
from test_bench_sharding import (
    NUM_CONCEPTS,
    NUM_QUERIES,
    NUM_RESOURCES,
    TOP_K,
    build_corpus,
)

SHARD_COUNTS = (1, 2, 4)
#: Cold starts must stay interactive on any machine (loose sanity bound).
MAX_COLD_START_SECONDS = 30.0


def test_four_shard_process_pool_speedup_with_exact_parity(tmp_path):
    folksonomy, model, queries = build_corpus(seed=103)
    engine = SearchEngine.build(folksonomy, model, name="mono")
    rows = pool_sweep(
        engine,
        queries,
        shard_counts=SHARD_COUNTS,
        top_k=TOP_K,
        repeats=3,
        mmap=True,
        directory=tmp_path,
    )

    cores = os.cpu_count() or 1
    four_shard = next(row for row in rows if row["Shards"] == 4)
    speedup = float(four_shard["Speedup"])
    record_metric("four_shard_pool_speedup", speedup)
    record_report(
        "== shardpool: process-per-shard fan-out vs monolithic engine ==\n"
        + format_table(rows)
        + f"\ncorpus: {NUM_RESOURCES} resources, {folksonomy.num_tags} tags, "
        f"{NUM_CONCEPTS} concepts; {NUM_QUERIES} queries @ top-{TOP_K}; "
        f"{cores} cores\n"
        f"4-process speedup: {speedup:.2f}x (recorded, not asserted; parity "
        "with the monolithic rankings verified to 1e-9 inside the sweep, "
        "every fan-out complete)"
    )


def test_pool_cold_start_mmap_vs_eager(tmp_path):
    folksonomy, model, _queries = build_corpus(seed=107)
    engine = SearchEngine.build(folksonomy, model, name="mono")
    sharded = SearchEngine.from_engine(
        engine, num_shards=4, cache_entries=None
    )

    cold_starts = {}
    for label, mmap in (("mmap", True), ("eager", False)):
        # The pool maps exactly when the save is the raw ``.npy`` layout.
        save_dir = sharded.save(tmp_path / label, mmap_ready=mmap)
        best = float("inf")
        for _ in range(3):
            with ShardProcessPool(save_dir) as pool:
                assert pool.uses_mmap == mmap
                # Worst worker's array-open time: process spawn cost is
                # identical between the layouts, the load is what differs.
                best = min(best, max(pool.worker_load_seconds()))
        cold_starts[label] = best
        record_metric(f"pool_cold_start_{label}_seconds", best)

    record_report(
        "== shardpool: worker cold-start, mmap vs eager load ==\n"
        f"mmap  (npy, zero-copy open) : {cold_starts['mmap'] * 1e3:.2f} ms\n"
        f"eager (npz, read into RAM)  : {cold_starts['eager'] * 1e3:.2f} ms\n"
        "(worst worker per pool, best of 3 pools; recorded, not anchored — "
        "absolute seconds are machine properties)"
    )
    for label, seconds in cold_starts.items():
        assert seconds < MAX_COLD_START_SECONDS, (
            f"{label} cold start took {seconds:.1f}s — a shard open must "
            "stay interactive"
        )
