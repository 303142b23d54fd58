"""In-process sharding cost and query-cache latency: the serving gates.

Two claims back the sharded architecture, and this file checks both:

* **Sharding is exact and not pathological.** A 4-shard
  :class:`SearchEngine` ranks a ``rank_batch`` workload shard by shard on
  the calling thread and heap-merges the per-shard top-k (the parallel
  reader is the process pool, ``test_bench_shardpool.py``).  Its
  throughput relative to the monolith is *recorded* and held to a sanity
  floor on every machine; every sharded ranking is verified against the
  monolithic engine to 1e-9 — a fast wrong answer is not a result.
* **Exact hits are nearly free.** A warm :class:`QueryCache` must answer
  an exact-hit ``search`` at least 10x faster than re-scoring the query
  from scratch (the cache lookup is one dict probe against a canonical tag
  multiset, versus a postings scan per shard + merge).  The gate times
  per-request ``search`` calls — the unit a cache actually serves.
"""

from __future__ import annotations

import os
import time
from typing import List

import numpy as np

from conftest import record_metric, record_report
from repro.core.concepts import Concept, ConceptModel
from repro.eval.reporting import format_table
from repro.eval.sharding import rankings_match, sharding_sweep
from repro.search.engine import SearchEngine
from repro.tagging.folksonomy import Folksonomy
from repro.utils.timing import format_duration

NUM_RESOURCES = 4000
NUM_TAGS = 720
NUM_USERS = 300
NUM_CONCEPTS = 240
NUM_QUERIES = 192
TOP_K = 20
SHARD_COUNTS = (1, 2, 4)
#: Per-shard call overhead plus the heap merge must never make sharding
#: pathologically slower than the monolith.
MIN_FANOUT_SANITY_RATIO = 0.2
#: An exact cache hit (~8 us) must beat re-scoring (~125 us since the
#: postings kernel; ~600 us before it) by this factor on any core count.
MIN_CACHE_SPEEDUP = 10.0


def build_corpus(seed: int = 97):
    """A NUM_RESOURCES-sized folksonomy plus a many-tags-per-concept model."""
    rng = np.random.default_rng(seed)
    records = []
    for resource in range(NUM_RESOURCES):
        tags = rng.choice(NUM_TAGS, size=12, replace=False)
        for tag in tags:
            user = int(rng.integers(NUM_USERS))
            records.append((f"u{user}", f"t{int(tag):03d}", f"r{resource:04d}"))
    folksonomy = Folksonomy(records, name="bench-sharding")

    groups: List[List[str]] = [[] for _ in range(NUM_CONCEPTS)]
    for tag in folksonomy.tags:
        groups[int(tag[1:]) % NUM_CONCEPTS].append(tag)
    concepts = [
        Concept(concept_id=index, tags=tuple(sorted(group)))
        for index, group in enumerate(groups)
    ]
    tag_to_concept = {
        tag: concept.concept_id for concept in concepts for tag in concept.tags
    }
    model = ConceptModel(concepts=concepts, tag_to_concept=tag_to_concept)

    queries = []
    tags = list(folksonomy.tags)
    for _ in range(NUM_QUERIES):
        size = int(rng.integers(3, 7))
        chosen = rng.choice(len(tags), size=size, replace=False)
        queries.append([tags[index] for index in chosen])
    return folksonomy, model, queries


def test_four_shard_fanout_throughput_with_exact_parity():
    folksonomy, model, queries = build_corpus()
    engine = SearchEngine.build(folksonomy, model, name="mono")
    rows = sharding_sweep(
        engine, queries, shard_counts=SHARD_COUNTS, top_k=TOP_K, repeats=3
    )

    cores = os.cpu_count() or 1
    four_shard = next(row for row in rows if row["Shards"] == 4)
    speedup = float(four_shard["Speedup"])
    record_metric("four_shard_fanout_speedup", speedup)
    record_report(
        "== sharding: 4-shard rank_batch vs monolithic engine ==\n"
        + format_table(rows)
        + f"\ncorpus: {NUM_RESOURCES} resources, {folksonomy.num_tags} tags, "
        f"{NUM_CONCEPTS} concepts; {NUM_QUERIES} queries @ top-{TOP_K}; "
        f"{cores} cores\n"
        f"4-shard speedup: {speedup:.2f}x (recorded, not asserted; parity "
        "with the monolithic rankings verified to 1e-9 inside the sweep)"
    )
    assert speedup >= MIN_FANOUT_SANITY_RATIO, (
        f"4-shard engine collapsed to {speedup:.2f}x on {cores} core(s) — "
        f"per-shard/merge overhead is pathological "
        f"(required >= {MIN_FANOUT_SANITY_RATIO}x)"
    )


def test_exact_hit_query_cache_is_10x_faster_than_rescoring():
    folksonomy, model, queries = build_corpus(seed=101)
    engine = SearchEngine.build(folksonomy, model, name="mono")
    cached = SearchEngine.from_engine(
        engine, num_shards=2, cache_entries=4096
    )
    uncached = SearchEngine.from_engine(
        engine, num_shards=2, cache_entries=None
    )
    try:
        cached.rank_batch(queries, top_k=TOP_K)  # warm every key
        assert cached.cache.misses == len(queries)

        rescore_seconds = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            want = [uncached.search(query, top_k=TOP_K) for query in queries]
            rescore_seconds = min(
                rescore_seconds, time.perf_counter() - started
            )

        hit_seconds = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            got = [cached.search(query, top_k=TOP_K) for query in queries]
            hit_seconds = min(hit_seconds, time.perf_counter() - started)

        assert cached.cache.hit_rate > 0.5
        for got_results, want_results in zip(got, want):
            assert rankings_match(got_results, want_results, truncated=True)

        speedup = rescore_seconds / hit_seconds
        per_hit = hit_seconds / len(queries)
        record_metric("cache_hit_vs_rescore_speedup", speedup)
        record_report(
            "== sharding: exact-hit QueryCache vs re-scoring ==\n"
            f"re-score {NUM_QUERIES} queries : {format_duration(rescore_seconds)} "
            f"({NUM_QUERIES / rescore_seconds:,.0f} q/s)\n"
            f"cache-hit same queries   : {format_duration(hit_seconds)} "
            f"({NUM_QUERIES / hit_seconds:,.0f} q/s, "
            f"{format_duration(per_hit)}/hit)\n"
            f"speedup: {speedup:.0f}x; cache stats: {cached.cache.stats()}"
        )
        assert speedup >= MIN_CACHE_SPEEDUP, (
            f"exact cache hits only {speedup:.1f}x faster than re-scoring "
            f"(required >= {MIN_CACHE_SPEEDUP}x)"
        )
    finally:
        cached.close()
        uncached.close()
