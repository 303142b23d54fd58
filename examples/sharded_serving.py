#!/usr/bin/env python
"""Sharded serving: partition the index, fan out queries, cache results.

The paper's online component is cheap cosine scoring — but one process with
one resource matrix still caps corpus size and throughput.  This example
shows the production-shaped serving stack built on top of it:

1. fit the offline pipeline once (monolithic, as always),
2. partition the compiled concept space into 4 shards behind a stable-hash
   router; score a query batch on every shard and heap-merge
   the per-shard top-k — rankings are verified against the monolithic
   engine as we go,
3. serve repeated queries from the LRU result cache (exact hits skip
   scoring entirely) and watch mutations route to their owning shard,
   invalidate the cache and advance the engine staleness report,
4. checkpoint the sharded layout (per-shard ``.npz`` + manifest) and
   restore it — whole, or one shard per process.

Run with::

    python examples/sharded_serving.py
"""

from __future__ import annotations

import tempfile
import warnings

import numpy as np

from repro.core.pipeline import CubeLSIPipeline
from repro.core.snapshots import IndexSnapshotStore
from repro.datasets.profiles import LASTFM_PROFILE, generate_profile_dataset
from repro.eval.reporting import format_table
from repro.eval.sharding import sharding_sweep
from repro.search.engine import SearchEngine
from repro.tagging.cleaning import CleaningConfig, clean_folksonomy
from repro.tagging.delta import FolksonomyDeltaBuilder
from repro.utils.errors import ConvergenceWarning

warnings.filterwarnings("ignore", category=ConvergenceWarning)

NUM_SHARDS = 4


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Offline: fit once (the expensive tensor analysis is untouched).
    # ------------------------------------------------------------------ #
    dataset = generate_profile_dataset(LASTFM_PROFILE, scale=0.4, seed=42)
    cleaned, _ = clean_folksonomy(
        dataset.folksonomy, CleaningConfig(min_assignments=5)
    )
    pipeline = CubeLSIPipeline(
        reduction_ratios=(25.0, 3.0, 40.0), num_concepts=20, seed=0, min_rank=4
    )
    index = pipeline.fit(cleaned)
    print("== offline fit ==")
    print(cleaned)
    print(f"concepts: {index.num_concepts}, offline {index.preprocessing_seconds():.2f}s")
    print()

    # ------------------------------------------------------------------ #
    # 2. Shard the serving side and prove parity at speed.
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(9)
    tags = list(cleaned.tags)
    queries = [
        [tags[i] for i in rng.choice(len(tags), size=3, replace=False)]
        for _ in range(64)
    ]
    rows = sharding_sweep(
        index.engine, queries, shard_counts=(2, NUM_SHARDS), top_k=10
    )
    print("== fan-out sweep (parity with the monolithic engine enforced) ==")
    print(format_table(rows))
    print()

    with SearchEngine.from_engine(index.engine, NUM_SHARDS) as sharded:
        index.engine = sharded  # the serving stack is now the sharded engine
        print(f"{sharded!r}, shard sizes {sharded.shard_sizes()}")

        # ------------------------------------------------------------- #
        # 3. Cache hits and shard-routed mutations.
        # ------------------------------------------------------------- #
        sharded.rank_batch(queries, top_k=10)  # cold: fills the cache
        sharded.rank_batch(queries, top_k=10)  # warm: served from the cache
        print(f"cache after a repeated batch: {sharded.cache.stats()}")

        # Deltas go through the index so the folksonomy and the engine stay
        # consistent — exactly what the snapshot below will persist.
        delta = (
            FolksonomyDeltaBuilder()
            .add_resource("track-new-1", {"listener-a": [tags[0], tags[2]]})
            .add_resource("track-new-2", {"listener-b": [tags[1]]})
            .remove_resource(index.folksonomy, index.folksonomy.resources[0])
            .build()
        )
        index.apply_delta(delta)
        print(f"cache after mutations (invalidated): {len(sharded.cache)} entries")
        print(f"staleness: {sharded.staleness().summary()}")
        print()

        # ------------------------------------------------------------- #
        # 4. Sharded snapshots: restore whole, or one shard per process.
        # ------------------------------------------------------------- #
        with tempfile.TemporaryDirectory() as directory:
            store = IndexSnapshotStore(directory)
            checkpoint = store.save(index)
            print(f"checkpointed sharded layout -> {checkpoint.name}/")

            serving = store.load()
            query = [tags[0], tags[1]]
            print(f"restored {serving.engine!r} answers {query}:")
            for result in serving.engine.search(query, top_k=3):
                print(f"  {result.rank}. {result.resource}  score={result.score:.3f}")
            serving.engine.close()

            shard_worker = SearchEngine.load_shard(checkpoint, 0)
            print(
                f"single-shard worker serves "
                f"{shard_worker.num_indexed_resources} of "
                f"{sharded.num_indexed_resources} resources "
                "(scores match the full engine for its residents)"
            )


if __name__ == "__main__":
    main()
