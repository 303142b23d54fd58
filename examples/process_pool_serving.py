#!/usr/bin/env python
"""Process-per-shard serving: escape the GIL without changing a score.

The in-process N-shard engine keeps rankings exact but scores its shards
one after another (the postings scan is short numpy calls under one GIL,
so there is nothing to overlap).  This example runs the deployment that
scores them in parallel: one worker *process* per shard behind a
coordinating :class:`ShardProcessPool`.

1. fit the offline pipeline once and save a 4-shard artifact (raw
   ``.npy`` arrays every worker memory-maps),
2. start the pool and verify its merged rankings against the
   monolithic engine query-for-query,
3. run a failure drill: stall one worker and watch the read come back
   *degraded but typed and on time* (a ``ShardFailure``, never a
   hang), then watch the heartbeat revive the worker, and restart a
   worker outright to show it rejoins at exact parity,
4. put the :class:`BatchingFrontend` (admission, cache, in-flight
   dedup) in front of the pool — it is a drop-in engine — and read pool health out of the
   front-end's ``stats()``.

Run with::

    python examples/process_pool_serving.py
"""

from __future__ import annotations

import tempfile
import time
import warnings
from pathlib import Path

from repro.core.pipeline import CubeLSIPipeline
from repro.datasets.profiles import LASTFM_PROFILE, generate_profile_dataset
from repro.search.shardpool import ShardPoolConfig, ShardProcessPool
from repro.search.vsm import rankings_match
from repro.serve import BatchingFrontend, FrontendConfig
from repro.tagging.cleaning import CleaningConfig, clean_folksonomy
from repro.utils.errors import ConvergenceWarning

warnings.filterwarnings("ignore", category=ConvergenceWarning)

NUM_SHARDS = 4
TOP_K = 5


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Offline: fit once, save a pool-ready sharded artifact.
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
    print(f"{cleaned}")

    tags = sorted(cleaned.tags)
    queries = [[tag] for tag in tags[:24]] + [
        [tags[0], tags[7]],
        [tags[3], tags[11], tags[19]],
        ["no-such-tag"],
    ]
    golden = index.engine.rank_batch(queries, top_k=TOP_K)

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "index"
        index.save(artifact, num_shards=NUM_SHARDS)
        print(
            f"saved {NUM_SHARDS}-shard artifact "
            f"(epoch {index.engine.epoch}) -> shard_manifest.json + "
            "per-shard raw .npy arrays"
        )

        # -------------------------------------------------------------- #
        # 2. Online: one worker process per shard, exact merged rankings.
        # -------------------------------------------------------------- #
        config = ShardPoolConfig(request_timeout=1.5, heartbeat_timeout=1.0)
        with ShardProcessPool(artifact, config) as pool:
            loads = ", ".join(
                f"{seconds * 1e3:.1f}ms" for seconds in pool.worker_load_seconds()
            )
            print("\n== process pool up ==")
            print(
                f"{pool.num_shards} workers over {pool.num_indexed_resources} "
                f"resources, memory-mapped, cold starts: {loads}"
            )

            detailed = pool.rank_batch_detailed(queries, top_k=TOP_K)
            assert detailed.complete, detailed.failures
            assert len(set(detailed.shard_epochs.values())) == 1
            mismatches = sum(
                not rankings_match(a, b)
                for a, b in zip(golden, detailed.results)
            )
            print(
                f"{len(queries)} queries fanned out + heap-merged; "
                f"rankings vs monolithic engine: {mismatches} mismatches "
                f"(epoch {detailed.epoch} on every shard)"
            )

            # ---------------------------------------------------------- #
            # 3. Failure drill: stalls are typed, bounded and recoverable.
            # ---------------------------------------------------------- #
            print("\n== failure drill ==")
            pool.inject_stall(2, seconds=3.0)
            started = time.perf_counter()
            degraded = pool.rank_batch_detailed(queries, top_k=TOP_K)
            elapsed = time.perf_counter() - started
            kinds = {f.shard_id: f.kind for f in degraded.failures}
            print(
                f"stalled worker 2 -> read returned in {elapsed:.2f}s "
                f"(bounded by request_timeout={config.request_timeout}s) "
                f"with typed failures {kinds}, merged over the live shards"
            )

            time.sleep(3.2)  # let the stalled worker drain its nap
            revived = pool.rank_batch_detailed(queries, top_k=TOP_K)
            assert revived.complete, revived.failures
            print("heartbeat probe revived worker 2 -> reads complete again")

            pool.restart_worker(1)
            restarted = pool.rank_batch_detailed(queries, top_k=TOP_K)
            assert restarted.complete and all(
                rankings_match(a, b)
                for a, b in zip(golden, restarted.results)
            )
            print("restarted worker 1 from disk -> rejoined at exact parity")

            # ---------------------------------------------------------- #
            # 4. The front-end treats the pool as an engine.
            # ---------------------------------------------------------- #
            print("\n== front-end over the pool ==")
            frontend_config = FrontendConfig(max_pending=64)
            with BatchingFrontend(pool, frontend_config) as frontend:
                futures = [
                    frontend.submit(query, top_k=TOP_K) for query in queries
                ]
                responses = [future.result(timeout=30.0) for future in futures]
                assert all(
                    rankings_match(expected, response.results)
                    for expected, response in zip(golden, responses)
                )
                stats = frontend.stats()
                health = stats["engine_health"]
                states = [
                    worker["state"] for worker in health["workers"]
                ]
                print(
                    f"{len(responses)} futures resolved on arrival "
                    f"at epoch {responses[0].epoch}; pool health "
                    f"via stats(): states={states}, "
                    f"restarts={[w['restarts'] for w in health['workers']]}, "
                    f"degraded_reads={health['degraded_reads']}"
                )
                print(
                    "metrics excerpt:\n"
                    + "\n".join(
                        line
                        for line in frontend.metrics.export_text().splitlines()
                        if line.startswith("repro_serve_submitted")
                        or line.startswith("repro_serve_batches")
                    )
                )

    print("\nprocess-pool serving workflow complete.")


if __name__ == "__main__":
    main()
