#!/usr/bin/env python
"""Serving front-end: micro-batched queries, admission control, metrics.

The batched scoring path answers a *batch* of queries ~20x faster per
query than one-at-a-time calls, but production traffic arrives as
concurrent single queries.  This example walks the layer that closes the
gap:

1. build an engine (one space, fronted by a query cache) and wrap it in a
   :class:`~repro.serve.frontend.BatchingFrontend` — concurrent
   ``submit(tags, top_k)`` calls coalesce under a micro-batch window into
   single ``snapshot_rank_batch`` reads, identical in-flight queries are
   scored once and fanned out to every waiter;
2. drive it from concurrent client threads and read the telemetry:
   batch-size distribution, coalescing counters, per-stage latency;
3. saturate a deliberately tiny admission queue and watch overflow get
   shed with typed ``Overloaded`` errors instead of queueing unboundedly;
4. export everything in the Prometheus text format;
5. sweep batch-window configurations (the tuning table for a deployment);
6. re-prove the workload-replay invariants (zero errors, 1e-9 parity,
   epoch monotonicity) with every query routed through the front-end.

Run with::

    python examples/serving_frontend.py
"""

from __future__ import annotations

import threading
import warnings

from repro.core.concepts import identity_concept_model
from repro.datasets.generator import FolksonomyGenerator, GeneratorConfig
from repro.datasets.vocabulary import build_default_vocabulary
from repro.eval.reporting import format_table
from repro.eval.serve import frontend_sweep
from repro.load import WorkloadConfig, WorkloadGenerator, check_replay_parity
from repro.search.cache import QueryCache
from repro.search.engine import SearchEngine
from repro.serve import BatchingFrontend, FrontendConfig, Overloaded
from repro.utils.errors import ConvergenceWarning

warnings.filterwarnings("ignore", category=ConvergenceWarning)

NUM_CLIENTS = 4


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A corpus, a cached engine, a batching front-end around it.
    # ------------------------------------------------------------------ #
    config = GeneratorConfig(
        num_users=100,
        num_resources=300,
        num_interest_groups=6,
        concepts_per_group=4,
        num_archetypes=8,
        mean_posts_per_user=12.0,
        max_tags_per_post=3,
        seed=33,
    )
    vocabulary = build_default_vocabulary(domains=("academic", "music"))
    dataset = FolksonomyGenerator(config, vocabulary).generate(name="serve")
    folksonomy = dataset.folksonomy
    print("== corpus ==")
    print(folksonomy)
    print()

    def build_engine():
        built = SearchEngine.build(
            folksonomy, identity_concept_model(folksonomy.tags), name="serve"
        )
        return SearchEngine(
            built.concept_model, built.matrix_space, name=built.name, cache=QueryCache()
        )

    trace = WorkloadGenerator(
        WorkloadConfig(num_operations=300, seed=7, top_k=10)
    ).generate(folksonomy)
    queries = [list(query) for query in trace.eval_queries] * 6

    # ------------------------------------------------------------------ #
    # 2. Concurrent clients through the micro-batch window.
    # ------------------------------------------------------------------ #
    engine = build_engine()
    frontend = BatchingFrontend(
        engine, FrontendConfig(max_batch_size=8, max_wait_ms=2.0)
    )

    def client(client_id: int) -> None:
        for position in range(client_id, len(queries), NUM_CLIENTS):
            frontend.query(queries[position], top_k=10)

    threads = [
        threading.Thread(target=client, args=(client_id,))
        for client_id in range(NUM_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = frontend.stats()
    sizes = frontend.metrics.size_distribution("batch_distinct_queries")
    print("== micro-batching (4 concurrent clients) ==")
    print(
        f"{stats['counters']['submitted']} submissions coalesced into "
        f"{stats['counters']['batches']} engine calls "
        f"(mean batch {sizes.mean:.1f} distinct queries, max {sizes.max}); "
        f"{stats['counters']['coalesced']} duplicate in-flight submissions "
        "were deduplicated"
    )
    print(f"cache (owned by the {stats['cache_owner']}): {stats['cache']}")
    print(
        "queue wait  " + frontend.metrics.latency("stage.queue").summary()
    )
    print(
        "engine call " + frontend.metrics.latency("stage.engine").summary()
    )
    print(
        "end to end  " + frontend.metrics.latency("stage.total").summary()
    )
    print()

    # ------------------------------------------------------------------ #
    # 3. Admission control: a saturated queue sheds, it does not balloon.
    # ------------------------------------------------------------------ #
    shed_frontend = BatchingFrontend(
        engine,
        # A wide-open window plus a tiny in-flight bound: submissions
        # accumulate against max_wait and the overflow is shed.
        FrontendConfig(max_batch_size=64, max_wait_ms=150.0, max_pending=16),
        name="overload-demo",
    )
    futures = []
    shed = 0
    for attempt in range(64):
        try:
            futures.append(
                shed_frontend.submit([f"burst-{attempt}"], top_k=5)
            )
        except Overloaded:
            shed += 1
    for future in futures:
        future.result()
    print("== admission control (burst of 64 into a 16-deep queue) ==")
    print(
        f"admitted {len(futures)}, shed {shed} with typed Overloaded "
        f"errors; controller says: {shed_frontend.admission!r}"
    )
    shed_frontend.close()
    print()

    # ------------------------------------------------------------------ #
    # 4. Prometheus-style metrics export.
    # ------------------------------------------------------------------ #
    export = frontend.metrics.export_text().splitlines()
    print("== metrics export (first 14 of", len(export), "lines) ==")
    for line in export[:14]:
        print(line)
    print("...")
    frontend.close()
    print()

    # ------------------------------------------------------------------ #
    # 5. Batch-window tuning sweep (parity with direct rank_batch
    #    enforced inside).
    # ------------------------------------------------------------------ #
    rows, _registries = frontend_sweep(
        engine,
        queries,
        windows=((1, 0.0), (4, 1.0), (8, 2.0)),
        num_clients=NUM_CLIENTS,
        top_k=10,
    )
    print("== batch-window sweep (every row 1e-9-verified) ==")
    print(format_table(rows))
    engine.close()
    print()

    # ------------------------------------------------------------------ #
    # 6. Replay invariants through the batching path.
    # ------------------------------------------------------------------ #
    verdict = check_replay_parity(
        build_engine,
        trace,
        num_workers=4,
        frontend_config=FrontendConfig(max_batch_size=8, max_wait_ms=2.0),
    )
    print("== workload replay with queries routed through the front-end ==")
    print(verdict.summary())
    if not verdict.ok:
        raise SystemExit("replay invariants violated through the front-end")


if __name__ == "__main__":
    main()
