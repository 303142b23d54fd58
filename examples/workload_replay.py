#!/usr/bin/env python
"""Workload replay: simulate production traffic, prove concurrency safety.

The parity suites check the serving stack one hand-written call at a
time; this example drives it the way production would — a seeded, mixed
stream of Zipf-skewed queries, cache-hot repeats, mutation batches and
refresh ticks — and shows the subsystem's whole loop:

1. generate a deterministic workload trace over a corpus (same seed,
   same trace, forever),
2. replay it serially for the golden reference, recording per-op latency
   histograms and throughput,
3. replay it again across 4 concurrent worker threads (mutations applied
   in trace order, queries racing freely in between) and verify the
   invariants: zero errors, identical final state, 1e-9 ranking parity
   on the trace's evaluation probes, no epoch ever observed running
   backwards,
4. sweep worker counts and print the throughput/latency table — the
   report CI uploads as its workload-latency artefact.

Run with::

    python examples/workload_replay.py
"""

from __future__ import annotations

import warnings

from repro.core.concepts import identity_concept_model
from repro.datasets.generator import FolksonomyGenerator, GeneratorConfig
from repro.datasets.vocabulary import build_default_vocabulary
from repro.eval.reporting import format_table
from repro.eval.workload import workload_sweep
from repro.load import WorkloadConfig, WorkloadGenerator, check_replay_parity
from repro.search.cache import QueryCache
from repro.search.engine import SearchEngine
from repro.utils.errors import ConvergenceWarning

warnings.filterwarnings("ignore", category=ConvergenceWarning)

NUM_WORKERS = 4


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A corpus and a deterministic mixed workload over it.
    # ------------------------------------------------------------------ #
    config = GeneratorConfig(
        num_users=120,
        num_resources=400,
        num_interest_groups=6,
        concepts_per_group=5,
        num_archetypes=8,
        mean_posts_per_user=14.0,
        max_tags_per_post=3,
        seed=21,
    )
    vocabulary = build_default_vocabulary(domains=("academic", "music"))
    dataset = FolksonomyGenerator(config, vocabulary).generate(name="workload")
    folksonomy = dataset.folksonomy
    print("== corpus ==")
    print(folksonomy)
    print()

    trace = WorkloadGenerator(
        WorkloadConfig(num_operations=400, seed=5, top_k=10)
    ).generate(folksonomy)
    counts = trace.op_counts()
    print("== trace (seeded, byte-identical on every run) ==")
    print(
        f"{len(trace)} operations: {counts.get('query', 0)} queries "
        f"({trace.config.hot_fraction:.0%} cache-hot repeats, Zipf "
        f"s={trace.config.zipf_exponent}), {trace.num_mutations} mutation "
        f"batches, {counts.get('refresh', 0)} refresh ticks; "
        f"{len(trace.eval_queries)} evaluation probes"
    )
    print()

    def build_engine():
        built = SearchEngine.build(
            folksonomy, identity_concept_model(folksonomy.tags), name="workload"
        )
        return SearchEngine(
            built.concept_model, built.matrix_space, name=built.name, cache=QueryCache()
        )

    # ------------------------------------------------------------------ #
    # 2 + 3. Serial golden vs concurrent replay, invariants enforced.
    # ------------------------------------------------------------------ #
    verdict = check_replay_parity(
        build_engine, trace, num_workers=NUM_WORKERS
    )
    print("== serial golden vs 4-worker concurrent replay ==")
    print(verdict.summary())
    if not verdict.ok:
        raise SystemExit("replay invariants violated")
    print()

    # ------------------------------------------------------------------ #
    # 4. Worker-count sweep (parity re-enforced inside the sweep).
    # ------------------------------------------------------------------ #
    rows, _reports = workload_sweep(
        build_engine, trace, worker_counts=(1, 2, NUM_WORKERS)
    )
    print("== throughput sweep (workers=0 is the serial golden) ==")
    print(format_table(rows))


if __name__ == "__main__":
    main()
