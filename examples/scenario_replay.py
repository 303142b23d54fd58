#!/usr/bin/env python
"""Scenario replay: production-shaped incidents, each under its invariant.

``examples/workload_replay.py`` proves the serving stack against a
*steady* mixed stream; this example drives it through the named incident
profiles from :mod:`repro.load.scenarios` — the situations an operator
actually gets paged for — and verifies each against its own typed
invariant on top of the replay parity bar:

* ``flash_crowd`` — mid-trace, queries collapse onto two hot keys; the
  micro-batching front-end must amortize them (dedup + exact-hit cache)
  with a bounded shed rate and zero wrong answers,
* ``diurnal`` — sinusoidal arrival pacing; the paced replay's wall clock
  must honour the curve,
* ``multi_tenant`` — 60/30/10 Zipf-skewed tenants; per-tenant latency
  books must partition the aggregate exactly (no double counting) and
  per-tenant admission books must cover every tenant,
* ``rebuild_storm`` — a write-heavy burst; every mutation batch must
  land exactly once (final epoch == mutation count),
* ``chaos`` — a seeded fault plan kills and stalls shard-pool workers
  mid-replay; every degraded read must be a typed error (never a hang,
  never a silent truncation presented as complete) and the revived pool
  must reconverge to 1e-9 probe parity against a golden engine.

Run with::

    python examples/scenario_replay.py
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

from repro.core.concepts import identity_concept_model
from repro.datasets.generator import FolksonomyGenerator, GeneratorConfig
from repro.datasets.vocabulary import build_default_vocabulary
from repro.eval.reporting import format_table
from repro.eval.workload import scenario_sweep
from repro.load import SCENARIO_NAMES, build_scenario
from repro.search.cache import QueryCache
from repro.search.engine import SearchEngine
from repro.utils.errors import ConvergenceWarning

warnings.filterwarnings("ignore", category=ConvergenceWarning)

NUM_SHARDS = 4
NUM_WORKERS = 4


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A corpus, and the five named scenario profiles over it.
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
    dataset = FolksonomyGenerator(config, vocabulary).generate(name="scenario")
    folksonomy = dataset.folksonomy
    print("== corpus ==")
    print(folksonomy)
    print()

    print("== scenario profiles (seeded, byte-identical on every run) ==")
    for name in SCENARIO_NAMES:
        scenario = build_scenario(name, folksonomy, seed=5)
        detail = scenario.description or (
            f"{len(scenario.trace)} ops, "
            f"{scenario.trace.num_mutations} mutation batches"
        )
        print(f"  {name:>14}: {detail}")
    print()

    def build_engine():
        built = SearchEngine.build(
            folksonomy, identity_concept_model(folksonomy.tags), name="scenario"
        )
        return SearchEngine(
            built.concept_model, built.matrix_space, name=built.name, cache=QueryCache()
        )

    # ------------------------------------------------------------------ #
    # 2. The chaos profile replays against a real process pool, so it
    #    needs an N-shard save to fault workers of.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        save_dir = Path(tmp) / "index"
        SearchEngine.build(
            folksonomy, identity_concept_model(folksonomy.tags), name="scenario"
        ).save(save_dir, mmap_ready=True, num_shards=NUM_SHARDS)

        # ------------------------------------------------------------- #
        # 3. Replay every profile under its invariant; any violation
        #    raises instead of reporting.
        # ------------------------------------------------------------- #
        rows, verdicts = scenario_sweep(
            build_engine,
            folksonomy,
            seed=5,
            num_workers=NUM_WORKERS,
            save_dir=save_dir,
        )

    print(
        f"== scenario sweep (cached engine; chaos over a {NUM_SHARDS}-process "
        f"pool; {NUM_WORKERS} workers; every row passed its invariant) =="
    )
    print(format_table(rows))
    print()
    for verdict in verdicts:
        print(verdict.summary())


if __name__ == "__main__":
    main()
