#!/usr/bin/env python
"""Continuous refit: background Tucker refits with hot snapshot swaps.

``examples/quickstart.py`` ends by folding one delta into a reloaded
index.  Keep folding and the staleness policy eventually says a full
refit is due — but the refit takes seconds and serving must not stop.  This example closes that loop
with the lifecycle subsystem:

1. fit once, wrap the engine in an :class:`EngineHandle` (every read pins
   the current generation; every mutation is journaled),
2. stream mutation batches through the handle until the refresh policy's
   *refit* verdict (not just the cheap fold-in verdict) fires,
3. run the full Tucker refit in a **background process** via
   :class:`RefitCoordinator` while queries keep flowing — capture,
   fit, journal catch-up, publish as generation N+1, double-buffered
   swap,
4. show what changed: generation, epoch, store layout, and the swap and
   refit timings exported through the Prometheus metrics registry.

Run with::

    python examples/continuous_refit.py
"""

from __future__ import annotations

import tempfile
import warnings

import numpy as np

from repro.core.pipeline import CubeLSIPipeline
from repro.core.snapshots import IndexSnapshotStore
from repro.datasets.profiles import LASTFM_PROFILE, generate_profile_dataset
from repro.search.incremental import RefreshPolicy
from repro.search.lifecycle import EngineHandle, RefitCoordinator
from repro.tagging.cleaning import CleaningConfig, clean_folksonomy
from repro.utils.errors import ConvergenceWarning

warnings.filterwarnings("ignore", category=ConvergenceWarning)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Offline fit, then wrap the engine in a swappable handle.
    # ------------------------------------------------------------------ #
    dataset = generate_profile_dataset(LASTFM_PROFILE, scale=0.3, seed=42)
    cleaned, _ = clean_folksonomy(
        dataset.folksonomy, CleaningConfig(min_assignments=5)
    )
    pipeline_kwargs = dict(
        reduction_ratios=(25.0, 3.0, 40.0), num_concepts=16, seed=0, min_rank=4
    )
    index = CubeLSIPipeline(**pipeline_kwargs).fit(cleaned)
    # A tight policy so this small demo actually reaches "refit due".
    index.engine.refresh_policy = RefreshPolicy(max_delta_fraction=0.05)
    handle = EngineHandle(index.engine, folksonomy=index.folksonomy)
    probe = [sorted(cleaned.tags)[0]]
    print("== offline fit ==")
    print(cleaned)
    print(f"handle: {handle!r}")
    print()

    with tempfile.TemporaryDirectory() as directory:
        coordinator = RefitCoordinator(
            handle,
            IndexSnapshotStore(directory),
            pipeline_kwargs=pipeline_kwargs,
            use_process=True,
        )

        # -------------------------------------------------------------- #
        # 2. Mutate through the handle until the refit verdict fires.
        # -------------------------------------------------------------- #
        rng = np.random.default_rng(9)
        tags = sorted(cleaned.tags)
        batch = 0
        while True:
            added = {}
            for new in range(4):
                chosen = rng.choice(len(tags), size=4, replace=False)
                added[f"track-{batch}-{new}"] = {
                    tags[int(t)]: 1.0 for t in chosen
                }
            handle.apply_mutations(added=added)
            report = handle.staleness()
            batch += 1
            if report.refit_due:
                break
        print("== streamed mutations (journaled fold-in) ==")
        print(
            f"{batch} batches -> epoch {handle.epoch}, "
            f"journal depth {len(handle.journal)}"
        )
        print(report.summary())
        print()

        # -------------------------------------------------------------- #
        # 3. Refit in the background; serving keeps answering meanwhile.
        # -------------------------------------------------------------- #
        running = coordinator.refit_in_background()
        answered = 0
        while running.running:
            handle.search(probe, top_k=3)
            answered += 1
        result = running.join()
        print("== background refit (serving never paused) ==")
        print(f"queries answered while the refit ran: {answered}")
        print(result.summary())
        print()

        # -------------------------------------------------------------- #
        # 4. What the swap changed.
        # -------------------------------------------------------------- #
        store = coordinator.store
        print("== after the swap ==")
        print(f"handle: {handle!r}")
        print(
            f"store generations: {store.generations()} "
            f"(current {store.current_generation()})"
        )
        print(f"post-swap staleness: {handle.staleness().summary()}")
        print()
        print("== exported lifecycle metrics (Prometheus text, excerpt) ==")
        for line in coordinator.metrics.export_text().splitlines():
            interesting = (
                "_sum" in line
                or "_count" in line
                or "refits_completed" in line
                or "generation" in line
                or "journal_entries" in line
            )
            if interesting and not line.startswith("#") and "bucket" not in line:
                print(f"  {line}")


if __name__ == "__main__":
    main()
