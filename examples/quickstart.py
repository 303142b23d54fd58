#!/usr/bin/env python
"""Quickstart: index a small social-tagging corpus with CubeLSI and search it.

The script walks through the whole Figure-1 pipeline of the paper on a
synthetic Last.fm-like corpus:

1. generate raw tag assignments and clean them (Section VI-A),
2. run the offline CubeLSI pipeline (tensor → Tucker → distances → concepts
   → tf-idf index),
3. answer a few keyword queries online with cosine similarity,
4. compare the results against a plain bag-of-words engine to see the effect
   of concept-level matching,
5. save the index, reload it as a serving process would, and fold one
   folksonomy delta into it without a refit.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
import warnings

from repro.baselines import BowRanker
from repro.core.pipeline import CubeLSIPipeline, OfflineIndex
from repro.datasets.profiles import LASTFM_PROFILE, generate_profile_dataset
from repro.tagging.delta import FolksonomyDeltaBuilder
from repro.tagging.cleaning import CleaningConfig, clean_folksonomy
from repro.utils.errors import ConvergenceWarning

warnings.filterwarnings("ignore", category=ConvergenceWarning)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Generate and clean a corpus
    # ------------------------------------------------------------------ #
    dataset = generate_profile_dataset(LASTFM_PROFILE, scale=0.5, seed=42)
    cleaned, report = clean_folksonomy(
        dataset.folksonomy, CleaningConfig(min_assignments=5)
    )
    print("== corpus ==")
    print(report.summary())
    print(cleaned)
    print()

    # ------------------------------------------------------------------ #
    # 2. Offline: run the CubeLSI pipeline
    # ------------------------------------------------------------------ #
    pipeline = CubeLSIPipeline(
        reduction_ratios=(25.0, 3.0, 40.0),
        num_concepts=25,
        seed=0,
        min_rank=4,
    )
    index = pipeline.fit(cleaned)
    print("== offline pipeline ==")
    print(f"core dimensions : {index.cubelsi_result.ranks}")
    print(f"concepts        : {index.num_concepts}")
    print(f"offline seconds : {index.preprocessing_seconds():.2f}")
    print()

    print("a few distilled concepts:")
    for concept in index.concept_model.concepts[:5]:
        print(f"  concept {concept.concept_id}: {concept.label(max_tags=5)}")
    print()

    # ------------------------------------------------------------------ #
    # 3. Online: answer keyword queries — a whole batch in one call.
    #    ``rank_batch`` scores each query against the term-major postings
    #    of its concepts only (the cheap-online claim of Table VI);
    #    ``search`` remains the one-query convenience wrapper.
    # ------------------------------------------------------------------ #
    bow = BowRanker().fit(cleaned)
    queries = [
        query
        for query in [["jazz"], ["chillout", "ambient"], ["metal"]]
        if all(cleaned.has_tag(tag) for tag in query)
    ]
    cube_batched = index.engine.rank_batch(queries, top_k=5)
    bow_batched = bow.rank_batch(queries, top_k=5)
    for query, cube_results, bow_results in zip(queries, cube_batched, bow_batched):
        print(f"== query: {' '.join(query)} ==")
        print("  CubeLSI (concept matching):")
        for result in cube_results:
            tags = ", ".join(sorted(cleaned.tag_bag(result.resource))[:6])
            print(f"    {result.rank}. {result.resource}  score={result.score:.3f}  tags=[{tags}]")
        print("  BOW (literal tag matching):")
        for rank, (resource, score) in enumerate(bow_results, start=1):
            tags = ", ".join(sorted(cleaned.tag_bag(resource))[:6])
            print(f"    {rank}. {resource}  score={score:.3f}  tags=[{tags}]")
        print()

    # ------------------------------------------------------------------ #
    # 4. Ship the index to a serving process: save, load, query again.
    # 5. Keep serving while the corpus drifts: fold one delta into the
    #    reloaded index (no refit) and query it again.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as directory:
        index.save(directory, include_folksonomy=True)
        serving = OfflineIndex.load(directory)
        if queries:
            reloaded = serving.engine.search(queries[0], top_k=3)
            print("== reloaded index answers the first query ==")
            for result in reloaded:
                print(f"    {result.rank}. {result.resource}  score={result.score:.3f}")

            delta = (
                FolksonomyDeltaBuilder()
                .add_resource("new-track", {"new-listener": list(queries[0])})
                .build()
            )
            serving.apply_delta(delta)
            print()
            print("== after one delta ==")
            print(serving.engine.staleness().summary())
            for result in serving.engine.search(queries[0], top_k=3):
                print(f"    {result.rank}. {result.resource}  score={result.score:.3f}")


if __name__ == "__main__":
    main()
