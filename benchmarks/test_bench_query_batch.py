"""Batched matrix scoring vs the per-query dict-loop reference path.

Builds a 1000-resource synthetic folksonomy whose tags collapse into a
CubeLSI-style concept space (few concepts, dense postings — the exact shape
of the paper's online workload), then ranks the same query set twice:

* one ``rank`` call per query on a directly fitted dict-loop
  :class:`~repro.search.vsm.ConceptVectorSpace` (the reference), and
* a single :meth:`SearchEngine.rank_batch` call against the CSR backend
  (a postings scan + argpartition top-k per query).

Asserts the rankings are identical and records the measured speedup next
to the paper tables; whether it regressed is ``compare_baseline.py``'s call
against ``baseline.json``, not a wall-clock assert inside tier-1.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from conftest import record_metric, record_report
from repro.core.concepts import Concept, ConceptModel
from repro.search.engine import SearchEngine
from repro.search.vsm import ConceptVectorSpace
from repro.tagging.folksonomy import Folksonomy
from repro.utils.timing import format_duration

NUM_RESOURCES = 1000
NUM_TAGS = 400
NUM_USERS = 300
NUM_CONCEPTS = 50
NUM_QUERIES = 256
TOP_K = 20


def build_corpus(seed: int = 123):
    """A 1000-resource folksonomy plus a many-tags-per-concept model."""
    rng = np.random.default_rng(seed)
    records = []
    for resource in range(NUM_RESOURCES):
        tags = rng.choice(NUM_TAGS, size=20, replace=False)
        for tag in tags:
            user = int(rng.integers(NUM_USERS))
            records.append((f"u{user}", f"t{int(tag):03d}", f"r{resource:04d}"))
    folksonomy = Folksonomy(records, name="bench-batch")

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


def test_batched_matrix_scoring_is_10x_faster_with_identical_rankings():
    folksonomy, model, queries = build_corpus()
    matrix_engine = SearchEngine.build(folksonomy, model, name="matrix")
    oracle = ConceptVectorSpace().fit(
        {r: model.concept_bag(folksonomy.tag_bag(r)) for r in folksonomy.resources}
    )

    started = time.perf_counter()
    dict_results = [
        oracle.rank(model.concept_bag_from_tags(query), top_k=TOP_K)
        for query in queries
    ]
    dict_seconds = time.perf_counter() - started

    batch_seconds = float("inf")
    for _ in range(3):  # best of three to shave scheduler noise
        started = time.perf_counter()
        batch_results = matrix_engine.rank_batch(queries, top_k=TOP_K)
        batch_seconds = min(batch_seconds, time.perf_counter() - started)

    for reference, batched in zip(dict_results, batch_results):
        assert [r.resource for r in reference] == [r.resource for r in batched]
        for expected, got in zip(reference, batched):
            assert abs(expected.score - got.score) <= 1e-9

    speedup = dict_seconds / batch_seconds
    record_metric("batched_vs_dict_speedup", speedup)
    record_report(
        "== query-batch: batched CSR scoring vs per-query dict loops ==\n"
        f"corpus: {NUM_RESOURCES} resources, {folksonomy.num_tags} tags, "
        f"{NUM_CONCEPTS} concepts; {NUM_QUERIES} queries @ top-{TOP_K}\n"
        f"dict loop (one rank per query)   : {format_duration(dict_seconds)} "
        f"({NUM_QUERIES / dict_seconds:,.0f} q/s)\n"
        f"matrix rank_batch (single call)  : {format_duration(batch_seconds)} "
        f"({NUM_QUERIES / batch_seconds:,.0f} q/s)\n"
        f"speedup: {speedup:.1f}x (identical rankings and scores)"
    )
