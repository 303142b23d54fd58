"""Parity suite for the engine at every save layout.

N shards are a save layout and a pool size; the engine holds one space.
The acceptance bar: for N ∈ {1, 2, 4}, an engine restored by
``SearchEngine.load`` from an N-shard save, and the pool's read path
(N partitions ranked one by one and heap-merged), must reproduce the
dict-loop oracle's rankings and scores to 1e-9 — on the toy and generated
corpora, through add/remove/update sequences after the load, and through
a save → load round trip in a fresh process.  On top of the parity bar,
this file covers the router, the heap merge's boundary-tie handling, the
query cache's keys and LRU, the hardened ``rank_batch`` edge cases and the
read-only shard view.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracle import (
    DictLoopOracle,
    assert_matches_oracle,
    fanout_rank_batch,
)
from repro.core.concepts import identity_concept_model
from repro.core.pipeline import CubeLSIPipeline, OfflineIndex
from repro.core.snapshots import IndexSnapshotStore
from repro.search.cache import QueryCache
from repro.search.engine import SearchEngine
from repro.search.incremental import RefreshPolicy
from repro.search.matrix_space import (
    MatrixConceptSpace,
    boundary_tie_candidates,
    select_top_k,
)
from repro.search.sharding import (
    SHARD_MANIFEST_FILENAME,
    ShardRouter,
    merge_topk,
    read_shard_manifest,
)
from repro.search.vsm import RankedResult, mismatched_probes, rankings_match
from repro.tagging.delta import FolksonomyDeltaBuilder
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError, NotFittedError

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SHARD_COUNTS = (1, 2, 4)


def sample_queries(folksonomy, rng, count=24):
    tags = list(folksonomy.tags)
    queries = [
        [tags[i] for i in rng.choice(len(tags), size=size, replace=False)]
        for size in (1, 2, 3)
        for _ in range(count // 3)
    ]
    queries.append([])
    queries.append(["no-such-tag"])
    return queries


def at_shards(engine, num_shards, directory):
    """``engine`` restored from a ``num_shards``-shard save under ``directory``."""
    path = Path(directory) / f"layout-{num_shards}"
    engine.save(path, num_shards=num_shards)
    return SearchEngine.load(path)


def assert_fanout_matches_oracle(engine, oracle, queries, num_shards, top_k=10):
    """The pool's read path over ``engine``'s space agrees with the oracle."""
    bags = [engine.query_concepts(tags) for tags in queries]
    got = fanout_rank_batch(engine.matrix_space, num_shards, bags, top_k)
    for tags, answer, reference in zip(
        queries, got, oracle.rank_batch(queries, top_k=top_k)
    ):
        assert rankings_match(
            answer, reference, tol=1e-9, truncated=top_k is not None
        ), (tags, answer[:3], reference[:3])


def tag_bags_of(folksonomy):
    return {r: dict(folksonomy.tag_bag(r)) for r in folksonomy.resources}


def tf_rows_of_save(directory):
    """``resource -> {term -> tf}`` of every shard saved under ``directory``.

    Read off the files, each document's terms in column order: the dict
    rows an N-shard load folds, as :meth:`MatrixConceptSpace.from_bags`
    input.
    """
    rows = {}
    for shard_dir in sorted(Path(directory).glob("shard-*")):
        metadata = json.loads((shard_dir / "matrix_space.json").read_text())
        doc_ids, terms = metadata["doc_ids"], metadata["terms"]["values"]
        bounds, slots, tf = (
            np.load(shard_dir / f"matrix_space.{name}.npy")
            for name in ("post_indptr", "post_rows", "post_weights")
        )
        columns = np.repeat(np.arange(len(terms)), np.diff(bounds))
        bags = {doc_id: {} for doc_id in doc_ids}
        for at in np.lexsort((columns, slots)).tolist():
            bags[doc_ids[slots[at]]][terms[columns[at]]] = float(tf[at])
        rows.update(bags)
    return rows


def apply_batch(bags, added=None, updated=None, removed=()):
    """Replay one ``apply_mutations`` batch on plain ``resource -> bag`` dicts."""
    bags.update(added or {})
    bags.update(updated or {})
    for resource in removed:
        del bags[resource]


def assert_same_rankings(served, engine, queries, top_k=10, tol=1e-9):
    """Two engines' rankings/scores agree on every query."""
    got = served.rank_batch(queries, top_k=top_k)
    want = engine.rank_batch(queries, top_k=top_k)
    for got_results, want_results in zip(got, want):
        assert rankings_match(
            got_results, want_results, tol=tol, truncated=top_k is not None
        ), (got_results[:3], want_results[:3])


@pytest.fixture(scope="module")
def concept_model(small_cleaned):
    return identity_concept_model(small_cleaned.tags)


@pytest.fixture(scope="module")
def mono_engine(small_cleaned, concept_model):
    return SearchEngine.build(small_cleaned, concept_model, name="mono")


@pytest.fixture(scope="module")
def oracle(small_cleaned, concept_model):
    return DictLoopOracle.of_folksonomy(concept_model, small_cleaned)


class TestShardRouter:
    def test_routing_is_stable_and_total(self):
        router = ShardRouter(4)
        again = ShardRouter(4)
        for resource in (f"r{i:04d}" for i in range(100)):
            shard = router.shard_of(resource)
            assert 0 <= shard < 4
            assert again.shard_of(resource) == shard

    def test_crc32_spreads_ids_roughly_evenly(self):
        router = ShardRouter(4)
        sizes = Counter(router.shard_of(f"resource-{i}") for i in range(1000))
        assert sorted(sizes) == [0, 1, 2, 3]
        for size in sizes.values():  # crc32 spreads ids close to uniformly
            assert 150 <= size <= 350

    def test_json_round_trip_and_validation(self):
        router = ShardRouter(3)
        restored = ShardRouter.from_json(router.to_json())
        assert restored.num_shards == 3
        assert restored.shard_of("abc") == router.shard_of("abc")
        with pytest.raises(ConfigurationError):
            ShardRouter(0)
        with pytest.raises(ConfigurationError):
            ShardRouter.from_json({"algorithm": "md5", "num_shards": 2})


class TestMergeTopk:
    def ranked(self, entries):
        return [
            RankedResult(resource, score, position)
            for position, (resource, score) in enumerate(entries, start=1)
        ]

    def test_merges_and_renumbers(self):
        merged = merge_topk(
            [
                self.ranked([("r2", 0.9), ("r5", 0.4)]),
                self.ranked([("r1", 0.7), ("r3", 0.2)]),
                [],
            ],
        )
        assert [(r.resource, r.rank) for r in merged] == [
            ("r2", 1),
            ("r1", 2),
            ("r5", 3),
            ("r3", 4),
        ]

    def test_exact_tie_at_boundary_picks_lowest_resource_ids(self):
        # Three shards each contribute a 0.5-score entry; a top-3 cut
        # through the tie group must keep the lexicographically smallest
        # resources, exactly like the monolithic selector.
        merged = merge_topk(
            [
                self.ranked([("r9", 0.8), ("r4", 0.5)]),
                self.ranked([("r2", 0.5), ("r7", 0.5)]),
                self.ranked([("r1", 0.5)]),
            ],
            top_k=3,
        )
        assert [r.resource for r in merged] == ["r9", "r1", "r2"]
        scores = np.array([0.8, 0.5, 0.5, 0.5, 0.5])
        positions = np.array([9, 4, 2, 7, 1])
        selected = select_top_k(positions, scores, 3)
        assert list(positions[selected]) == [9, 1, 2]

    def test_empty_and_validation(self):
        assert merge_topk([]) == []
        assert merge_topk([[], []]) == []
        with pytest.raises(ConfigurationError):
            merge_topk([[]], top_k=0)


class TestBoundaryTieWidening:
    def test_helper_widens_to_whole_tie_group(self):
        scores = np.array([1.0, 0.5, 0.5, 0.5, 0.2])
        candidates = set(boundary_tie_candidates(scores, 2).tolist())
        assert candidates == {0, 1, 2, 3}
        assert boundary_tie_candidates(scores, None).size == scores.size
        assert boundary_tie_candidates(scores, 10).size == scores.size

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("top_k", [1, 2, 3, 4, 6])
    def test_exact_rank_k_ties_keep_the_lowest_resource_ids(
        self, num_shards, top_k, tmp_path
    ):
        # Six resources with *identical* tag bags -> identical scores; any
        # top-k cuts through an exact tie group, the worst case for the
        # boundary handling on both paths.
        records = []
        for index in range(6):
            records.append(("u", "alpha", f"twin-{index}"))
            records.append(("u", "beta", f"twin-{index}"))
        records.append(("u", "alpha", "distinct"))
        folksonomy = Folksonomy(records, name="ties")
        model = identity_concept_model(folksonomy.tags)
        engine = SearchEngine.build(folksonomy, model, name="ties")
        reloaded = at_shards(engine, num_shards, tmp_path)
        # "alpha" is in every resource (idf 0, matches nothing); "beta" is not.
        want = DictLoopOracle.of_folksonomy(model, folksonomy).rank(
            ["beta"], top_k=top_k
        )
        (fanned,) = fanout_rank_batch(
            engine.matrix_space, num_shards, [engine.query_concepts(["beta"])], top_k
        )
        expected = [f"twin-{index}" for index in range(6)]
        assert [r.resource for r in want] == expected[:top_k]
        for got in (reloaded.search(["beta"], top_k=top_k), fanned):
            assert [r.resource for r in got] == expected[:top_k]
            for got_result, want_result in zip(got, want):
                assert got_result.score == pytest.approx(
                    want_result.score, abs=1e-9
                )
                assert got_result.rank == want_result.rank


class TestMismatchedProbes:
    """The one comparator loop every parity check goes through."""

    @staticmethod
    def ranking(*pairs):
        return [
            RankedResult(resource, score, rank)
            for rank, (resource, score) in enumerate(pairs, start=1)
        ]

    def test_interior_tie_group_may_permute(self):
        want = self.ranking(("a", 0.9), ("b", 0.5), ("c", 0.5), ("d", 0.1))
        got = self.ranking(("a", 0.9), ("c", 0.5), ("b", 0.5), ("d", 0.1))
        assert mismatched_probes([got], [want], truncated=False) == []
        assert mismatched_probes([got], [want], truncated=True) == []

    def test_boundary_tie_group_membership_only_under_a_cut(self):
        want = self.ranking(("a", 0.9), ("b", 0.5), ("c", 0.5))
        got = self.ranking(("a", 0.9), ("b", 0.5), ("z", 0.5))
        assert mismatched_probes([got], [want], truncated=True) == []
        assert mismatched_probes([got], [want], truncated=False) == [0]

    def test_length_and_score_mismatches_are_flagged(self):
        want = self.ranking(("a", 0.9), ("b", 0.5))
        same = self.ranking(("a", 0.9), ("b", 0.5))
        shorter = self.ranking(("a", 0.9))
        drifted = self.ranking(("a", 0.9 + 2e-9), ("b", 0.5))
        within = self.ranking(("a", 0.9 + 5e-10), ("b", 0.5))
        got = [same, shorter, drifted, within]
        assert mismatched_probes(got, [want] * 4, truncated=True) == [1, 2]
        # a probe only one side answered is a mismatch, not a silent zip cut
        assert mismatched_probes([same], [want, want], truncated=True) == [1]
        assert mismatched_probes([], [], truncated=True) == []


class TestStaticParity:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_generated_corpus_parity(
        self, small_cleaned, mono_engine, oracle, num_shards, tmp_path
    ):
        rng = np.random.default_rng(17)
        reloaded = at_shards(mono_engine, num_shards, tmp_path)
        queries = sample_queries(small_cleaned, rng)
        for top_k in (None, 1, 5, 1000):
            assert_matches_oracle(reloaded, oracle, queries, top_k=top_k)
            assert_fanout_matches_oracle(
                mono_engine, oracle, queries, num_shards, top_k=top_k
            )
        for query in queries[:6]:
            results = reloaded.search(query, top_k=5)
            assert reloaded.ranked_resources(query, top_k=5) == [
                r.resource for r in results
            ]
            for result in oracle.rank(query, top_k=5):
                assert reloaded.score(query, result.resource) == pytest.approx(
                    result.score, abs=1e-9
                )
        assert reloaded.num_indexed_resources == small_cleaned.num_resources

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_toy_corpus_parity(self, toy_folksonomy, num_shards, tmp_path):
        model = identity_concept_model(toy_folksonomy.tags)
        engine = SearchEngine.build(toy_folksonomy, model, name="toy")
        reloaded = at_shards(engine, num_shards, tmp_path)
        reference = DictLoopOracle.of_folksonomy(model, toy_folksonomy)
        for tag in toy_folksonomy.tags:
            assert_matches_oracle(reloaded, reference, [[tag]], top_k=None)
            assert_fanout_matches_oracle(
                engine, reference, [[tag]], num_shards, top_k=None
            )

    def test_parity_with_unknown_query_tags(
        self, small_cleaned, concept_model, tmp_path
    ):
        engine = SearchEngine.build(small_cleaned, concept_model, name="s")
        reference = DictLoopOracle.of_folksonomy(concept_model, small_cleaned)
        tags = list(small_cleaned.tags)
        queries = [[tags[0], tags[1]], [tags[2], "tag-unseen-anywhere"]]
        for num_shards in (1, 3):
            reloaded = at_shards(engine, num_shards, tmp_path)
            assert_matches_oracle(reloaded, reference, queries, top_k=10)
            assert_fanout_matches_oracle(engine, reference, queries, num_shards)

    def test_pipeline_fitted_engine_parity(self, small_cleaned, tmp_path):
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=12, seed=0, min_rank=4
        )
        index = pipeline.fit(small_cleaned)
        rng = np.random.default_rng(29)
        reference = DictLoopOracle.of_folksonomy(
            index.concept_model, small_cleaned
        )
        queries = sample_queries(small_cleaned, rng)
        for num_shards in SHARD_COUNTS:
            reloaded = at_shards(index.engine, num_shards, tmp_path)
            assert_matches_oracle(reloaded, reference, queries)
            assert_fanout_matches_oracle(
                index.engine, reference, queries, num_shards
            )

    def test_one_shard_engine_never_routes_merges_or_spawns_threads(
        self, small_cleaned, concept_model, mono_engine, monkeypatch, tmp_path
    ):
        tag = small_cleaned.tags[0]
        for num_shards in SHARD_COUNTS:  # no save layout starts a thread
            engine = at_shards(mono_engine, num_shards, tmp_path)
            threads_before = threading.active_count()
            assert engine.rank_batch([[tag], []], top_k=3)[0]
            assert threading.active_count() == threads_before

        def forbidden(*args, **kwargs):
            raise AssertionError("the engine must not route or merge")

        monkeypatch.setattr(ShardRouter, "shard_of", forbidden)
        monkeypatch.setattr("repro.search.sharding.merge_topk", forbidden)
        engine = SearchEngine.build(small_cleaned, concept_model, name="n1")
        assert not hasattr(engine, "router") and not hasattr(engine, "shards")
        best = engine.search([tag], top_k=3)[0]
        assert engine.score([tag], best.resource) == pytest.approx(best.score)
        engine.add_resources({"fresh-n1": {tag: 1.0}})
        assert engine.has_resource("fresh-n1")
        assert engine.rank_batch([[tag], []], top_k=3)[0]
        engine.save(tmp_path / "n1")  # a one-shard save routes nothing
        assert SearchEngine.load(tmp_path / "n1").has_resource("fresh-n1")

    def test_router_shard_count_mismatch_rejected(self, mono_engine, tmp_path):
        with pytest.raises(ConfigurationError):
            mono_engine.save(tmp_path / "none", num_shards=0)
        mono_engine.save(tmp_path, num_shards=2)
        manifest_path = tmp_path / SHARD_MANIFEST_FILENAME
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        payload["router"]["num_shards"] = 3
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        for load in (read_shard_manifest, SearchEngine.load):
            with pytest.raises(ConfigurationError, match="3"):
                load(tmp_path)
        with pytest.raises(ConfigurationError):
            SearchEngine.load_shard(tmp_path, 0)


class TestMutationParity:
    def build_pair(self, folksonomy, num_shards, directory):
        """An engine restored from an N-shard save plus its tag bags."""
        model = identity_concept_model(folksonomy.tags)
        engine = SearchEngine.build(folksonomy, model, name="mut")
        return at_shards(engine, num_shards, directory), tag_bags_of(folksonomy)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_mutation_sequences_stay_in_parity(
        self, small_cleaned, num_shards, tmp_path
    ):
        rng = np.random.default_rng(5)
        engine, bags = self.build_pair(small_cleaned, num_shards, tmp_path)
        tags = list(small_cleaned.tags)
        queries = sample_queries(small_cleaned, rng)

        batches = [
            dict(
                added={
                    "fresh-a": {tags[0]: 2.0, tags[3]: 1.0},
                    "fresh-b": {tags[1]: 1.0, "tag-never-seen": 2.0},
                }
            ),
            dict(updated={small_cleaned.resources[1]: {tags[2]: 3.0}}),
            dict(removed=[small_cleaned.resources[0], "fresh-a"]),
            dict(
                added={"fresh-c": {tags[4]: 1.0}},
                updated={"fresh-b": {tags[5]: 2.0}},
                removed=[small_cleaned.resources[2]],
            ),
        ]
        delta_ops = 0
        for epoch, batch in enumerate(batches, start=1):
            report = engine.apply_mutations(**batch)
            apply_batch(bags, **batch)
            delta_ops += sum(len(bucket) for bucket in batch.values())
            assert report.epoch == epoch
            assert report.delta_ops == delta_ops
            if epoch % 2:  # eager refresh and the lazy read-driven one alike
                assert engine.refresh()
                assert not engine.refresh()
            # fitted after the fold-in: "tag-never-seen" has its concept now
            reference = DictLoopOracle(engine.concept_model, bags)
            assert_matches_oracle(engine, reference, queries)
            assert_matches_oracle(engine, reference, queries, top_k=None)
        assert engine.num_indexed_resources == len(bags)

    def test_draining_one_shard_empty_keeps_serving(self, small_cleaned, tmp_path):
        engine, bags = self.build_pair(small_cleaned, 1, tmp_path)
        rng = np.random.default_rng(7)
        router = ShardRouter(2)
        victims = [
            resource
            for resource in small_cleaned.resources
            if router.shard_of(resource) == 0
        ]
        assert victims  # the corpus is large enough to populate both shards
        engine.remove_resources(victims)
        apply_batch(bags, removed=victims)
        queries = sample_queries(small_cleaned, rng)
        reference = DictLoopOracle(engine.concept_model, bags)
        # a two-shard save of the drained corpus writes an empty shard-0000
        drained = at_shards(engine, 2, tmp_path)
        assert read_shard_manifest(tmp_path / "layout-2")["shards"][0][
            "num_documents"
        ] == 0
        assert SearchEngine.load_shard(tmp_path / "layout-2", 0).search(
            [small_cleaned.tags[0]]
        ) == []
        for served in (engine, drained):
            assert_matches_oracle(served, reference, queries)
        assert_fanout_matches_oracle(engine, reference, queries, 2)
        # the drained shard takes new residents again
        revived = {victims[0]: {small_cleaned.tags[0]: 2.0}}
        drained.add_resources(revived)
        apply_batch(bags, added=revived)
        reference = DictLoopOracle(drained.concept_model, bags)
        assert_matches_oracle(drained, reference, queries)
        assert_fanout_matches_oracle(drained, reference, queries, 2)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_rejected_batches_have_no_side_effects(
        self, small_cleaned, num_shards, tmp_path
    ):
        engine, _ = self.build_pair(small_cleaned, num_shards, tmp_path)
        existing = small_cleaned.resources[0]
        with pytest.raises(ConfigurationError):
            engine.add_resources({existing: {"a": 1}})
        with pytest.raises(ConfigurationError):
            engine.remove_resources(["missing-resource"])
        with pytest.raises(ConfigurationError):
            engine.update_resource("missing-resource", {"a": 1})
        with pytest.raises(ConfigurationError):
            engine.remove_resources(list(small_cleaned.resources))
        with pytest.raises(ConfigurationError):
            engine.apply_mutations(
                updated={existing: {"a": 1}}, removed=[existing]
            )
        assert engine.epoch == 0
        assert engine.num_indexed_resources == small_cleaned.num_resources
        assert not engine.refresh()  # nothing was left pending

    def test_shard_local_refresh_is_rejected_while_stale(
        self, small_cleaned, tmp_path
    ):
        engine, _ = self.build_pair(small_cleaned, 1, tmp_path)
        shards = engine.matrix_space.partition(2, ShardRouter(2).shard_of)
        shards[0].add_documents({"fresh": {0: 1.0}})
        assert shards[0].is_stale
        with pytest.raises(ConfigurationError):
            shards[0].refresh()
        # the whole index is the sanctioned writer
        engine.add_resources({"fresh": {small_cleaned.tags[0]: 1.0}})
        assert engine.refresh()
        assert not engine.matrix_space.is_stale


class TestQueryCache:
    def test_canonical_key_is_order_insensitive_multiset(self):
        key = QueryCache.canonical_key
        assert key(["b", "a"], 5, 0) == key(["a", "b"], 5, 0)
        assert key(["a", "a"], 5, 0) != key(["a"], 5, 0)
        assert key(["a"], 5, 0) != key(["a"], 6, 0)
        assert key(["a"], 5, 0) != key(["a"], 5, 1)

    def test_lru_eviction_and_stats(self):
        cache = QueryCache(max_entries=2)
        cache.put("k1", [RankedResult("r1", 1.0, 1)])
        cache.put("k2", [RankedResult("r2", 1.0, 1)])
        assert cache.get("k1") is not None  # refresh k1's recency
        cache.put("k3", [RankedResult("r3", 1.0, 1)])  # evicts k2
        assert cache.get("k2") is None
        assert cache.get("k1") is not None and cache.get("k3") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["hits"] == 3 and stats["misses"] == 1
        assert 0.0 < cache.hit_rate < 1.0
        with pytest.raises(ConfigurationError):
            QueryCache(max_entries=0)

    def test_hit_returns_a_fresh_list(self):
        cache = QueryCache()
        cache.put("k", [RankedResult("r1", 1.0, 1)])
        first = cache.get("k")
        first.append(RankedResult("bogus", 0.0, 2))
        assert len(cache.get("k")) == 1


class TestRankBatchHardening:
    def test_empty_batch_returns_well_typed_empty(self, mono_engine):
        assert mono_engine.rank_batch([]) == []

    def test_all_unknown_tags_yield_empty_lists(self, mono_engine):
        batch = [["zzz-unknown"], [], ["another-unknown", "more-unknown"]]
        assert mono_engine.rank_batch(batch, top_k=5) == [[], [], []]
        assert mono_engine.search(["zzz-unknown"]) == []

    def test_invalid_top_k_rejected_even_without_scorable_queries(
        self, mono_engine
    ):
        with pytest.raises(ConfigurationError):
            mono_engine.rank_batch([["zzz-unknown"]], top_k=0)
        with pytest.raises(ConfigurationError):
            mono_engine.rank_batch([], top_k=-3)
        with pytest.raises(ConfigurationError):
            mono_engine.search([], top_k=0)


class TestShardedPersistence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_save_load_round_trip_parity(
        self, small_cleaned, mono_engine, oracle, tmp_path, num_shards
    ):
        rng = np.random.default_rng(13)
        mono_engine.save(tmp_path, num_shards=num_shards)
        shard_dirs = [f"shard-{index:04d}" for index in range(num_shards)]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            *shard_dirs,
            SHARD_MANIFEST_FILENAME,
        ]
        for shard_dir in shard_dirs:  # a partition carries corpus-wide stats
            shard = MatrixConceptSpace.load(tmp_path / shard_dir)
            assert shard.has_external_stats == (num_shards > 1)
        loaded = SearchEngine.load(tmp_path)
        assert loaded.name == mono_engine.name
        assert loaded.is_mutable and not loaded.matrix_space.has_external_stats
        queries = sample_queries(small_cleaned, rng)
        assert_matches_oracle(loaded, oracle, queries)
        if num_shards > 1:  # the fold of the shards' tf rows, byte for byte
            rows = tf_rows_of_save(tmp_path)
            MatrixConceptSpace.from_bags(rows).save(tmp_path / "bags")
            loaded.matrix_space.save(tmp_path / "loaded")
            for path in (tmp_path / "bags").iterdir():
                saved = (tmp_path / "loaded" / path.name).read_bytes()
                assert saved == path.read_bytes(), path.name

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_save_load_then_mutate_stays_in_parity(
        self, small_cleaned, tmp_path, num_shards
    ):
        model = identity_concept_model(small_cleaned.tags)
        SearchEngine.build(small_cleaned, model, name="slm").save(
            tmp_path, num_shards=num_shards
        )
        loaded = SearchEngine.load(tmp_path)
        batch = dict(
            added={"post-load": {small_cleaned.tags[0]: 2.0}},
            removed=[small_cleaned.resources[0]],
        )
        bags = tag_bags_of(small_cleaned)
        apply_batch(bags, **batch)
        loaded.apply_mutations(**batch)
        rng = np.random.default_rng(19)
        assert_matches_oracle(
            loaded,
            DictLoopOracle(loaded.concept_model, bags),
            sample_queries(small_cleaned, rng),
        )

    def test_manifest_with_per_shard_drift_keys_still_loads(
        self, small_cleaned, concept_model, tmp_path
    ):
        """Saves made before the per-shard drift books were dropped carry
        ``baseline_resources`` / ``mutations`` on every shard entry; the
        keys are ignored and engine-level staleness is unaffected."""
        engine = SearchEngine.build(small_cleaned, concept_model, name="drift")
        engine.add_resources({"drift-0": {small_cleaned.tags[0]: 1.0}})
        engine.save(tmp_path, num_shards=2)
        manifest_path = tmp_path / SHARD_MANIFEST_FILENAME
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        for entry in payload["shards"]:
            assert set(entry) == {"directory", "num_documents"}
            entry["baseline_resources"] = entry["num_documents"]
            entry["mutations"] = {"added": 1, "removed": 0, "updated": 0}
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = SearchEngine.load(tmp_path)
        assert loaded.staleness() == engine.staleness()
        assert SearchEngine.load_shard(tmp_path, 1).epoch == engine.epoch

    def test_load_one_shard_serves_with_global_statistics(
        self, small_cleaned, mono_engine, tmp_path
    ):
        mono_engine.save(tmp_path, num_shards=3)
        shard_engine = SearchEngine.load_shard(tmp_path, 1)
        router = ShardRouter(3)
        shard_docs = {r for r in small_cleaned.resources if router.shard_of(r) == 1}
        assert shard_docs and set(shard_engine.matrix_space.doc_ids) == shard_docs
        query = [small_cleaned.tags[0], small_cleaned.tags[1]]
        for result in shard_engine.search(query, top_k=None):
            assert result.resource in shard_docs
            assert mono_engine.score(query, result.resource) == pytest.approx(
                result.score, abs=1e-9
            )
        # a shard view is read-only: its statistics are corpus-wide
        assert shard_engine.matrix_space.has_external_stats
        assert not shard_engine.is_mutable
        with pytest.raises(ConfigurationError):
            shard_engine.add_resources({"nope": {small_cleaned.tags[0]: 1.0}})
        with pytest.raises(ConfigurationError):
            shard_engine.save(tmp_path / "partial")
        assert shard_engine.epoch == mono_engine.epoch
        assert not shard_engine.refresh()
        with pytest.raises(ConfigurationError):
            SearchEngine.load_shard(tmp_path, 7)

    def test_refresh_policy_round_trips_and_old_saves_get_defaults(
        self, small_cleaned, tmp_path
    ):
        policy = RefreshPolicy(max_delta_fraction=0.25, max_delta_ops=7)
        assert policy.as_dict() == {"max_delta_fraction": 0.25, "max_delta_ops": 7}
        assert RefreshPolicy.from_dict(policy.as_dict()) == policy
        assert RefreshPolicy.from_dict(None) == RefreshPolicy()
        assert RefreshPolicy.from_dict({"max_delta_ops": 5}) == RefreshPolicy(
            max_delta_ops=5
        )

        engine = SearchEngine.build(
            small_cleaned,
            identity_concept_model(small_cleaned.tags),
            name="pol",
            refresh_policy=policy,
        )
        mono_dir, sharded_dir = tmp_path / "mono", tmp_path / "sharded"
        engine.save(mono_dir)
        engine.save(sharded_dir, num_shards=2)

        def loaded_policies():
            whole = SearchEngine.load(sharded_dir)
            whole.close()
            return (
                SearchEngine.load(mono_dir).refresh_policy,
                whole.refresh_policy,
                SearchEngine.load_shard(sharded_dir, 0).refresh_policy,
            )

        assert loaded_policies() == (policy, policy, policy)
        manifests = (
            mono_dir / SHARD_MANIFEST_FILENAME,
            sharded_dir / SHARD_MANIFEST_FILENAME,
        )

        def rewrite_policy(block):
            for path in manifests:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if block is None:
                    del payload["refresh_policy"]
                else:
                    payload["refresh_policy"] = block
                path.write_text(json.dumps(payload), encoding="utf-8")

        # A save that still names the removed max_pending_batches knob
        # loads, the unknown key ignored.
        rewrite_policy(dict(policy.as_dict(), max_pending_batches=3))
        assert loaded_policies() == (policy, policy, policy)
        # A save from before the block existed loads with the defaults.
        rewrite_policy(None)
        assert loaded_policies() == (RefreshPolicy(),) * 3

    def test_resave_with_fewer_shards_prunes_stale_dirs(
        self, small_cleaned, mono_engine, tmp_path
    ):
        mono_engine.save(tmp_path, num_shards=4)
        mono_engine.save(tmp_path, num_shards=2)
        assert sorted(p.name for p in tmp_path.glob("shard-*")) == [
            "shard-0000",
            "shard-0001",
        ]
        assert len(read_shard_manifest(tmp_path)["shards"]) == 2
        loaded = SearchEngine.load(tmp_path)
        rng = np.random.default_rng(43)
        assert_same_rankings(
            loaded, mono_engine, sample_queries(small_cleaned, rng)
        )

    def test_load_missing_manifest_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            SearchEngine.load(tmp_path / "nowhere")
        with pytest.raises(NotFittedError):
            SearchEngine.load_shard(tmp_path / "nowhere", 0)
        # a directory holding only the retired single-file layout
        (tmp_path / "engine.json").write_text("{}", encoding="utf-8")
        for load in (SearchEngine.load, read_shard_manifest):
            with pytest.raises(ConfigurationError, match="re-save"):
                load(tmp_path)
        with pytest.raises(ConfigurationError, match="re-save"):
            SearchEngine.load_shard(tmp_path, 0)

    @staticmethod
    def rewrite_json(paths, update):
        for path in paths:
            payload = json.loads(path.read_text(encoding="utf-8"))
            update(payload)
            path.write_text(json.dumps(payload), encoding="utf-8")

    @staticmethod
    def loaders(directory):
        return (
            lambda: SearchEngine.load(directory),
            lambda: SearchEngine.load_shard(directory, 0),
        )

    @pytest.mark.parametrize(
        "policy, dynamic, match",
        [
            ("own-concept", {}, "unknown_policy='own-concept'"),
            ("ignore", {"tag-x": 99}, "1 own-concept tags"),
        ],
        ids=["unknown_policy", "dynamic_concepts"],
    )
    def test_own_concept_save_is_refused(
        self, mono_engine, tmp_path, policy, dynamic, match
    ):
        """A manifest of the retired own-concept option never loads with
        the option dropped; the default values still load."""
        dirs = [tmp_path / "mono", tmp_path / "sharded"]
        mono_engine.save(dirs[0])
        mono_engine.save(dirs[1], num_shards=2)
        manifests = [directory / SHARD_MANIFEST_FILENAME for directory in dirs]

        def concept_keys(policy, dynamic):
            return lambda payload: payload["concept_model"].update(
                unknown_policy=policy, dynamic_concepts=dynamic
            )

        self.rewrite_json(manifests, concept_keys("ignore", {}))
        for directory in dirs:
            for load in self.loaders(directory):
                assert load().num_indexed_resources > 0
        self.rewrite_json(manifests, concept_keys(policy, dynamic))
        for directory in dirs:
            for load in self.loaders(directory):
                with pytest.raises(ConfigurationError, match=match):
                    load()

    def test_smoothed_space_save_is_refused(self, mono_engine, tmp_path):
        """A ``matrix_space.json`` of the retired smoothed idf never loads as
        plain idf; ``smooth_idf: false`` still loads."""
        dirs = [tmp_path / "mono", tmp_path / "sharded"]
        mono_engine.save(dirs[0])
        mono_engine.save(dirs[1], num_shards=2)
        spaces = sorted(tmp_path.glob("*/shard-*/matrix_space.json"))
        assert len(spaces) == 3

        self.rewrite_json(spaces, lambda payload: payload.update(smooth_idf=False))
        for directory in dirs:
            for load in self.loaders(directory):
                assert load().num_indexed_resources > 0
        self.rewrite_json(spaces, lambda payload: payload.update(smooth_idf=True))
        for directory in dirs:
            for load in self.loaders(directory):
                with pytest.raises(ConfigurationError, match="smooth_idf"):
                    load()
        for space in spaces:
            with pytest.raises(ConfigurationError, match="smooth_idf"):
                MatrixConceptSpace.load(space.parent)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_round_trip_in_fresh_process(
        self, small_cleaned, mono_engine, oracle, tmp_path, num_shards
    ):
        mono_engine.save(tmp_path, num_shards=num_shards)
        query_tag = small_cleaned.tags[0]
        expected = oracle.rank([query_tag], top_k=5)
        script = (
            "import json, sys\n"
            "from repro.search.engine import SearchEngine\n"
            "engine = SearchEngine.load(sys.argv[1])\n"
            "results = engine.search([sys.argv[2]], top_k=5)\n"
            "print(json.dumps([[r.resource, r.score] for r in results]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), query_tag],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        fresh = json.loads(output.strip().splitlines()[-1])
        assert [resource for resource, _ in fresh] == [
            r.resource for r in expected
        ]
        for (_, score), result in zip(fresh, expected):
            assert score == pytest.approx(result.score, abs=1e-9)


#: Every ``repro.<pkg>`` package plus the two modules the comparator's
#: un-deferred import made order-sensitive candidates.
FIRST_IMPORTS = sorted(
    f"repro.{init.parent.name}" for init in (SRC_DIR / "repro").glob("*/__init__.py")
) + ["repro.load.invariants", "repro.eval.sharding"]


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_importable_as_the_first_import_of_a_fresh_interpreter(module):
    """No package may rely on another having been imported before it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    outcome = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert outcome.returncode == 0, outcome.stderr


def test_serving_layers_import_each_other_at_module_scope_only():
    """utils <- tagging/core <- search <- serve <- load (eval aside), no detours.

    A function-scope ``from repro.`` import hides a layering inversion;
    the only ones allowed are the ``core.pipeline`` <-> ``search`` pair's
    lifecycle half.
    """
    allowed = {("search/lifecycle.py", "repro.core.pipeline"): 2}
    deferred = set()  # a set: nested functions are walked more than once
    for layer in ("search", "serve", "load", "eval"):
        for path in sorted((SRC_DIR / "repro" / layer).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for scope in ast.walk(tree):
                if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                deferred.update(
                    (f"{layer}/{path.name}", node.module, node.lineno)
                    for node in ast.walk(scope)
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("repro.")
                )
    found = Counter((file, module) for file, module, _line in deferred)
    assert found == allowed


def test_eval_is_the_ndcg_harness_not_a_serving_clock():
    """``repro.eval`` scores rankings: it neither drives a serving layer
    nor times one (``perf/`` is the only benchmark)."""
    serving = ("repro.serve", "repro.load", "repro.search.shardpool")
    offenders = []
    for path in sorted((SRC_DIR / "repro" / "eval").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "perf_counter" in source:
            offenders.append((path.name, "perf_counter"))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            offenders.extend(
                (path.name, module)
                for module in modules
                if module.startswith(serving)
            )
    assert offenders == []


def test_one_cache_owner_and_one_array_layout():
    """The front-end owns the only result cache (no other module names
    ``QueryCache``), every save writes raw ``.npy`` arrays (nothing under
    ``src/`` writes an ``.npz``), and the load harness has no arrival
    pacing and no scenario registry."""
    owners = {"repro/serve/frontend.py", "repro/search/cache.py"}
    gone = ("savez", "arrival_offset", "build_scenario", "check_scenario")
    offenders = []
    for path in sorted(SRC_DIR.rglob("*.py")):
        name = path.relative_to(SRC_DIR).as_posix()
        source = path.read_text(encoding="utf-8")
        if "QueryCache" in source and name not in owners:
            offenders.append((name, "QueryCache"))
        offenders.extend((name, word) for word in gone if word in source)
    assert offenders == []


class TestOfflineIndexSharding:
    @pytest.fixture(scope="class")
    def fitted_index(self, small_cleaned):
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=12, seed=0, min_rank=4
        )
        return pipeline.fit(small_cleaned)

    def test_save_with_num_shards_round_trips_sharded(
        self, fitted_index, tmp_path
    ):
        rng = np.random.default_rng(23)
        fitted_index.save(tmp_path, include_folksonomy=True, num_shards=2)
        assert len(read_shard_manifest(tmp_path)["shards"]) == 2
        loaded = OfflineIndex.load(tmp_path)
        queries = sample_queries(fitted_index.folksonomy, rng)
        assert_same_rankings(loaded.engine, fitted_index.engine, queries)
        # the restored index keeps hot-applying deltas
        delta = (
            FolksonomyDeltaBuilder()
            .add_resource(
                "sharded-delta", {"user-x": [fitted_index.folksonomy.tags[0]]}
            )
            .build()
        )
        report = loaded.apply_delta(delta)
        assert report.resources_added == 1
        assert loaded.engine.has_resource("sharded-delta")
        rebuilt = SearchEngine.build(
            loaded.folksonomy, loaded.concept_model, name="rebuild"
        )
        assert_same_rankings(loaded.engine, rebuilt, queries)

    def test_overwriting_layouts_never_mixes_artefacts(
        self, fitted_index, tmp_path
    ):
        fitted_index.save(tmp_path, num_shards=2)
        fitted_index.save(tmp_path)  # back to one shard
        assert [p.name for p in tmp_path.glob("shard-*")] == ["shard-0000"]
        assert len(read_shard_manifest(tmp_path)["shards"]) == 1
        OfflineIndex.load(tmp_path)
        fitted_index.save(tmp_path, num_shards=3)  # and sharded again
        assert len(read_shard_manifest(tmp_path)["shards"]) == 3
        rng = np.random.default_rng(41)
        assert_same_rankings(
            OfflineIndex.load(tmp_path).engine,
            fitted_index.engine,
            sample_queries(fitted_index.folksonomy, rng),
        )

    def test_resharding_a_sharded_engine_is_rejected(
        self, fitted_index, tmp_path
    ):
        fitted_index.save(tmp_path / "two", num_shards=2)
        shard_index = OfflineIndex(
            concept_model=fitted_index.concept_model,
            engine=SearchEngine.load_shard(tmp_path / "two", 0),
            timings=dict(fitted_index.timings),
            folksonomy=fitted_index.folksonomy,
        )
        for num_shards in (1, 2, 4):  # one shard is not the index
            with pytest.raises(ConfigurationError):
                shard_index.save(tmp_path / "out", num_shards=num_shards)
        # the whole save, loaded, re-partitions freely
        OfflineIndex.load(tmp_path / "two").save(tmp_path / "four", num_shards=4)
        assert len(read_shard_manifest(tmp_path / "four")["shards"]) == 4

    def test_snapshot_store_checkpoints_sharded_layout(
        self, small_cleaned, tmp_path
    ):
        rng = np.random.default_rng(31)
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=10, seed=0, min_rank=4
        )
        index = pipeline.fit(small_cleaned)
        store = IndexSnapshotStore(tmp_path / "snapshots")
        first = store.publish(index, num_shards=2)
        assert len(read_shard_manifest(first)["shards"]) == 2
        serving = store.load_current()
        queries = sample_queries(small_cleaned, rng)
        assert_same_rankings(serving.engine, index.engine, queries)
        # the restored generation accepts deltas and re-publishes sharded
        delta = (
            FolksonomyDeltaBuilder()
            .add_resource("snap-res", {"user-z": [small_cleaned.tags[0]]})
            .build()
        )
        serving.apply_delta(delta)
        second = store.publish(serving, num_shards=2)
        assert len(read_shard_manifest(second)["shards"]) == 2
        assert store.current_generation() == 2
        assert store.load_current().engine.epoch == serving.engine.epoch


class TestSlicedSpaces:
    def test_slice_rows_validation(self):
        space = MatrixConceptSpace.from_bags({"r1": {"a": 1}, "r2": {"b": 2}})
        with pytest.raises(ConfigurationError):
            space.slice_rows(["r1", "r1"])
        with pytest.raises(ConfigurationError):
            space.slice_rows(["ghost"])
        with pytest.raises(ConfigurationError):
            space.partition(0, lambda doc: 0)
        with pytest.raises(ConfigurationError):
            space.partition(2, lambda doc: 5)
        shard = space.slice_rows(["r2"])
        assert shard.has_external_stats
        assert shard.doc_ids == ("r2",)
        assert shard.num_resources == space.num_resources  # global N
