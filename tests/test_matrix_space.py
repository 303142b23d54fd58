"""Parity and persistence tests for the matrix concept space.

The fit-once dict-loop :class:`ConceptVectorSpace` is the reference; the CSR
:class:`MatrixConceptSpace` built from the same bags must reproduce its
scores and its ordering (descending score, ties by ascending resource id)
within 1e-9.  Persistence must round-trip through raw ``.npy`` arrays + JSON,
memory-mapped or read eagerly, including into a fresh Python process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from oracle import DictLoopOracle
from repro.baselines.freq import FreqRanker
from repro.core.concepts import Concept, ConceptModel, identity_concept_model
from repro.core.pipeline import CubeLSIPipeline, OfflineIndex
from repro.search.engine import SearchEngine
from repro.search.matrix_space import MatrixConceptSpace, select_top_k
from repro.search.sharding import ShardRouter
from repro.search.vsm import ConceptVectorSpace, mismatched_probes, rankings_match
from repro.utils.errors import ConfigurationError, NotFittedError

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def random_bags(rng, num_resources, vocabulary, max_terms=6, max_count=5):
    """Random ``resource -> {term -> count}`` bags over ``vocabulary``."""
    bags = {}
    for index in range(num_resources):
        size = int(rng.integers(1, max_terms + 1))
        terms = rng.choice(len(vocabulary), size=size, replace=False)
        bags[f"r{index:04d}"] = {
            vocabulary[term]: int(rng.integers(1, max_count + 1)) for term in terms
        }
    return bags


def assert_parity(reference, compiled, tol=1e-9):
    """Assert two ranked result lists agree in ordering and scores."""
    assert [r.resource for r in reference] == [r.resource for r in compiled]
    for expected, got in zip(reference, compiled):
        assert got.score == pytest.approx(expected.score, abs=tol)
        assert got.rank == expected.rank


class TestSelectTopK:
    def test_drops_non_positive_scores(self):
        positions = np.array([0, 1, 2])
        scores = np.array([0.0, 0.5, -1.0])
        assert list(select_top_k(positions, scores, None)) == [1]

    def test_boundary_ties_prefer_lower_positions(self):
        positions = np.array([5, 1, 3, 2])
        scores = np.array([0.5, 0.5, 0.9, 0.5])
        # top-2: the 0.9 entry, then among the three tied 0.5 entries the
        # one with the smallest position (1).
        selected = select_top_k(positions, scores, 2)
        assert list(positions[selected]) == [3, 1]

    def test_top_k_larger_than_candidates(self):
        positions = np.array([0, 1])
        scores = np.array([0.2, 0.4])
        assert list(positions[select_top_k(positions, scores, 10)]) == [1, 0]

    def test_empty_input(self):
        empty = np.array([], dtype=np.int64)
        assert select_top_k(empty, np.array([]), 3).size == 0


class TestRandomParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_parity_on_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        vocabulary = [f"t{i}" for i in range(40)]
        bags = random_bags(rng, num_resources=120, vocabulary=vocabulary)
        reference = ConceptVectorSpace().fit(bags)
        compiled = MatrixConceptSpace.compile(reference)

        queries = []
        for _ in range(25):
            size = int(rng.integers(1, 5))
            terms = rng.choice(len(vocabulary), size=size, replace=False)
            query = {vocabulary[t]: int(rng.integers(1, 4)) for t in terms}
            if rng.random() < 0.3:
                query["unseen-term"] = 1  # out-of-vocabulary mass
            queries.append(query)
        queries.append({})  # empty bag
        queries.append({"only-unseen": 2.0})

        for top_k in (None, 1, 7, 1000):
            batched = compiled.rank_batch(queries, top_k=top_k)
            assert len(batched) == len(queries)
            for query, results in zip(queries, batched):
                assert_parity(reference.rank(query, top_k=top_k), results)
                assert_parity(results, compiled.rank(query, top_k=top_k))

    def test_zero_and_negative_counts_are_ignored(self):
        bags = {"r1": {"a": 2, "b": 1}, "r2": {"b": 3}, "r3": {"a": 1}}
        reference = ConceptVectorSpace().fit(bags)
        compiled = MatrixConceptSpace.compile(reference)
        query = {"a": 1.0, "b": 0.0, "c": -2.0}
        assert_parity(reference.rank(query), compiled.rank(query))

    def test_zero_norm_query_yields_empty_not_nan(self):
        bags = {"r1": {"common": 1}, "r2": {"common": 2, "rare": 1}}
        compiled = MatrixConceptSpace.compile(ConceptVectorSpace().fit(bags))
        # "common" appears everywhere -> idf 0 -> zero query norm.
        assert compiled.rank({"common": 3.0}) == []
        assert compiled.rank_batch([{}, {"common": 1}]) == [[], []]

    def test_invalid_top_k_rejected(self):
        compiled = MatrixConceptSpace.compile(
            ConceptVectorSpace().fit({"r1": {"a": 1}, "r2": {"b": 1}})
        )
        with pytest.raises(ConfigurationError):
            compiled.rank({"a": 1}, top_k=0)

    def test_cosine_matches_reference(self):
        rng = np.random.default_rng(3)
        vocabulary = [f"t{i}" for i in range(15)]
        bags = random_bags(rng, num_resources=30, vocabulary=vocabulary)
        reference = ConceptVectorSpace().fit(bags)
        compiled = MatrixConceptSpace.compile(reference)
        query = {"t1": 2, "t5": 1, "unseen": 1}
        for resource in list(bags)[:10]:
            assert compiled.cosine(query, resource) == pytest.approx(
                reference.cosine(query, resource), abs=1e-9
            )
        assert compiled.cosine(query, "missing-resource") == 0.0


class TestFromBags:
    """``from_bags`` — the one constructor — against ``ConceptVectorSpace.fit``."""

    @staticmethod
    def tag_bags(folksonomy):
        return {r: dict(folksonomy.tag_bag(r)) for r in folksonomy.resources}

    @pytest.mark.parametrize("corpus", ["toy_folksonomy", "small_cleaned"])
    def test_statistics_and_rankings_match_reference(self, request, corpus):
        bags = self.tag_bags(request.getfixturevalue(corpus))
        reference = ConceptVectorSpace().fit(bags)
        space = MatrixConceptSpace.from_bags(bags)

        assert space.doc_ids == tuple(sorted(bags))
        assert set(space.terms) == set(reference.terms())
        assert space.num_resources == reference.num_resources
        for term in reference.terms():
            assert space.idf(term) == pytest.approx(reference.idf(term), abs=1e-9)
        for resource in bags:
            want = reference.resource_vector(resource)
            got = space.document_weights(resource)
            assert got.keys() == want.keys()
            for term, weight in want.items():
                assert got[term] == pytest.approx(weight, abs=1e-9)

        rng = np.random.default_rng(5)
        vocabulary = list(reference.terms())
        queries = [
            {vocabulary[t]: 1.0 for t in rng.choice(len(vocabulary), size=size)}
            for size in (1, 2, 3)
            for _ in range(6)
        ]
        for query in queries:
            assert space.query_weights(query) == pytest.approx(
                reference.query_vector(query), abs=1e-9
            )
            for top_k in (None, 5):
                assert rankings_match(
                    space.rank(query, top_k=top_k),
                    reference.rank(query, top_k=top_k),
                    tol=1e-9,
                    truncated=top_k is not None,
                )

    @staticmethod
    def concept_model(folksonomy, kind):
        """A model over all of ``folksonomy``'s tags, half of them or none."""
        tags = list(folksonomy.tags)
        if kind == "ignored":  # no corpus tag maps to a concept
            return ConceptModel([Concept(0, ("no-such-tag",))], {"no-such-tag": 0})
        if kind == "partial":  # the model lacks every other tag
            tags = tags[::2]
        concepts = [Concept(c, tuple(tags[c::7])) for c in range(7)]
        return ConceptModel(
            concepts, {tag: c.concept_id for c in concepts for tag in c.tags}
        )

    @pytest.mark.parametrize("kind", ["generated", "partial", "ignored"])
    def test_columnar_build_saves_the_bytes_of_the_bag_build(
        self, small_cleaned, tmp_path, kind
    ):
        model = self.concept_model(small_cleaned, kind)
        bags = {
            r: model.concept_bag(small_cleaned.tag_bag(r))
            for r in small_cleaned.resources
        }
        MatrixConceptSpace.from_bags(bags).save(tmp_path / "bags")
        engine = SearchEngine.build(small_cleaned, model)
        engine.matrix_space.save(tmp_path / "built")

        saved = sorted(path.name for path in (tmp_path / "bags").iterdir())
        assert sorted(path.name for path in (tmp_path / "built").iterdir()) == saved
        for name in saved:
            reference = (tmp_path / "bags" / name).read_bytes()
            assert (tmp_path / "built" / name).read_bytes() == reference, name
        if kind == "ignored":
            space = engine.matrix_space
            assert space.doc_ids == small_cleaned.resources and space.terms == ()
            assert all(space.document_norm(r) == 0.0 for r in space.doc_ids)
            queries = [[tag] for tag in small_cleaned.tags[:5]] + [["no-such-tag"]]
            assert engine.rank_batch(queries, top_k=3) == [[]] * len(queries)

    def test_idf_zero_term_and_all_zero_document(self):
        # Deliberately not in id order; "common" is in every document, so
        # under plain idf its weight is structurally absent and r1 — which
        # carries nothing else — has norm 0.
        bags = {
            "r2": {"common": 1, "rare": 1},
            "r1": {"common": 2},
            "r3": {"common": 1, "other": 2},
        }
        space = MatrixConceptSpace.from_bags(bags)
        assert space.doc_ids == ("r1", "r2", "r3")
        assert space.idf("common") == 0.0
        assert space.nnz == 2
        assert all("common" not in space.document_weights(r) for r in bags)
        assert space.document_norm("r1") == 0.0
        for top_k in (None, 2):
            batch = space.rank_batch(
                [{"common": 1}, {"common": 1, "rare": 1}, {"rare": 1, "other": 1}],
                top_k=top_k,
            )
            assert batch[0] == []
            assert [r.resource for r in batch[1]] == ["r2"]
            assert {r.resource for r in batch[2]} == {"r2", "r3"}
            assert all(np.isfinite(r.score) for results in batch for r in results)
        assert space.cosine({"common": 1, "rare": 1}, "r1") == 0.0

    def test_input_checks(self):
        with pytest.raises(ConfigurationError):
            MatrixConceptSpace.from_bags({})
        space = MatrixConceptSpace.from_bags(
            {"r1": {"a": 0, "b": -1, "c": 2}, "r2": {"d": 1}}
        )
        assert space.terms == ("c", "d")

    def test_build_equals_refresh_after_mutation(self):
        rng = np.random.default_rng(17)
        vocabulary = [f"t{i}" for i in range(12)]
        before = random_bags(rng, num_resources=20, vocabulary=vocabulary)
        after = dict(before)
        del after["r0003"]
        after["r0007"] = {"t1": 2, "brand-new": 1}
        after["r9999"] = {"t2": 1, "t5": 3}

        mutated = MatrixConceptSpace.from_bags(before)
        mutated.remove_documents(["r0003"])
        mutated.update_document("r0007", after["r0007"])
        mutated.add_documents({"r9999": after["r9999"]})
        assert mutated.refresh()
        scratch = MatrixConceptSpace.from_bags(after)

        assert mutated.doc_ids == scratch.doc_ids
        assert set(mutated.terms) == set(scratch.terms)
        for resource in after:
            assert mutated.document_weights(resource) == pytest.approx(
                scratch.document_weights(resource), abs=1e-12
            )
            assert mutated.document_norm(resource) == pytest.approx(
                scratch.document_norm(resource), abs=1e-12
            )


def assert_scores_like_scratch_build(space, bags, queries):
    """``space`` ranks like a from-scratch build over ``bags`` (or its rows of one).

    The caller has ranked on ``space`` *before* changing it, so a kernel
    still reading the postings of the old weights fails here.
    """
    scratch = MatrixConceptSpace.from_bags(bags)
    if space.doc_ids != scratch.doc_ids:  # a shard: its rows, corpus-wide idf
        scratch = scratch.slice_rows(space.doc_ids)
    for top_k in (None, 5):
        assert not mismatched_probes(
            space.rank_batch(queries, top_k=top_k),
            scratch.rank_batch(queries, top_k=top_k),
            truncated=top_k is not None,
        )


def assert_postings_are_mapped(space):
    """Both postings arrays are views over ``np.memmap`` files, not copies."""
    _, post_rows, post_weights = space._postings
    for array in (post_rows, post_weights):
        base = array
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap) and np.shares_memory(array, base)


class TestPostingsFreshness:
    """The term-major postings follow every mutation of the documents."""

    VOCABULARY = [f"t{i}" for i in range(12)]
    QUERIES = [{"t1": 1}, {"t2": 2, "t5": 1}, {"t0": 1, "t3": 1, "rare": 1}, {"rare": 1}]

    def corpus(self):
        bags = random_bags(
            np.random.default_rng(29), num_resources=40, vocabulary=self.VOCABULARY
        )
        bags["r0001"]["rare"] = 2  # the only carrier: removing it prunes a column
        return bags

    def test_local_mutations_refresh_and_vocabulary_prune(self):
        bags = self.corpus()
        space = MatrixConceptSpace.from_bags(bags)
        assert_scores_like_scratch_build(space, bags, self.QUERIES)

        bags["r9000"] = {"t1": 1, "brand-new": 2}
        space.add_documents({"r9000": bags["r9000"]})
        assert_scores_like_scratch_build(space, bags, self.QUERIES)
        bags["r0004"] = {"t5": 3}
        space.update_document("r0004", bags["r0004"])
        assert_scores_like_scratch_build(space, bags, self.QUERIES)
        del bags["r0001"]
        space.remove_documents(["r0001"])
        assert space.refresh() and "rare" not in space.terms
        assert_scores_like_scratch_build(space, bags, self.QUERIES)

    @pytest.mark.parametrize("mmap", [True, False], ids=["npy-mmap", "npy-eager"])
    def test_a_save_is_what_is_scored(self, tmp_path, mmap):
        bags = self.corpus()
        MatrixConceptSpace.from_bags(bags).save(tmp_path)
        assert {path.suffix for path in tmp_path.iterdir()} == {".npy", ".json"}
        loaded = MatrixConceptSpace.load(tmp_path, mmap=mmap)
        if mmap:  # zero-copy: nothing nnz-sized is derived, before or after
            assert_postings_are_mapped(loaded)
        assert_scores_like_scratch_build(loaded, bags, self.QUERIES)
        if mmap:
            assert_postings_are_mapped(loaded)

        bags["r9000"] = {"t1": 1, "brand-new": 2}
        loaded.add_documents({"r9000": bags["r9000"]})
        assert_scores_like_scratch_build(loaded, bags, self.QUERIES)

    def test_partition_shards_and_coordinated_refresh(self, small_cleaned):
        model = identity_concept_model(small_cleaned.tags)
        engine = SearchEngine.build(small_cleaned, model)
        router = ShardRouter(2)
        bags = {
            r: model.concept_bag(small_cleaned.tag_bag(r))
            for r in small_cleaned.resources
        }
        tags = list(small_cleaned.tags)
        queries = [model.concept_bag_from_tags(tags[i : i + 2]) for i in range(8)]
        for shard in engine.matrix_space.partition(2, router.shard_of):
            assert_scores_like_scratch_build(shard, bags, queries)

        victim, updated = small_cleaned.resources[:2]
        engine.apply_mutations(
            added={"r-new": {tags[0]: 2.0, tags[3]: 1.0}},
            updated={updated: {tags[1]: 1.0}},
            removed=[victim],
        )
        del bags[victim]
        bags["r-new"] = model.concept_bag({tags[0]: 2.0, tags[3]: 1.0})
        bags[updated] = model.concept_bag({tags[1]: 1.0})
        assert engine.refresh()
        for shard in engine.matrix_space.partition(2, router.shard_of):
            assert_scores_like_scratch_build(shard, bags, queries)


class TestRefreshCostsWhatItTouches:
    """A refresh rewrites the postings of the terms a delta touches, no more.

    Structural, not timed: after a one-document write to a 5k-row space,
    every other term's postings are the very same array objects and the
    id -> slot index is the same dict, so the refresh cannot have paid for
    the corpus.
    """

    @pytest.mark.parametrize("kind", ["update", "add", "remove"])
    def test_untouched_postings_and_the_slot_index_survive(self, kind):
        vocabulary = [f"t{i}" for i in range(40)]
        bags = random_bags(np.random.default_rng(41), 5000, vocabulary)
        space = MatrixConceptSpace.from_bags(bags)
        rows, tf, index = list(space._post_rows), list(space._post_tf), space._doc_index
        if kind == "update":
            touched = set(bags["r0042"]) | {"t1", "t7"}
            bags["r0042"] = {"t1": 2, "t7": 1}
            space.update_document("r0042", bags["r0042"])
        elif kind == "add":
            bags["r0042a"] = {"t1": 2, "t7": 1}
            touched = set(bags["r0042a"])
            space.add_documents({"r0042a": bags["r0042a"]})
        else:
            touched = set(bags.pop("r0042"))
            space.remove_documents(["r0042"])
        assert space.refresh()

        assert space._doc_index is index
        assert 0 < len(touched) < len(vocabulary)
        for term, column in space._term_index.items():
            kept = space._post_rows[column] is rows[column]
            assert kept == (space._post_tf[column] is tf[column])
            assert kept == (term not in touched), term
        assert_scores_like_scratch_build(space, bags, [{"t1": 1}, {"t7": 1, "t3": 1}])


class TestConcurrentReaders:
    """Readers share a space (the engine's read lock admits many at once)."""

    def test_threads_get_the_serial_answers(self):
        rng = np.random.default_rng(31)
        vocabulary = [f"t{i}" for i in range(8)]
        model = identity_concept_model(vocabulary)
        bags = random_bags(rng, num_resources=1500, vocabulary=vocabulary)
        space = MatrixConceptSpace.from_bags(
            {doc_id: model.concept_bag(bag) for doc_id, bag in bags.items()}
        )
        engine = SearchEngine(model, space)
        # One- and multi-concept queries alternate: the second kind scores
        # through scratch buffers, which must not be shared between calls.
        queries = [
            [vocabulary[i] for i in rng.choice(8, size=1 + position % 3, replace=False)]
            for position in range(200)
        ]
        concept_bags = [model.concept_bag_from_tags(tags) for tags in queries]
        serial_space = [space.rank(bag, top_k=10) for bag in concept_bags]
        serial_engine = [engine.search(tags, top_k=10) for tags in queries]

        wrong = []

        def reader(offset):
            for step in range(len(queries)):
                probe = (offset * 25 + step) % len(queries)
                if space.rank(concept_bags[probe], top_k=10) != serial_space[probe]:
                    wrong.append(("space", probe))
                if engine.search(queries[probe], top_k=10) != serial_engine[probe]:
                    wrong.append(("engine", probe))

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-kernel, not between calls
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestEngineParity:
    def test_engine_matches_dict_loop_oracle_on_folksonomy(self, small_cleaned):
        model = identity_concept_model(small_cleaned.tags)
        matrix_engine = SearchEngine.build(small_cleaned, model, name="m")
        oracle = DictLoopOracle.of_folksonomy(model, small_cleaned)
        rng = np.random.default_rng(11)
        tags = list(small_cleaned.tags)
        queries = [
            [tags[i] for i in rng.choice(len(tags), size=size, replace=False)]
            for size in (1, 2, 3)
            for _ in range(5)
        ]
        queries.append([])
        queries.append(["no-such-tag"])
        batched = matrix_engine.rank_batch(queries, top_k=20)
        for tags_query, results in zip(queries, batched):
            assert_parity(oracle.rank(tags_query, top_k=20), results)

    def test_freq_batch_matches_loop(self, small_cleaned):
        ranker = FreqRanker().fit(small_cleaned)
        rng = np.random.default_rng(23)
        tags = list(small_cleaned.tags)
        queries = [
            [tags[i] for i in rng.choice(len(tags), size=2, replace=False)]
            for _ in range(10)
        ]
        queries.append([])
        batched = ranker.rank_batch(queries, top_k=10)
        for tags_query, ranked in zip(queries, batched):
            expected = ranker.rank(tags_query, top_k=10)
            assert [r for r, _ in ranked] == [r for r, _ in expected]
            for (_, got), (_, want) in zip(ranked, expected):
                assert got == pytest.approx(want, abs=1e-9)


class TestPersistence:
    def build_space(self):
        rng = np.random.default_rng(7)
        vocabulary = [f"t{i}" for i in range(20)]
        bags = random_bags(rng, num_resources=40, vocabulary=vocabulary)
        return MatrixConceptSpace.compile(ConceptVectorSpace().fit(bags))

    def test_matrix_space_round_trip(self, tmp_path):
        space = self.build_space()
        space.save(tmp_path)
        loaded = MatrixConceptSpace.load(tmp_path)
        assert loaded.doc_ids == space.doc_ids
        assert loaded.terms == space.terms
        assert loaded.nnz == space.nnz
        query = {"t1": 1, "t3": 2}
        assert_parity(space.rank(query), loaded.rank(query))
        assert_parity(
            space.rank_batch([query], top_k=5)[0],
            loaded.rank_batch([query], top_k=5)[0],
        )

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            MatrixConceptSpace.load(tmp_path / "nowhere")
        with pytest.raises(NotFittedError):
            SearchEngine.load(tmp_path / "nowhere")
        with pytest.raises(NotFittedError):
            OfflineIndex.load(tmp_path / "nowhere")

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_engine_round_trip(self, small_cleaned, tmp_path, num_shards):
        model = identity_concept_model(small_cleaned.tags)
        engine = SearchEngine.build(small_cleaned, model, name="bow")
        engine.save(tmp_path, num_shards=num_shards)
        loaded = SearchEngine.load(tmp_path)
        assert loaded.name == "bow"
        assert loaded.concept_model.num_concepts == model.num_concepts
        query = [small_cleaned.tags[0], small_cleaned.tags[1]]
        assert_parity(engine.search(query, top_k=10), loaded.search(query, top_k=10))
        best = engine.search(query)[0].resource
        assert loaded.score(query, best) > 0.0
        # explain of an engine restored from any shard count, and of the
        # shard view that holds the resource, equals the built breakdown
        view = SearchEngine.load_shard(
            tmp_path, ShardRouter(num_shards).shard_of(best)
        )
        assert_postings_are_mapped(view.matrix_space)  # a view only reads
        built = engine.explain(query, best)
        for restored in (
            loaded.explain(query, best),
            view.explain(query, best),
        ):
            assert restored["cosine"] == pytest.approx(built["cosine"], abs=1e-9)
            assert restored["cosine"] == pytest.approx(
                engine.score(query, best), abs=1e-9
            )
            assert restored["query_concepts"] == built["query_concepts"]
            weights = restored["per_concept_weights"]
            assert weights and weights.keys() == built["per_concept_weights"].keys()
            for concept, pair in built["per_concept_weights"].items():
                assert weights[concept] == pytest.approx(pair, abs=1e-9)
        loaded.close()

    def test_offline_index_round_trip_in_fresh_process(self, small_cleaned, tmp_path):
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=15, seed=0, min_rank=4
        )
        index = pipeline.fit(small_cleaned)
        index.save(tmp_path)

        query_tag = small_cleaned.tags[0]
        expected = index.engine.search([query_tag], top_k=5)

        loaded = OfflineIndex.load(tmp_path)
        assert loaded.folksonomy is None and loaded.cubelsi_result is None
        assert loaded.timings == pytest.approx(index.timings)
        assert_parity(expected, loaded.engine.search([query_tag], top_k=5))

        # The acceptance bar: load and query the saved index from a fresh
        # interpreter with nothing but the on-disk artefacts.
        script = (
            "import json, sys\n"
            "from repro.core.pipeline import OfflineIndex\n"
            "index = OfflineIndex.load(sys.argv[1])\n"
            "results = index.engine.search([sys.argv[2]], top_k=5)\n"
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
        assert [resource for resource, _ in fresh] == [r.resource for r in expected]
        for (_, score), result in zip(fresh, expected):
            assert score == pytest.approx(result.score, abs=1e-9)
