"""Tests for the concept vector space, inverted index and search engine."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import DictLoopOracle
from repro.core.concepts import Concept, ConceptModel, identity_concept_model
from repro.search.engine import SearchEngine
from repro.search.inverted_index import InvertedIndex
from repro.search.vsm import ConceptVectorSpace
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError, NotFittedError


class TestInvertedIndex:
    def test_add_and_score(self):
        index = InvertedIndex()
        index.add_document("d1", {"a": 1.0, "b": 1.0})
        index.add_document("d2", {"b": 2.0})
        scores = dict(index.cosine_scores({"b": 1.0}))
        assert scores["d2"] == pytest.approx(1.0)
        assert scores["d1"] == pytest.approx(1.0 / math.sqrt(2))

    def test_zero_weights_are_dropped(self):
        index = InvertedIndex()
        index.add_document("d1", {"a": 0.0, "b": 1.0})
        assert index.document_vector("d1") == {"b": 1.0}
        assert index.document_frequency("a") == 0

    def test_replace_document(self):
        index = InvertedIndex()
        index.add_document("d1", {"a": 1.0})
        index.add_document("d1", {"b": 1.0})
        assert index.num_documents == 1
        assert index.document_frequency("a") == 0
        assert index.document_frequency("b") == 1

    def test_remove_document(self):
        index = InvertedIndex()
        index.add_document("d1", {"a": 1.0})
        index.remove_document("d1")
        index.remove_document("missing")  # no error
        assert index.num_documents == 0
        assert index.cosine_scores({"a": 1.0}) == []

    def test_top_k_and_tie_breaking(self):
        index = InvertedIndex()
        index.add_document("b", {"x": 1.0})
        index.add_document("a", {"x": 1.0})
        index.add_document("c", {"x": 1.0, "y": 5.0})
        ranked = index.cosine_scores({"x": 1.0}, top_k=2)
        assert [doc for doc, _ in ranked] == ["a", "b"]
        with pytest.raises(ConfigurationError):
            index.cosine_scores({"x": 1.0}, top_k=0)

    def test_empty_query_returns_nothing(self):
        index = InvertedIndex()
        index.add_document("d1", {"a": 1.0})
        assert index.cosine_scores({}) == []
        assert index.cosine_scores({"a": 0.0}) == []

    def test_bulk_build(self):
        index = InvertedIndex().build({"d1": {"a": 1.0}, "d2": {"a": 2.0}})
        assert index.num_documents == 2
        assert index.num_terms == 1
        assert len(index.postings("a")) == 2
        assert set(index.documents()) == {"d1", "d2"}


class TestConceptVectorSpace:
    def build_space(self):
        bags = {
            "r1": {"music": 2, "travel": 1},
            "r2": {"music": 1},
            "r3": {"travel": 3},
        }
        return ConceptVectorSpace().fit(bags)

    def test_idf_matches_definition(self):
        space = self.build_space()
        assert space.idf("music") == pytest.approx(math.log(3 / 2))
        assert space.idf("travel") == pytest.approx(math.log(3 / 2))
        assert space.idf("unknown") == 0.0

    def test_tf_normalisation(self):
        space = self.build_space()
        vector = space.resource_vector("r1")
        # tf(music, r1) = 2/3, tf(travel, r1) = 1/3 (Eq. 2)
        assert vector["music"] == pytest.approx((2 / 3) * math.log(3 / 2))
        assert vector["travel"] == pytest.approx((1 / 3) * math.log(3 / 2))

    def test_term_in_every_document_has_zero_weight(self):
        bags = {"r1": {"common": 1}, "r2": {"common": 2, "rare": 1}}
        space = ConceptVectorSpace().fit(bags)
        assert space.idf("common") == pytest.approx(0.0)
        assert "common" not in space.resource_vector("r1")

    def test_rank_and_cosine_consistency(self):
        space = self.build_space()
        ranked = space.rank({"music": 1})
        assert ranked[0].resource == "r2"
        assert ranked[0].rank == 1
        for result in ranked:
            assert space.cosine({"music": 1}, result.resource) == pytest.approx(
                result.score
            )

    def test_cosine_bounds(self):
        space = self.build_space()
        for resource in ("r1", "r2", "r3"):
            value = space.cosine({"music": 1, "travel": 2}, resource)
            assert -1e-9 <= value <= 1.0 + 1e-9

    def test_empty_fit_and_unfitted_queries_raise(self):
        with pytest.raises(ConfigurationError):
            ConceptVectorSpace().fit({})
        space = ConceptVectorSpace()
        with pytest.raises(NotFittedError):
            space.rank({"a": 1})
        with pytest.raises(NotFittedError):
            space.query_vector({"a": 1})

    def test_properties(self):
        space = self.build_space()
        assert space.num_resources == 3
        assert space.vocabulary_size == 2

    @settings(max_examples=25, deadline=None)
    @given(counts=st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                                  st.integers(1, 5), min_size=1, max_size=4))
    def test_property_query_self_similarity_is_maximal(self, counts):
        """A resource queried with its own bag ranks itself first."""
        bags = {
            "target": dict(counts),
            "other": {"zzz": 1, "a": 1},
            "third": {"b": 2, "yyy": 3},
        }
        space = ConceptVectorSpace().fit(bags)
        ranked = space.rank(counts)
        assert ranked[0].resource == "target"


class TestSearchEngine:
    def build_engine(self):
        records = [
            ("u1", "music", "r1"),
            ("u2", "audio", "r1"),
            ("u1", "music", "r2"),
            ("u3", "travel", "r3"),
            ("u2", "vacation", "r3"),
            ("u3", "travel", "r4"),
        ]
        folksonomy = Folksonomy(records, name="engine-test")
        model = ConceptModel(
            concepts=[Concept(0, ("audio", "music")), Concept(1, ("travel", "vacation"))],
            tag_to_concept={"music": 0, "audio": 0, "travel": 1, "vacation": 1},
        )
        return folksonomy, SearchEngine.build(folksonomy, model, name="test")

    def test_build_never_makes_a_bag_per_resource(
        self, small_cleaned, monkeypatch
    ):
        model = identity_concept_model(small_cleaned.tags)
        queries = [[tag] for tag in small_cleaned.tags[:4]]
        queries.append(list(small_cleaned.tags[4:7]))
        expected = SearchEngine.build(small_cleaned, model).rank_batch(queries)

        def forbidden(*args, **kwargs):
            raise AssertionError("the build must not loop over resources")

        fresh = Folksonomy(small_cleaned.assignments)  # nothing derived yet
        with monkeypatch.context() as patched:
            patched.setattr(Folksonomy, "tag_bag", forbidden)
            patched.setattr(ConceptModel, "concept_bag", forbidden)
            engine = SearchEngine.build(fresh, model)
        assert engine.rank_batch(queries) == expected  # queries use concept_bag

    def test_concept_expansion_retrieves_synonym_tagged_resources(self):
        _, engine = self.build_engine()
        # "audio" only appears on r1, but concept expansion should also find
        # r2 (tagged "music"), because both tags map to the same concept.
        resources = engine.ranked_resources(["audio"])
        assert set(resources) >= {"r1", "r2"}
        assert "r3" not in resources

    def test_bow_engine_misses_synonyms(self):
        folksonomy, _ = self.build_engine()
        bow_engine = SearchEngine.build(
            folksonomy, identity_concept_model(folksonomy.tags), name="bow"
        )
        assert set(bow_engine.ranked_resources(["audio"])) == {"r1"}

    def test_empty_query_returns_empty_ranking(self):
        _, engine = self.build_engine()
        assert engine.search([]) == []
        assert engine.query_concepts([]) == {}
        assert engine.rank_batch([[], ["travel"]])[0] == []

    def test_unknown_tags_yield_empty_results(self):
        _, engine = self.build_engine()
        assert engine.search(["nonexistent"]) == []
        assert engine.score(["nonexistent"], "r1") == 0.0
        assert engine.rank_batch([["nonexistent"]]) == [[]]

    def test_bare_string_query_is_refused(self):
        _, engine = self.build_engine()
        assert engine.search(["audio"])  # the tag list form matches
        # list("audio") would be five one-letter tags that match nothing.
        with pytest.raises(ConfigurationError, match="bare string"):
            engine.search("audio")
        with pytest.raises(ConfigurationError, match="bare string"):
            engine.rank_batch([["travel"], "audio"])
        with pytest.raises(ConfigurationError, match="bare string"):
            engine.snapshot_rank_batch([b"audio"])

    def test_rank_batch_matches_search(self):
        _, engine = self.build_engine()
        queries = [["audio"], ["travel", "vacation"], [], ["nonexistent"]]
        batched = engine.rank_batch(queries, top_k=3)
        for tags, results in zip(queries, batched):
            assert results == engine.search(tags, top_k=3)

    def test_engine_matches_dict_loop_oracle(self):
        folksonomy, engine = self.build_engine()
        oracle = DictLoopOracle.of_folksonomy(engine.concept_model, folksonomy)
        for tags in (["audio"], ["travel"], ["music", "vacation"]):
            matrix_results = engine.search(tags)
            dict_results = oracle.rank(tags)
            assert [r.resource for r in matrix_results] == [
                r.resource for r in dict_results
            ]
            for got, expected in zip(matrix_results, dict_results):
                assert got.score == pytest.approx(expected.score, abs=1e-12)

    def test_score_and_explain(self):
        _, engine = self.build_engine()
        score = engine.score(["travel"], "r3")
        assert score > 0.0
        explanation = engine.explain(["travel"], "r3")
        assert explanation["cosine"] == pytest.approx(score)
        assert explanation["query_tags"] == ["travel"]
        assert explanation["query_concepts"]

    def test_top_k_limits_results(self):
        _, engine = self.build_engine()
        assert len(engine.search(["travel"], top_k=1)) == 1
