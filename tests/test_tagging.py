"""Tests for the tagging substrate: entities, folksonomy, cleaning, io, store."""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tagging.cleaning import (
    CleaningConfig,
    clean_folksonomy,
    is_system_tag,
    normalize_tag,
)
from repro.tagging.entities import PostKey, TagAssignment
from repro.tagging.folksonomy import Folksonomy
from repro.tagging.io import (
    read_assignments_jsonl,
    read_assignments_tsv,
    write_assignments_jsonl,
    write_assignments_tsv,
)
from repro.tagging.stats import (
    compute_statistics,
    gini_coefficient,
    tag_frequency_distribution,
)
from repro.tagging.store import FolksonomyStore
from repro.utils.errors import ConfigurationError, DataFormatError


class TestEntities:
    def test_tag_assignment_is_hashable_and_ordered(self):
        a = TagAssignment("u1", "t1", "r1")
        b = TagAssignment("u1", "t1", "r1")
        c = TagAssignment("u2", "t1", "r1")
        assert a == b and hash(a) == hash(b)
        assert a < c
        assert len({a, b, c}) == 2

    def test_with_tag(self):
        a = TagAssignment("u1", "t1", "r1")
        assert a.with_tag("t2") == TagAssignment("u1", "t2", "r1")

    def test_post_key(self):
        assert PostKey("u1", "r1").as_tuple() == ("u1", "r1")
        assert PostKey("u1", "r1") < PostKey("u2", "r1")


class TestFolksonomy:
    def test_basic_counts_match_running_example(self, toy_folksonomy):
        assert toy_folksonomy.num_users == 3
        assert toy_folksonomy.num_tags == 3
        assert toy_folksonomy.num_resources == 3
        assert toy_folksonomy.num_assignments == 7

    def test_duplicates_are_collapsed(self):
        records = [("u1", "t1", "r1")] * 3
        assert Folksonomy(records).num_assignments == 1

    def test_membership_and_iteration(self, toy_folksonomy):
        assert ("u1", "t1", "r1") in toy_folksonomy
        assert ("u9", "t1", "r1") not in toy_folksonomy
        assert len(list(toy_folksonomy)) == 7

    def test_relationship_queries(self, toy_folksonomy):
        assert toy_folksonomy.tags_of_resource("r1") == {"t1": 1, "t2": 1}
        assert toy_folksonomy.tag_bag("r2") == {"t1": 3}

    def test_id_interning_is_dense_and_sorted(self, toy_folksonomy):
        assert [toy_folksonomy.tag_id(t) for t in toy_folksonomy.tags] == [0, 1, 2]
        assert toy_folksonomy.user_id("u2") == 1
        with pytest.raises(KeyError):
            toy_folksonomy.tag_id("nope")

    def test_pickle_round_trip_keeps_the_corpus_immutable(self, toy_folksonomy):
        """A spawned refit worker receives the folksonomy through pickle."""
        clone = pickle.loads(pickle.dumps(toy_folksonomy))
        assert clone.name == toy_folksonomy.name
        assert (clone.users, clone.tags, clone.resources) == (
            toy_folksonomy.users,
            toy_folksonomy.tags,
            toy_folksonomy.resources,
        )
        for got, want in zip(clone.columns, toy_folksonomy.columns):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
        for got, want in zip(clone.tag_counts(), toy_folksonomy.tag_counts()):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    def test_to_tensor_matches_paper_figure2(self, toy_folksonomy):
        tensor = toy_folksonomy.to_tensor()
        dense = tensor.to_dense()
        # Frontal slice for tag t1 (Fig. 2b / Section IV-A).
        expected_t1 = np.array([[1, 1, 0], [0, 1, 0], [0, 1, 0]], dtype=float)
        expected_t2 = np.zeros((3, 3))
        expected_t2[0, 0] = 1
        expected_t3 = np.zeros((3, 3))
        expected_t3[1, 2] = 1
        expected_t3[2, 2] = 1
        assert np.array_equal(dense[:, 0, :], expected_t1)
        assert np.array_equal(dense[:, 1, :], expected_t2)
        assert np.array_equal(dense[:, 2, :], expected_t3)

    def test_to_tag_resource_matrix_matches_paper_figure3(self, toy_folksonomy):
        matrix = toy_folksonomy.to_tag_resource_matrix().toarray()
        expected = np.array([[1, 3, 0], [1, 0, 0], [0, 0, 2]], dtype=float)
        assert np.array_equal(matrix, expected)

    def test_to_user_tag_matrix(self, toy_folksonomy):
        matrix = toy_folksonomy.to_user_tag_matrix().toarray()
        assert matrix[0, 0] == 2  # u1 used t1 on two resources
        assert matrix[0, 1] == 1
        assert matrix[2, 2] == 1

    def test_empty_folksonomy_tensor_raises(self):
        with pytest.raises(ConfigurationError):
            Folksonomy([]).to_tensor()

    def test_heap_footprint_does_not_grow_with_assignments(self):
        """``Y`` lives in id columns: no Python object per assignment.

        Counts GC-tracked objects, not time.  Indexing ``assignments``
        builds the one assignment asked for and nothing else.
        """
        records = [
            (f"u{i % 97}", f"t{i % 89}", f"r{i % 2003}") for i in range(20_000)
        ]
        gc.collect()
        before = len(gc.get_objects())
        folksonomy = Folksonomy(records)
        gc.collect()
        assert folksonomy.num_assignments == 20_000
        assert len(gc.get_objects()) - before < 50

        def live_assignments() -> int:
            return sum(isinstance(o, TagAssignment) for o in gc.get_objects())

        baseline = live_assignments()
        item = folksonomy.assignments[12_345]
        assert live_assignments() == baseline + 1
        assert item == sorted(TagAssignment(*r) for r in records)[12_345]


class TestCleaning:
    def test_normalize_and_system_tags(self):
        config = CleaningConfig()
        assert normalize_tag("  MuSiC ", config) == "music"
        assert is_system_tag("system:imported", config)
        assert is_system_tag("FOR:someone", config)
        assert not is_system_tag("music", config)

    def test_cleaning_removes_system_tags_and_lowercases(self):
        records = [
            ("u1", "Music", "r1"),
            ("u2", "music", "r1"),
            ("u3", "MUSIC", "r1"),
            ("u1", "system:imported", "r1"),
            ("u2", "music", "r2"),
            ("u3", "music", "r2"),
            ("u1", "music", "r2"),
        ]
        cleaned, report = clean_folksonomy(
            Folksonomy(records, name="x"), CleaningConfig(min_assignments=2)
        )
        assert "system:imported" not in cleaned.tags
        assert cleaned.tags == ("music",)
        assert report.removed_system_assignments == 1
        assert report.raw.num_assignments == 7

    def test_min_support_pruning_reaches_fixed_point(self):
        # A chain where removing one rare tag makes a resource rare too.
        records = [
            ("u1", "a", "r1"),
            ("u2", "a", "r1"),
            ("u3", "a", "r1"),
            ("u1", "rare", "r2"),
            ("u2", "a", "r2"),
        ]
        cleaned, report = clean_folksonomy(
            Folksonomy(records), CleaningConfig(min_assignments=2)
        )
        assert "rare" not in cleaned.tags
        assert report.pruning_iterations >= 1
        stats = compute_statistics(cleaned)
        assert stats.num_assignments <= 5

    def test_cleaning_can_empty_the_dataset(self):
        records = [("u1", "a", "r1")]
        cleaned, report = clean_folksonomy(
            Folksonomy(records), CleaningConfig(min_assignments=5)
        )
        assert cleaned.num_assignments == 0
        assert report.notes

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigurationError):
            CleaningConfig(min_assignments=0)
        with pytest.raises(ConfigurationError):
            CleaningConfig(max_iterations=0)

    def test_report_summary_is_informative(self, small_dataset):
        _, report = clean_folksonomy(small_dataset.folksonomy)
        text = report.summary()
        assert "cleaning" in text and "->" in text

    @settings(max_examples=25, deadline=None)
    @given(min_support=st.integers(1, 6))
    def test_property_all_surviving_entities_meet_support(self, min_support):
        rng = np.random.default_rng(min_support)
        records = [
            (f"u{rng.integers(6)}", f"t{rng.integers(8)}", f"r{rng.integers(6)}")
            for _ in range(120)
        ]
        cleaned, _ = clean_folksonomy(
            Folksonomy(records), CleaningConfig(min_assignments=min_support)
        )
        users, tags, resources = cleaned.assignment_counts()
        for counts in (users, tags, resources):
            assert all(count >= min_support for count in counts.values())


class TestStatistics:
    def test_statistics_fields(self, toy_folksonomy):
        stats = compute_statistics(toy_folksonomy, label="raw")
        assert stats.num_users == 3
        assert stats.tensor_cells == 27
        assert stats.density == pytest.approx(7 / 27)
        assert stats.as_row()["|Y|"] == 7
        assert stats.as_dict()["label"] == "raw"

    def test_tag_frequency_distribution_sorted(self, toy_folksonomy):
        distribution = tag_frequency_distribution(toy_folksonomy)
        assert list(distribution) == sorted(distribution, reverse=True)
        assert distribution.sum() == 7

    def test_gini_coefficient_bounds(self):
        assert gini_coefficient(np.array([5.0, 5.0, 5.0])) == pytest.approx(0.0, abs=1e-9)
        skewed = gini_coefficient(np.array([0.0, 0.0, 10.0]))
        assert 0.5 < skewed <= 1.0
        assert gini_coefficient(np.array([])) == 0.0


class TestIo:
    def test_tsv_roundtrip(self, tmp_path, toy_folksonomy):
        path = tmp_path / "data.tsv"
        written = write_assignments_tsv(toy_folksonomy.assignments, path)
        assert written == 7
        loaded = list(read_assignments_tsv(path))
        assert sorted(loaded) == sorted(toy_folksonomy.assignments)

    def test_jsonl_roundtrip(self, tmp_path, toy_folksonomy):
        path = tmp_path / "data.jsonl"
        written = write_assignments_jsonl(toy_folksonomy.assignments, path)
        assert written == 7
        loaded = list(read_assignments_jsonl(path))
        assert sorted(loaded) == sorted(toy_folksonomy.assignments)

    def test_tsv_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\tt1\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            list(read_assignments_tsv(path))

    def test_tsv_rejects_labels_with_tabs(self, tmp_path):
        path = tmp_path / "data.tsv"
        with pytest.raises(DataFormatError):
            write_assignments_tsv([TagAssignment("u\t1", "t", "r")], path)

    def test_tsv_rejects_user_labels_the_reader_takes_for_comments(self, tmp_path):
        path = tmp_path / "data.tsv"
        with pytest.raises(DataFormatError, match="JSON-lines"):
            write_assignments_tsv([TagAssignment("#u1", "t", "r")], path)
        # Only a line's first field can start a comment.
        write_assignments_tsv([TagAssignment("u1", "#t", "#r")], path)
        assert list(read_assignments_tsv(path)) == [TagAssignment("u1", "#t", "#r")]

    def test_tsv_rejects_labels_with_carriage_returns(self, tmp_path):
        path = tmp_path / "data.tsv"
        for labels in (("u\r1", "t", "r"), ("u", "t\r", "r"), ("u", "t", "r\r")):
            with pytest.raises(DataFormatError, match="JSON-lines"):
                write_assignments_tsv([TagAssignment(*labels)], path)

    def test_jsonl_rejects_invalid_json_and_missing_keys(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            list(read_assignments_jsonl(path))
        path.write_text('{"user": "u1", "tag": "t"}\n', encoding="utf-8")
        with pytest.raises(DataFormatError):
            list(read_assignments_jsonl(path))

    def test_tsv_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("# header\n\nu1\tt1\tr1\n", encoding="utf-8")
        assert len(list(read_assignments_tsv(path))) == 1


class TestStore:
    def test_save_load_roundtrip(self, tmp_path, toy_folksonomy):
        store = FolksonomyStore(tmp_path)
        record = store.save(toy_folksonomy, name="toy", metadata={"source": "unit-test"})
        assert record.num_assignments == 7
        assert store.exists("toy")
        loaded = store.load("toy")
        assert sorted(loaded.assignments) == sorted(toy_folksonomy.assignments)
        described = store.describe("toy")
        assert described.metadata["source"] == "unit-test"
        assert store.list_datasets() == ["toy"]

    def test_overwrite_protection(self, tmp_path, toy_folksonomy):
        store = FolksonomyStore(tmp_path)
        store.save(toy_folksonomy, name="toy")
        with pytest.raises(DataFormatError):
            store.save(toy_folksonomy, name="toy", overwrite=False)

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(DataFormatError):
            FolksonomyStore(tmp_path).load("missing")

    def test_invalid_name_rejected(self, tmp_path, toy_folksonomy):
        store = FolksonomyStore(tmp_path)
        with pytest.raises(DataFormatError):
            store.save(toy_folksonomy, name="../escape")

    def test_delete_and_load_or_create(self, tmp_path, toy_folksonomy):
        store = FolksonomyStore(tmp_path)
        calls = []

        def factory():
            calls.append(1)
            return toy_folksonomy

        first = store.load_or_create("toy", factory)
        second = store.load_or_create("toy", factory)
        assert len(calls) == 1
        assert first.num_assignments == second.num_assignments
        store.delete("toy")
        assert not store.exists("toy")
        store.delete("toy")  # idempotent
