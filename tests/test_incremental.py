"""The incremental serving path: deltas, fold-in, epochs and snapshots.

The acceptance bar for every mutation API is *parity with a rebuild*: after
``add_resources`` / ``remove_resources`` / ``update_resource`` the engine's
rankings and scores must match, to 1e-9, both a from-scratch
``SearchEngine.build`` and the dict-loop oracle fitted on the mutated
folksonomy (same frozen concept model) — including after a
save → load → apply_delta round trip.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from oracle import DictLoopOracle, assert_matches_oracle
from repro.core.concepts import identity_concept_model
from repro.core.pipeline import CubeLSIPipeline, OfflineIndex
from repro.core.snapshots import IndexSnapshotStore
from repro.search.engine import SearchEngine
from repro.search.incremental import RefreshPolicy
from repro.search.matrix_space import METADATA_FILENAME, MatrixConceptSpace
from repro.search.shardpool import ShardPoolConfig, ShardPoolError, ShardProcessPool
from repro.tagging.delta import FolksonomyDelta, FolksonomyDeltaBuilder
from repro.tagging.entities import TagAssignment
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError, DataFormatError


def assert_ranking_parity(got_results, want_results, tol=1e-9, truncated=False):
    """Two ranked lists agree to ``tol``: same scores position by position,
    and the same resources in the same order except *within* a group of
    scores tied at ``tol``, where summation-order noise between the
    vectorized and dict-loop weight computations may legally permute the
    tie-break.  With ``truncated=True`` (a top-k cut) the trailing tie group
    may also differ in membership, because each engine picks its own
    lowest-id members of the boundary tie.
    """
    assert len(got_results) == len(want_results)
    position = 0
    while position < len(want_results):
        group_end = position
        while (
            group_end + 1 < len(want_results)
            and abs(want_results[group_end + 1].score - want_results[position].score)
            <= tol
        ):
            group_end += 1
        for got, want in zip(
            got_results[position : group_end + 1],
            want_results[position : group_end + 1],
        ):
            assert got.score == pytest.approx(want.score, abs=tol)
        boundary = truncated and group_end + 1 == len(want_results)
        if not boundary:
            assert {r.resource for r in got_results[position : group_end + 1]} == {
                r.resource for r in want_results[position : group_end + 1]
            }
        position = group_end + 1


def assert_engine_parity(incremental, rebuilt, queries, top_k=10, tol=1e-9):
    """Rankings and scores of two engines agree on every query."""
    got = incremental.rank_batch(queries, top_k=top_k)
    want = rebuilt.rank_batch(queries, top_k=top_k)
    for got_results, want_results in zip(got, want):
        assert_ranking_parity(
            got_results, want_results, tol=tol, truncated=top_k is not None
        )


def sample_queries(folksonomy, rng, count=25):
    tags = list(folksonomy.tags)
    queries = [
        [tags[i] for i in rng.choice(len(tags), size=size, replace=False)]
        for size in (1, 2, 3)
        for _ in range(count // 3)
    ]
    queries.append([])
    queries.append(["no-such-tag"])
    return queries


def build_mixed_delta(folksonomy, rng, num_new=3):
    """A delta with additions (new + existing tags), removals and retags."""
    tags = list(folksonomy.tags)
    builder = FolksonomyDeltaBuilder()
    for index in range(num_new):
        chosen = rng.choice(len(tags), size=3, replace=False)
        builder.add_resource(
            f"delta-resource-{index}",
            {f"delta-user-{index}": [tags[i] for i in chosen]},
        )
    builder.add_resource("delta-with-unknown-tag", {"delta-user-x": ["tag-not-in-model"]})
    builder.remove_resource(folksonomy, folksonomy.resources[0])
    retagged = folksonomy.resources[2]
    builder.add("delta-user-y", tags[0], retagged)
    for assignment in folksonomy.assignments_of_resource(folksonomy.resources[4])[:1]:
        builder.remove(*assignment.as_tuple())
    return builder.build()


class TestFolksonomyDelta:
    def test_normalisation_and_overlap_rejection(self):
        delta = FolksonomyDelta(
            added=[("u1", "t1", "r1"), TagAssignment("u1", "t1", "r1")],
            removed=[("u2", "t2", "r2")],
        )
        assert len(delta.added) == 1
        assert delta.touched_resources == ("r1", "r2")
        assert len(delta) == 2 and bool(delta)
        assert not FolksonomyDelta()
        with pytest.raises(ConfigurationError):
            FolksonomyDelta(added=[("u", "t", "r")], removed=[("u", "t", "r")])

    def test_builder_last_call_wins_on_conflicts(self):
        builder = FolksonomyDeltaBuilder()
        builder.add("u", "t", "r").remove("u", "t", "r")
        delta = builder.build()
        assert delta.added == () and delta.removed == (TagAssignment("u", "t", "r"),)
        builder.add("u", "t", "r")
        delta = builder.build()
        assert delta.added == (TagAssignment("u", "t", "r"),) and delta.removed == ()
        assert len(builder) == 1

    def test_diff_and_inverse(self, small_cleaned):
        rng = np.random.default_rng(1)
        delta = build_mixed_delta(small_cleaned, rng)
        after = small_cleaned.apply_delta(delta)
        recovered = FolksonomyDelta.diff(small_cleaned, after)
        assert after.apply_delta(recovered.inverse()).assignments == (
            small_cleaned.assignments
        )

    def test_apply_delta_matches_scratch_rebuild(self, small_cleaned):
        rng = np.random.default_rng(2)
        delta = build_mixed_delta(small_cleaned, rng)
        incremental = small_cleaned.apply_delta(delta)
        scratch = Folksonomy(
            (set(small_cleaned.assignments) | set(delta.added))
            - set(delta.removed),
            name=small_cleaned.name,
        )
        assert incremental.assignments == scratch.assignments
        assert incremental.users == scratch.users
        assert incremental.tags == scratch.tags
        assert incremental.resources == scratch.resources
        for resource in scratch.resources:
            assert incremental.tag_bag(resource) == scratch.tag_bag(resource)
        counts = incremental.assignment_counts()
        assert counts == scratch.assignment_counts()
        assert (
            incremental.to_tag_resource_matrix()
            != scratch.to_tag_resource_matrix()
        ).nnz == 0

    def test_apply_noop_delta_returns_self(self, small_cleaned):
        noop = FolksonomyDelta(
            removed=[("ghost-user", "ghost-tag", "ghost-resource")]
        )
        assert small_cleaned.apply_delta(noop) is small_cleaned


class TestEngineMutationParity:
    @pytest.fixture(scope="class")
    def concept_model(self, small_cleaned):
        return identity_concept_model(small_cleaned.tags)

    def test_mutations_match_full_rebuild(self, small_cleaned, concept_model):
        rng = np.random.default_rng(3)
        engine = SearchEngine.build(small_cleaned, concept_model, name="inc")
        delta = build_mixed_delta(small_cleaned, rng)
        mutated = small_cleaned.apply_delta(delta)

        added, removed, updated = {}, [], {}
        for resource in delta.touched_resources:
            had = small_cleaned.has_resource(resource)
            has = mutated.has_resource(resource)
            if has and not had:
                added[resource] = mutated.tag_bag(resource)
            elif had and not has:
                removed.append(resource)
            elif small_cleaned.tag_bag(resource) != mutated.tag_bag(resource):
                updated[resource] = mutated.tag_bag(resource)

        engine.remove_resources(removed)
        for resource, bag in updated.items():
            engine.update_resource(resource, bag)
        report = engine.add_resources(added)
        assert report.epoch == 2 + len(updated)
        assert report.resources_added == len(added)
        assert report.resources_removed == len(removed)

        rebuilt = SearchEngine.build(mutated, concept_model, name="rebuild")
        oracle = DictLoopOracle.of_folksonomy(concept_model, mutated)
        queries = sample_queries(mutated, rng)
        assert_engine_parity(engine, rebuilt, queries)
        assert_matches_oracle(engine, oracle, queries)
        assert_matches_oracle(engine, oracle, queries[:5], top_k=None)
        # the single-resource score path agrees as well
        for query in queries[:5]:
            for result in oracle.rank(query, top_k=5):
                assert engine.score(query, result.resource) == pytest.approx(
                    result.score, abs=1e-9
                )

    def test_mutation_validation(self, small_cleaned, concept_model):
        engine = SearchEngine.build(small_cleaned, concept_model, name="v")
        existing = small_cleaned.resources[0]
        with pytest.raises(ConfigurationError):
            engine.add_resources({existing: {"a": 1}})
        with pytest.raises(ConfigurationError):
            engine.remove_resources(["missing-resource"])
        with pytest.raises(ConfigurationError):
            engine.update_resource("missing-resource", {"a": 1})
        with pytest.raises(ConfigurationError):
            engine.remove_resources(list(small_cleaned.resources))
        # failed calls must not bump the epoch or touch the index
        assert engine.epoch == 0
        assert engine.num_indexed_resources == small_cleaned.num_resources

    def test_staleness_counters_and_policy(self, small_cleaned, concept_model):
        engine = SearchEngine.build(
            small_cleaned,
            concept_model,
            name="s",
            refresh_policy=RefreshPolicy(max_delta_ops=2),
        )
        report = engine.staleness()
        assert report.epoch == 0 and not report.refit_due
        assert report.baseline_resources == small_cleaned.num_resources
        engine.add_resources({"fresh-1": {small_cleaned.tags[0]: 1}})
        report = engine.add_resources({"fresh-2": {small_cleaned.tags[1]: 2}})
        assert report.delta_ops == 2
        assert report.refit_due  # max_delta_ops=2 reached
        assert "refit DUE" in report.summary()
        assert report.as_dict()["resources_added"] == 2

    def test_lazy_refresh_is_deferred_until_read(self, small_cleaned, concept_model):
        engine = SearchEngine.build(small_cleaned, concept_model, name="lazy")
        engine.add_resources({"lazy-r": {small_cleaned.tags[0]: 1}})
        assert engine.matrix_space.is_stale
        assert engine.refresh()
        assert not engine.matrix_space.is_stale
        assert not engine.refresh()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 99])
    def test_other_format_versions_are_refused_by_name(
        self, small_cleaned, concept_model, tmp_path, version
    ):
        """Only the current matrix-space format loads: every way in raises a
        typed error naming the version it met, and a pool's worker reports
        it in its ``fatal`` frame instead of leaving the start to time out."""
        SearchEngine.build(small_cleaned, concept_model, name="old").save(tmp_path)
        metadata_path = tmp_path / "shard-0000" / METADATA_FILENAME
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
        metadata["format_version"] = version
        metadata_path.write_text(json.dumps(metadata), encoding="utf-8")

        named = rf"format version {version}; .*re-save from the pipeline"
        for load in (
            lambda: MatrixConceptSpace.load(tmp_path / "shard-0000"),
            lambda: SearchEngine.load(tmp_path),
            lambda: SearchEngine.load_shard(tmp_path, 0),
        ):
            with pytest.raises(ConfigurationError, match=named):
                load()
        started = time.monotonic()
        with pytest.raises(ShardPoolError, match=f"ConfigurationError: .*{named}"):
            ShardProcessPool(tmp_path)
        assert time.monotonic() - started < ShardPoolConfig().startup_timeout / 2

    def test_refresh_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RefreshPolicy(max_delta_fraction=0.0)
        with pytest.raises(ConfigurationError):
            RefreshPolicy(max_delta_ops=0)


class TestRefreshPolicyEdgeCases:
    def test_zero_thresholds_are_rejected_not_misinterpreted(self):
        """A zero threshold would flag a refit on an untouched engine; both
        knobs reject it up front rather than silently always firing."""
        with pytest.raises(ConfigurationError):
            RefreshPolicy(max_delta_fraction=0.0)
        with pytest.raises(ConfigurationError):
            RefreshPolicy(max_delta_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            RefreshPolicy(max_delta_ops=0)
        # the tightest legal policy fires on the very first mutation ...
        tight = RefreshPolicy(max_delta_ops=1)
        assert not tight.refit_due(0, 100)
        assert tight.refit_due(1, 100)
        # ... and a zero-resource baseline flags any drift at all
        assert not RefreshPolicy().refit_due(0, 0)
        assert RefreshPolicy().refit_due(1, 0)

    def test_remove_then_re_add_counts_both_ops_and_keeps_parity(
        self, small_cleaned
    ):
        """Removing a resource and folding it back in later must count two
        delta ops (the latent model saw two drift events) while the index
        itself returns to a state that matches a from-scratch rebuild."""
        model = identity_concept_model(small_cleaned.tags)
        engine = SearchEngine.build(
            small_cleaned,
            model,
            name="rr",
            refresh_policy=RefreshPolicy(max_delta_ops=2),
        )
        victim = small_cleaned.resources[0]
        original_bag = dict(small_cleaned.tag_bag(victim))
        report = engine.remove_resources([victim])
        assert not engine.has_resource(victim)
        assert report.delta_ops == 1 and not report.refit_due
        report = engine.add_resources({victim: original_bag})
        assert engine.has_resource(victim)
        assert report.resources_removed == 1 and report.resources_added == 1
        assert report.delta_ops == 2 and report.refit_due
        assert report.current_resources == report.baseline_resources
        rebuilt = SearchEngine.build(small_cleaned, model, name="rebuild")
        rng = np.random.default_rng(41)
        assert_engine_parity(
            engine, rebuilt, sample_queries(small_cleaned, rng)
        )


class TestOfflineIndexDelta:
    @pytest.fixture(scope="class")
    def fitted_index(self, small_cleaned):
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=12, seed=0, min_rank=4
        )
        return pipeline.fit(small_cleaned)

    def test_apply_delta_matches_rebuild_on_frozen_model(self, fitted_index):
        rng = np.random.default_rng(5)
        index = OfflineIndex(
            concept_model=fitted_index.concept_model,
            engine=SearchEngine.build(
                fitted_index.folksonomy, fitted_index.concept_model, name="serve"
            ),
            timings=dict(fitted_index.timings),
            folksonomy=fitted_index.folksonomy,
        )
        delta = build_mixed_delta(index.folksonomy, rng)
        report = index.apply_delta(delta)
        assert report.delta_ops > 0
        rebuilt = SearchEngine.build(
            index.folksonomy, index.concept_model, name="rebuild"
        )
        queries = sample_queries(index.folksonomy, rng)
        assert_engine_parity(index.engine, rebuilt, queries)

    def test_save_load_apply_delta_round_trip(self, fitted_index, tmp_path):
        rng = np.random.default_rng(6)
        fitted_index.save(tmp_path, include_folksonomy=True)
        serving = OfflineIndex.load(tmp_path)
        assert serving.folksonomy is not None
        assert serving.folksonomy.assignments == (
            fitted_index.folksonomy.assignments
        )
        delta = build_mixed_delta(serving.folksonomy, rng)
        serving.apply_delta(delta)
        rebuilt = SearchEngine.build(
            serving.folksonomy, serving.concept_model, name="rebuild"
        )
        queries = sample_queries(serving.folksonomy, rng)
        assert_engine_parity(serving.engine, rebuilt, queries)

    def test_load_without_folksonomy_cannot_apply(self, fitted_index, tmp_path):
        fitted_index.save(tmp_path)  # default: no assignment log
        serving = OfflineIndex.load(tmp_path)
        assert serving.folksonomy is None
        with pytest.raises(ConfigurationError):
            serving.apply_delta(FolksonomyDelta(added=[("u", "t", "r")]))

    def test_metadata_records_persisted_concepts(self, small_cleaned, tmp_path):
        """A resource of only unseen tags adds no concept: the metadata and
        the reloaded model both count the distilled concepts."""
        import json

        from repro.core.concepts import ConceptModel, Concept
        from repro.core.pipeline import INDEX_METADATA_FILENAME

        model = ConceptModel(
            concepts=[
                Concept(0, tuple(sorted(small_cleaned.tags[:5]))),
                Concept(1, tuple(sorted(small_cleaned.tags[5:]))),
            ],
            tag_to_concept={
                tag: (0 if position < 5 else 1)
                for position, tag in enumerate(small_cleaned.tags)
            },
        )
        engine = SearchEngine.build(small_cleaned, model, name="unseen")
        engine.add_resources({"unseen-r": {"tag-outside-model": 2}})
        assert model.num_concepts == 2
        assert engine.has_resource("unseen-r")
        assert engine.search(["tag-outside-model"]) == []
        index = OfflineIndex(
            concept_model=model,
            engine=engine,
            timings={"indexing": 0.0},
            folksonomy=small_cleaned,
        )
        index.save(tmp_path)
        metadata = json.loads(
            (tmp_path / INDEX_METADATA_FILENAME).read_text(encoding="utf-8")
        )
        assert metadata["num_concepts"] == 2
        loaded = OfflineIndex.load(tmp_path)
        assert loaded.concept_model.num_concepts == 2

    def test_resave_without_folksonomy_drops_stale_assignment_log(
        self, fitted_index, tmp_path
    ):
        """Regression: checkpointing the same directory without the
        folksonomy used to leave the old assignment log behind, pairing the
        new engine with an outdated corpus on load."""
        fitted_index.save(tmp_path, include_folksonomy=True)
        fitted_index.save(tmp_path)  # overwrite, folksonomy not included
        reloaded = OfflineIndex.load(tmp_path)
        assert reloaded.folksonomy is None

    def test_one_delta_bumps_epoch_once(self, fitted_index):
        """A delta batch is one mutation epoch regardless of how many
        resources it adds, retags and removes."""
        rng = np.random.default_rng(11)
        index = OfflineIndex(
            concept_model=fitted_index.concept_model,
            engine=SearchEngine.build(
                fitted_index.folksonomy, fitted_index.concept_model, name="e"
            ),
            timings={},
            folksonomy=fitted_index.folksonomy,
        )
        delta = build_mixed_delta(index.folksonomy, rng)
        report = index.apply_delta(delta)
        assert report.epoch == 1
        assert report.delta_ops >= 3  # adds + removal + retag all counted

    def test_apply_mutations_rejects_overlapping_buckets(
        self, small_cleaned
    ):
        engine = SearchEngine.build(
            small_cleaned, identity_concept_model(small_cleaned.tags), name="o"
        )
        existing = small_cleaned.resources[0]
        with pytest.raises(ConfigurationError):
            engine.apply_mutations(
                updated={existing: {"a": 1}}, removed=[existing]
            )
        assert engine.epoch == 0

    def test_corpus_swap_delta_applies(self, small_cleaned):
        """A delta that replaces every resource must fold in cleanly."""
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=8, seed=0, min_rank=4
        )
        index = pipeline.fit(small_cleaned)
        tags = list(small_cleaned.tags)
        builder = FolksonomyDeltaBuilder()
        for resource in index.folksonomy.resources:
            builder.remove_resource(index.folksonomy, resource)
        for position in range(3):
            builder.add_resource(
                f"replacement-{position}", {"swap-user": [tags[position]]}
            )
        index.apply_delta(builder.build())
        assert index.engine.num_indexed_resources == 3
        assert index.folksonomy.num_resources == 3
        rebuilt = SearchEngine.build(
            index.folksonomy, index.concept_model, name="rebuild"
        )
        assert_engine_parity(
            index.engine, rebuilt, [[tags[0]], [tags[1]], []], top_k=5
        )

    def test_load_rejects_inconsistent_metadata(self, fitted_index, tmp_path):
        import json

        from repro.core.pipeline import INDEX_METADATA_FILENAME

        fitted_index.save(tmp_path)
        metadata_path = tmp_path / INDEX_METADATA_FILENAME
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
        metadata["num_concepts"] = metadata["num_concepts"] + 7
        metadata_path.write_text(json.dumps(metadata), encoding="utf-8")
        with pytest.raises(DataFormatError):
            OfflineIndex.load(tmp_path)


class TestSnapshotStore:
    def test_checkpoint_restore_and_prune(self, small_cleaned, tmp_path):
        rng = np.random.default_rng(7)
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=10, seed=0, min_rank=4
        )
        index = pipeline.fit(small_cleaned)
        store = IndexSnapshotStore(tmp_path / "snapshots")
        first = store.publish(index)
        assert first.name == "gen-0001"

        delta = build_mixed_delta(index.folksonomy, rng)
        index.apply_delta(delta)
        store.publish(index)  # checkpoint the mutation stream
        assert store.generations() == [1, 2]
        assert store.current_generation() == 2

        serving = store.load_current()  # newest generation
        assert serving.engine.epoch == index.engine.epoch
        queries = sample_queries(index.folksonomy, rng)
        assert_engine_parity(serving.engine, index.engine, queries)

        # the restored generation keeps accepting deltas
        more = FolksonomyDeltaBuilder().add_resource(
            "post-restore", {"user-z": [index.folksonomy.tags[0]]}
        ).build()
        serving.apply_delta(more)
        assert serving.engine.search([index.folksonomy.tags[0]], top_k=3)

        dropped = store.gc_generations(keep_last=1)
        assert dropped == [1]
        assert store.generations() == [2]
        assert store.load_current().engine.epoch == index.engine.epoch

    def test_replay_deltas_report(self, small_cleaned):
        rng = np.random.default_rng(8)
        pipeline = CubeLSIPipeline(
            reduction_ratios=(10.0, 3.0, 10.0), num_concepts=10, seed=0, min_rank=4
        )
        index = pipeline.fit(small_cleaned)
        deltas = []
        folksonomy = index.folksonomy
        for round_number in range(3):
            builder = FolksonomyDeltaBuilder()
            builder.add_resource(
                f"replay-{round_number}",
                {"replay-user": [folksonomy.tags[round_number]]},
            )
            delta = builder.build()
            deltas.append(delta)
            folksonomy = folksonomy.apply_delta(delta)
        added = []
        for delta in deltas:
            added.append(index.apply_delta(delta).resources_added)
            index.engine.refresh()
        assert added == [1, 2, 3]  # counted since the last full fit
        assert index.folksonomy.has_resource("replay-2")
        assert index.engine.has_resource("replay-2")
